import math
import tracemalloc

import numpy as np
import pytest

from brwlab import conditioned as cr
from brwlab import exactfields as xf
from brwlab import lattice as lat
from brwlab.offspring import binary
from brwlab.rngstreams import substream
from brwlab.stats import chi_square

B = binary()


def hitting(n: int) -> list:
    """u_0, ..., u_n in d = 2."""
    return list(xf.hitting_sweep(B, n, 2, method="kpp"))


def conditional_mean(n: int, x, u_n: lat.Field) -> float:
    """Exact E[U_n(x) | U_n(x) >= 1] = P_n(x) / u_n(x)."""
    return float(lat.transition_field(n, u_n.dim).values_at(x) / u_n.values_at(x))


def utransform_row(m: int, z, n: int, x, u: lat.Field):
    """Transition rows q_m(z, .) of the reweighted walk with endpoint (n, x)
    at states z[..., d], read from u = u_{n-m}: (neighbor sites [..., 2d+1,
    d], probabilities [..., 2d+1]).  The row's normalizer is (2d+1) (P
    u_{n-m})(x-z), because the neighborhood is symmetric."""
    z = np.asarray(z, dtype=np.int64)
    row, pu = u.neighbor_row(np.asarray(x, dtype=np.int64) - z)
    if np.any(pu <= 0.0):
        raise ValueError("unreachable state")
    return z[..., None, :] + lat.neighborhood(len(x)), row


def pinned_row(m: int, z, n: int, x, p_fields: list):
    """h-transform rows of the walk bridged to (n, x):
    q*_m(z, y) = P_1(y-z) P_{n-m}(x-y) / P_{n-m+1}(x-z)."""
    d = p_fields[0].dim
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    ys = z + lat.neighborhood(d)
    denom = p_fields[n - m + 1].values_at(x - z)
    if denom <= 0.0:
        raise ValueError("unreachable bridge state")
    return ys, p_fields[n - m].values_at(x - ys) / ((2 * d + 1) * denom)


@pytest.fixture(scope="module")
def u8():
    return hitting(8)


def test_one_step_walk_is_forced():
    ys, probs = utransform_row(1, (0, 0), 1, (1, 0), hitting(1)[0])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    pick = ys[probs > 0]
    assert len(pick) == 1 and tuple(pick[0]) == (1, 0)


def test_first_step_and_value_are_coupled_as_in_the_tree():
    # E[U_n(x) | U >= 1, X_1 = y] = P_{n-1}(x-y)/u_{n-1}(x-y) + P_n(x)/(2-p),
    # p = (P u_{n-1})(x): the first child's subtree plus a second child with
    # probability p/(2-p).  A path drawn apart from the tree reads
    # P_n(x)/u_n(x) = 1.260 in every bin, against 1.211-1.296 here.
    n, x, reps = 6, np.array([2, 0]), 100_000
    u = hitting(n)
    values, paths = cr.ConditionedSampler(n, x).sample(reps, substream(47, "conditioned-rep"))
    p_n = lat.transition_field(n, 2).value_at(x)
    second = p_n / (2.0 - u[n - 1].neighbor_row(x)[1])
    exact = [lat.transition_field(n - 1, 2).value_at(x - y) / u[n - 1].value_at(x - y) + second
             for y in lat.neighborhood(2)]
    assert max(exact) - min(exact) > 0.08
    for y, mean in zip(lat.neighborhood(2), exact):
        v = values[(paths[:, 1] == y).all(axis=1)]
        assert len(v) > 1000, tuple(y)
        assert abs(v.mean() - mean) <= 4 * v.std(ddof=1) / math.sqrt(len(v)), (tuple(y), mean)


def test_one_step_law_is_one_plus_bernoulli_ninth():
    rng = substream(40, "conditioned-rep")
    s = cr.ConditionedSampler(1, (0, 1))
    draws = s.sample(30_000, rng)[0]
    assert set(np.unique(draws)) <= {1, 2}
    obs = np.bincount(draws, minlength=3)[1:3]
    chi = chi_square(obs, np.array([8.0, 1.0]) / 9.0)
    assert chi["p_value"] > 1e-3


def test_rows_are_stochastic_everywhere_visited(u8):
    rng = substream(41, "conditioned-rep")
    s = cr.ConditionedSampler(8, (2, -1))
    paths = s.sample(200, rng)[1]
    for m in range(1, 9):
        ys, probs = utransform_row(m, paths[:, m - 1], 8, (2, -1), u8[8 - m])
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        # the batched rows are the rows of the single states
        for r in range(0, 200, 40):
            ys1, probs1 = utransform_row(m, tuple(paths[r, m - 1]), 8, (2, -1), u8[8 - m])
            assert np.array_equal(ys1, ys[r]) and np.array_equal(probs1, probs[r])


def test_row_symmetry_for_symmetric_target(u8):
    # target on the x-axis: stepping off-axis up or down is equally likely
    ys, probs = utransform_row(1, (0, 0), 8, (3, 0), u8[7])
    lookup = {tuple(y): p for y, p in zip(ys, probs)}
    assert lookup[(0, 1)] == lookup[(0, -1)]
    assert lookup[(1, 0)] > lookup[(-1, 0)]


def test_unreachable_targets_rejected():
    with pytest.raises(ValueError):
        cr.ConditionedSampler(2, (2, 1))  # |x|_1 = 3 > 2
    with pytest.raises(ValueError):
        utransform_row(1, (-2, 0), 3, (3, 0), hitting(3)[2])


def test_underflowing_target_is_named_not_called_unreachable():
    # |x|_1 <= n, yet u_n(x) is about 5^-n near the l1 sphere
    rng = substream(45, "conditioned-rep")
    with pytest.raises(ValueError, match=r"underflow.*n = 512, x = \(500, 0\)"):
        cr.ConditionedSampler(512, (500, 0)).sample(1, rng)
    paths = cr.ConditionedSampler(512, (480, 0)).sample(2, rng)[1]
    assert (paths[:, -1] == (480, 0)).all()


def test_endpoint_audit_zero_violations():
    rng = substream(42, "conditioned-rep")
    targets = cr.reachable_targets(12, 2, 12, rng)
    audit = cr.endpoint_audit(12, targets, 150, rng)
    assert audit["violations"] == 0
    assert audit["paths"] == 12 * 150


def test_conditional_mean_identity():
    rng = substream(43, "conditioned-rep")
    n, x = 12, (2, 0)
    s = cr.ConditionedSampler(n, x)
    draws = s.sample(20_000, rng)[0]
    exact = conditional_mean(n, x, hitting(n)[n])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - exact) <= 3 * se


@pytest.mark.parametrize("n,targets", [
    (1, ((1, 0), (0, 1), (0, 0))),
    (2, ((1, 0), (0, 0), (1, 1))),
    (3, ((1, 0), (2, 1), (0, 0))),
    (4, ((0, 0), (2, 0), (1, 1))),
])
def test_distribution_matches_pmf_oracle(n, targets):
    rng = substream(44, "conditioned-rep", rep=n)
    pf = xf.pmf_oracle(B, n, 2, degree=32)
    for x in targets:
        cond = pf.conditional_pmf_at(x)
        s = cr.ConditionedSampler(n, x)
        draws = s.sample(20_000, rng)[0]
        obs = np.bincount(draws, minlength=len(cond) + 1)[1:]
        chi = chi_square(obs, cond)
        assert chi["p_value"] > 0.01, (n, x)


def test_reweighted_walk_coincides_with_bridge_at_horizon_two():
    # u_1 is flat on the neighborhood, so every row the two-step walk uses is
    # proportional to the bridge row; genuine divergence needs horizon >= 3
    u = hitting(2)
    p_fields = [lat.transition_field(m, 2) for m in range(4)]
    for z in ((0, 0),):
        ys, q = utransform_row(1, z, 2, (1, 1), u[1])
        _, qp = pinned_row(1, z, 2, (1, 1), p_fields)
        assert np.abs(q - qp).max() <= 1e-12


def test_reweighted_walk_differs_from_bridge_at_horizon_three():
    p_fields = [lat.transition_field(m, 2) for m in range(5)]
    ys, q = utransform_row(1, (0, 0), 3, (1, 0), hitting(3)[2])
    _, qp = pinned_row(1, (0, 0), 3, (1, 0), p_fields)
    assert np.abs(q - qp).max() > 1e-6


def test_path_and_sample_reproducible():
    s = cr.ConditionedSampler(5, (1, 1))
    va, pa = s.sample(20, substream(9, "conditioned-rep", 0))
    vb, pb = s.sample(20, substream(9, "conditioned-rep", 0))
    assert np.array_equal(va, vb) and np.array_equal(pa, pb)
    assert pa.shape == (20, 6, 2) and (pa[:, -1] == (1, 1)).all()


def _same_fields(a, b):
    return [f.step for f in a] == [f.step for f in b] and all(
        np.array_equal(f.values, g.values) and f.tail_bound == g.tail_bound for f, g in zip(a, b))


@pytest.mark.parametrize("n,x", [(1, (1, 0)), (25, (0, 0)), (25, (3, -1)), (21, (0, 0, 0))])
def test_sampler_reads_unclamped_fields_where_the_clamp_cannot_cut(n, x):
    got = list(cr.ConditionedSampler(n, x).u)
    assert _same_fields(got, list(xf.hitting_sweep(B, n - 1, len(x), method="kpp"))[::-1])


@pytest.mark.parametrize("n,x", [(26, (0, 0)), (22, (0, 0, 0))])
def test_sampler_clamps_just_beyond(n, x):
    top = next(iter(cr.ConditionedSampler(n, x).u))
    assert top.step == n - 1 and top.radius < n - 1 and 0.0 < top.tail_bound < 1e-14


def test_far_target_lies_inside_the_clamped_box():
    # without the target's distance the box would stop short of x
    n, x = 64, (45, 0)
    assert lat.clamp_radius(n - 1, 2, 1e-14) < 45
    paths = cr.ConditionedSampler(n, x).sample(300, substream(45, "conditioned-rep"))[1]
    assert (paths[:, -1] == x).all()
    assert (np.abs(np.diff(paths, axis=1)).sum(axis=2) <= 1).all()


def test_sampler_holds_no_field_per_horizon():
    # every u_m, m <= 256, on the unclamped box took C(259, 3) doubles
    rng = substream(46, "conditioned-rep")
    lat._marks.clear()
    tracemalloc.start()
    try:
        cr.ConditionedSampler(256, (1, 0)).sample(64, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < math.comb(259, 3) * 8 / 4


def test_horizon_beyond_the_packing_range_fails_before_any_field(monkeypatch):
    def never(*args, **kw):
        raise AssertionError("a field was built")

    monkeypatch.setattr(lat, "stencil_step", never)
    with pytest.raises(ValueError, match="packing range"):
        cr.ConditionedSampler(20_000, (1, 0))
