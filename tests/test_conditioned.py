import math

import numpy as np
import pytest

from brwlab import conditioned as cr
from brwlab import exactfields as xf
from brwlab import lattice as lat
from brwlab.offspring import binary
from brwlab.rngstreams import substream
from brwlab.stats import chi_square

B = binary()


def conditional_mean(n: int, x, bank: cr.HittingBank) -> float:
    """Exact E[U_n(x) | U_n(x) >= 1] = P_n(x) / u_n(x)."""
    return float(lat.transition_field(n, bank.d).values_at(x) / bank.u[n].values_at(x))


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
def bank8():
    return cr.HittingBank(8, 2)


def test_one_step_walk_is_forced(bank8):
    bank = cr.HittingBank(1, 2)
    ys, probs = cr.utransform_row(1, (0, 0), 1, (1, 0), bank)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    pick = ys[probs > 0]
    assert len(pick) == 1 and tuple(pick[0]) == (1, 0)


def test_beta_coin_value_at_origin():
    s = cr.ConditionedSampler(1, (1, 0))
    beta = s._coin_probs(np.zeros((1, 2, 2), dtype=np.int64))
    assert beta.shape == (1, 1) and beta[0, 0] == pytest.approx(5 / 9, abs=1e-15)


def test_one_step_law_is_one_plus_bernoulli_ninth():
    rng = substream(40, "conditioned-rep")
    s = cr.ConditionedSampler(1, (0, 1))
    draws = s.sample(30_000, rng)[0]
    assert set(np.unique(draws)) <= {1, 2}
    obs = np.bincount(draws, minlength=3)[1:3]
    chi = chi_square(obs, np.array([8.0, 1.0]) / 9.0)
    assert chi["p_value"] > 1e-3


def test_rows_are_stochastic_everywhere_visited(bank8):
    rng = substream(41, "conditioned-rep")
    s = cr.ConditionedSampler(8, (2, -1), bank8)
    paths = s.sample_paths(200, rng)
    for m in range(1, 9):
        ys, probs = cr.utransform_row(m, paths[:, m - 1], 8, (2, -1), bank8)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        # the batched rows are the rows of the single states
        for r in range(0, 200, 40):
            ys1, probs1 = cr.utransform_row(m, tuple(paths[r, m - 1]), 8, (2, -1), bank8)
            assert np.array_equal(ys1, ys[r]) and np.array_equal(probs1, probs[r])


def test_row_symmetry_for_symmetric_target(bank8):
    # target on the x-axis: stepping off-axis up or down is equally likely
    ys, probs = cr.utransform_row(1, (0, 0), 8, (3, 0), bank8)
    lookup = {tuple(y): p for y, p in zip(ys, probs)}
    assert lookup[(0, 1)] == lookup[(0, -1)]
    assert lookup[(1, 0)] > lookup[(-1, 0)]


def test_unreachable_targets_rejected(bank8):
    with pytest.raises(ValueError):
        cr.ConditionedSampler(2, (2, 1), bank8)  # |x|_1 = 3 > 2
    with pytest.raises(ValueError):
        cr.utransform_row(1, (-2, 0), 3, (3, 0), cr.HittingBank(3, 2))


def test_endpoint_audit_zero_violations():
    rng = substream(42, "conditioned-rep")
    bank = cr.HittingBank(12, 2)
    targets = cr.reachable_targets(12, 2, 12, rng)
    audit = cr.endpoint_audit(12, targets, 150, rng, bank)
    assert audit["violations"] == 0
    assert audit["paths"] == 12 * 150


def test_conditional_mean_identity():
    rng = substream(43, "conditioned-rep")
    n, x = 12, (2, 0)
    bank = cr.HittingBank(n, 2)
    s = cr.ConditionedSampler(n, x, bank)
    draws = s.sample(20_000, rng)[0]
    exact = conditional_mean(n, x, bank)
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
    bank = cr.HittingBank(n, 2)
    for x in targets:
        cond = pf.conditional_pmf_at(x)
        s = cr.ConditionedSampler(n, x, bank)
        draws = s.sample(20_000, rng)[0]
        obs = np.bincount(draws, minlength=len(cond) + 1)[1:]
        chi = chi_square(obs, cond)
        assert chi["p_value"] > 0.01, (n, x)


def test_reweighted_walk_coincides_with_bridge_at_horizon_two():
    # u_1 is flat on the neighborhood, so every row the two-step walk uses is
    # proportional to the bridge row; genuine divergence needs horizon >= 3
    bank = cr.HittingBank(2, 2)
    p_fields = [lat.transition_field(m, 2) for m in range(4)]
    for z in ((0, 0),):
        ys, q = cr.utransform_row(1, z, 2, (1, 1), bank)
        _, qp = pinned_row(1, z, 2, (1, 1), p_fields)
        assert np.abs(q - qp).max() <= 1e-12


def test_reweighted_walk_differs_from_bridge_at_horizon_three():
    bank = cr.HittingBank(3, 2)
    p_fields = [lat.transition_field(m, 2) for m in range(5)]
    ys, q = cr.utransform_row(1, (0, 0), 3, (1, 0), bank)
    _, qp = pinned_row(1, (0, 0), 3, (1, 0), p_fields)
    assert np.abs(q - qp).max() > 1e-6


def test_path_and_sample_reproducible():
    s = cr.ConditionedSampler(5, (1, 1))
    va, pa = s.sample(20, substream(9, "conditioned-rep", 0))
    vb, pb = s.sample(20, substream(9, "conditioned-rep", 0))
    assert np.array_equal(va, vb) and np.array_equal(pa, pb)
    assert pa.shape == (20, 6, 2) and (pa[:, -1] == (1, 1)).all()
