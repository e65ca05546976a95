import itertools
import math

import numpy as np
import pytest

from brwlab import exactfields as xf
from brwlab import lattice as lat
from brwlab.offspring import binary, geometric, parse_offspring, zeta

B = binary()


# ---------------------------------------------------------------------------
# survival recursion


def test_survival_first_steps():
    s = xf.survival_sequence(B, 2)
    assert s[0] == 1.0 and s[1] == 0.5
    assert s[2] == pytest.approx(3 / 8, abs=1e-15)
    with pytest.raises(ValueError, match="n must be >= 0"):
        xf.survival_sequence(B, -1)


def test_survival_monotone_and_asymptotic():
    s = xf.survival_sequence(B, 4096)
    assert np.all(np.diff(s) < 0)
    assert 1.85 <= 4096 * s[4096] <= 2.0


def test_survival_general_families():
    g = geometric(2)
    # sigma2 = 2: n*s_n -> 2/sigma2 = 1
    assert 0.92 <= 2048 * xf.survival_sequence(g, 2048)[2048] <= 1.0
    z = zeta(2.0)
    s = xf.survival_sequence(z, 64)
    assert np.all(np.diff(s) < 0) and s[64] > 0


# ---------------------------------------------------------------------------
# hitting fields


def test_hitting_one_step_frozen():
    u1 = xf.hitting_field(B, 1, 2)
    offs = [tuple(o) for o in lat.neighborhood(2)]
    full = u1.unfolded()
    for idx in np.ndindex(*full.shape):
        site = tuple(i - u1.radius for i in idx)
        expect = 9 / 50 if site in offs else 0.0
        assert full[idx] == pytest.approx(expect, abs=1e-16)
    assert not np.signbit(full).any()  # unreached sites hold +0.0, which CSV writes as 0.0


def test_hitting_two_steps_frozen():
    u2 = xf.hitting_field(B, 2, 2)
    assert u2.value_at((0, 0)) == pytest.approx(0.18 - 0.5 * 0.18**2, abs=1e-15)


def test_hitting_below_survival():
    s = xf.survival_sequence(B, 24)
    for n in (4, 12, 24):
        u = xf.hitting_field(B, n, 2)
        assert u.values.max() <= s[n] + 1e-15


def test_hitting_routes_agree_for_general_law():
    g = geometric(2)
    u = xf.hitting_field(g, 6, 2)
    # against a per-site truncated-pmf oracle
    pf = xf.pmf_oracle(g, 6, 2, degree=96)
    assert np.abs(u.unfolded() - pf.hitting_values()).max() <= 1e-9


@pytest.mark.parametrize("spec", ["binary", "geometric:2", "table:0=0.4,1=0.3,2=0.2,3=0.1"])
@pytest.mark.parametrize("n", [16, 64])
def test_hitting_corner_matches_scalar_recursion(spec, n):
    # u_n(n e_1) sees only u_{n-1}((n-1) e_1) through P, so it is the scalar
    # recursion a_{k+1} = 1 - Phi(1 - a_k/5), a_0 = 1; at n = 64 it is near
    # 1e-45, far below what 1 - (extinction probability) can hold
    dist = parse_offspring(spec)
    a = 1.0
    for _ in range(n):
        a = -dist.pgf_at_one_plus(-a / 5)
    assert 0.0 < a < 1e-10
    assert xf.hitting_field(dist, n, 2).value_at((n, 0)) == pytest.approx(a, rel=1e-12, abs=0)


def test_pgf_route_reports_clamped_tail():
    # binary fission in its closed form and as a table (the pgf series): the
    # clamp drops the same mass of Pu, and the fields agree
    kpp = xf.hitting_field(B, 12, 2, clamp=3)
    pgf = xf.hitting_field(parse_offspring("table:0=0.5,2=0.5"), 12, 2, clamp=3)
    assert kpp.tail_bound > 0.2
    assert abs(pgf.tail_bound - kpp.tail_bound) <= 1e-12
    assert np.abs(pgf.values - kpp.values).max() <= 1e-12


def test_mean_occupied_frozen_and_oracle():
    total, _ = xf.mean_occupied(B, 1, 2)
    assert total == pytest.approx(5 * 9 / 50, abs=1e-14)
    for n in (2, 6):
        total, _ = xf.mean_occupied(B, n, 2)
        pf = xf.pmf_oracle(B, n, 2, degree=64)
        assert total == pytest.approx(pf.hitting_values().sum(), abs=1e-9)


@pytest.mark.parametrize("law", ["binary", "geometric:2"])
@pytest.mark.parametrize("d", [2, 3])
def test_mean_occupied_tail_bounds_the_clamped_deficit(monkeypatch, law, d):
    # the certificate is the hitting sweep's own killed mass: the deficit of
    # the clamped total lies in [0, tail], and no second sweep runs
    dist, n = parse_offspring(law), 64
    clamp = int(lat.clamp_schedule(n, d, 1e-12)[-1]) // 2
    full = xf.hitting_field(dist, n, d).total()
    steps = []
    real = lat.stencil_step
    monkeypatch.setattr(lat, "stencil_step", lambda *a, **k: steps.append(1) or real(*a, **k))
    total, tail = xf.mean_occupied(dist, n, d, clamp=clamp)
    assert len(steps) == n
    assert 0.0 < full - total <= tail
    assert tail <= lat.transition_field(n, d, clamp=clamp).tail_bound


# ---------------------------------------------------------------------------
# mgf and dominating fields


def test_mgf_zero_theta_vanishes():
    g = xf.mgf_field(B, 5, 0.0, 2)
    assert np.abs(g.values).max() == 0.0


def test_mgf_initial_and_one_step():
    th = 0.3
    g0 = xf.mgf_field(B, 0, th, 2)
    assert g0.value_at((0, 0)) == pytest.approx(math.expm1(th), abs=1e-15)
    g1 = xf.mgf_field(B, 1, th, 2)
    expect = 0.5 * (1 + (1 + math.expm1(th) / 5) ** 2) - 1
    assert g1.value_at((0, 0)) == pytest.approx(expect, abs=1e-15)


def test_mgf_derivative_recovers_transition_probs():
    h = 1e-6
    for n in (8, 32):
        g = xf.mgf_field(B, n, h, 2)
        p = lat.transition_field(n, 2)
        err = np.abs(g.values / h - p.values)
        assert np.all(err <= 1e-4 * p.values + 1e-12)


def test_mgf_blowup_signaled_with_step():
    g = geometric(2)
    with pytest.raises(xf.MgfBlowupError) as e:
        xf.mgf_field(g, 50, 0.8, 2)
    assert e.value.step == 0
    with pytest.raises(xf.MgfBlowupError) as e:
        xf.mgf_field(g, 200, 0.55, 2)
    assert e.value.step > 100


def test_mgf_sums_stabilize_in_d3():
    bank = xf.mgf_sweep(B, 64, 0.05, 3, clamp=lat.clamp_schedule(64, 3, 1e-12))
    sums = np.array([f.total() for f in bank])
    assert np.all(np.diff(sums) >= -1e-15)
    assert abs(sums[64] / sums[48] - 1.0) <= 0.01


def test_dominating_field_basics():
    th = 0.3
    h1 = xf.dominating_field(B, 1, th, 2)
    g1 = xf.mgf_field(B, 1, th, 2)
    assert np.array_equal(h1.values, g1.values)
    for n in (2, 8, 24):
        h = xf.dominating_field(B, n, th, 2)
        g = xf.mgf_field(B, n, th, 2)
        assert np.all(h.values >= g.values - 1e-15)
    h0 = xf.dominating_field(B, 6, 0.0, 2)
    assert np.abs(h0.values).max() == 0.0


def _iterated_dominating(dist, n, theta, d, clamp):
    """H_n and its killed mass by the defining iteration H_{k+1} =
    (P H_k) Phi'(1 + H_k(0)), one stencil step at a time from H_1 = G_1."""
    h, tail = xf.mgf_field(dist, 1, theta, d, clamp).values, 0.0
    for _ in range(1, n):
        ph, lost = lat.stencil_step(h, d, clamp)
        tail += lost
        h = ph * float(dist.pgf_prime(1.0 + h[0]))
    return h, tail


@pytest.mark.parametrize("law", ["binary", "geometric:2"])
@pytest.mark.parametrize("d,clamp", [(2, None), (2, 5), (3, None), (3, 5)])
def test_dominating_field_matches_the_iteration_in_n_steps(monkeypatch, law, d, clamp):
    # the closed form c_k P^{k-1} G_1 of one sweep against the iteration;
    # the mgf step to G_1 and the sweep's n - 1 steps make n stencil steps
    dist, real = parse_offspring(law), lat.stencil_step
    for n in (1, 2, 5, 8):
        h, tail = _iterated_dominating(dist, n, 0.3, d, clamp)
        steps = []
        monkeypatch.setattr(lat, "stencil_step",
                            lambda *a, **k: steps.append(1) or real(*a, **k))
        got = xf.dominating_field(dist, n, 0.3, d, clamp)
        monkeypatch.setattr(lat, "stencil_step", real)
        assert len(steps) == n
        assert np.abs(got.values - h).max() <= 1e-12 * h.max()
        # the tail holds the killed mass of H and bounds the total's deficit
        assert got.tail_bound >= tail * (1 - 1e-12)
        assert got.tail_bound >= xf.dominating_field(dist, n, 0.3, d).total() - got.total()
        assert (tail > 0.0) == (got.tail_bound > 0.0) == (clamp is not None and n > clamp)


@pytest.mark.parametrize("theta,step", [(0.3, 35), (0.6, 6)])
def test_dominating_field_blowup_names_its_step(theta, step):
    # H_k(0) leaves geometric:2's pgf domain [0, 2]: the step is checked
    # before Phi' is evaluated there
    with pytest.raises(xf.MgfBlowupError) as e:
        xf.dominating_field(geometric(2), 64, theta, 2)
    assert e.value.step == step


@pytest.mark.parametrize("field,killed", [(xf.mgf_field, 0.001376145281257048),
                                          (xf.dominating_field, 0.0014322270253319203)])
def test_clamped_mgf_and_dominating_fields_report_killed_mass(field, killed):
    # the tail carries the clamp's killed mass (the parameter) and what the
    # update's slope >= 1 makes of it: it bounds the clamped total's deficit
    clamped = field(B, 12, 0.05, 2, clamp=5)
    exact = field(B, 12, 0.05, 2)
    assert clamped.tail_bound >= killed * (1 - 1e-9)
    assert clamped.tail_bound >= exact.total() - clamped.total() > killed
    for clamp in (12, 13):  # a clamp the box never reaches kills nothing
        wide = field(B, 12, 0.05, 2, clamp=clamp)
        assert wide.tail_bound == 0.0 and np.array_equal(wide.values, exact.values)
    assert np.all(clamped.values <= exact.values_at(clamped.sites()))  # the clamp only kills mass


@pytest.mark.parametrize("field,law,theta,n,clamp,deficit", [
    (xf.mgf_field, "binary", 0.3, 40, 8, 0.038544533278122683),
    (xf.dominating_field, "binary", 0.05, 12, 5, 0.0014400515991957394),
    (xf.dominating_field, "geometric:2", 0.3, 30, 6, 1.7766999577338218),
])
def test_clamped_mgf_and_h_tails_bound_the_deficit(field, law, theta, n, clamp, deficit):
    # the three cases where the summed killed mass fell short of the deficit
    # (0.03847, 0.001432 and 0.631); in the last, c^_k leaves the pgf domain
    dist = parse_offspring(law)
    clamped, exact = field(dist, n, theta, 2, clamp), field(dist, n, theta, 2)
    assert exact.total() - clamped.total() == pytest.approx(deficit, rel=1e-9)
    assert clamped.tail_bound >= deficit


def test_sweeps_reject_a_negative_horizon():
    for call in (lambda: xf.mgf_field(B, -1, 0.05, 2),
                 lambda: xf.hitting_field(B, -1, 2),
                 lambda: xf.second_moment_field(B, -1, 2),
                 lambda: xf.dominating_field(B, 0, 0.05, 2)):
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------------
# second moments and the pmf oracle


def test_second_moment_one_step_frozen():
    f = xf.second_moment_field(B, 1, 2)
    offs = [tuple(o) for o in lat.neighborhood(2)]
    full = f.unfolded()
    for idx in np.ndindex(*full.shape):
        site = tuple(i - f.radius for i in idx)
        expect = 6 / 25 if site in offs else 0.0
        assert full[idx] == pytest.approx(expect, abs=1e-15)


def test_second_moment_summed_identity_small():
    from brwlab.spine import even_return_probs
    sums = np.array([f.total() for f in xf.second_moment_fields(B, 12, 2)])
    p2 = even_return_probs(12, 2)
    rhs = 1.0 + np.cumsum(np.concatenate(([0.0], p2[1:])))
    assert np.abs(sums - rhs).max() <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_spread_row_rejects_the_f_recursion_without_P(d):
    # f_k = f_{k-1} + sigma^2 P_k^2 keeps every total of f, so the summed
    # identity cannot see it; C03's spread comparison at its n = 128 can
    from brwlab.verify import _spectral_return_probs, _spread_error
    n = 128
    p2, spread = _spectral_return_probs(n, d)
    clamp = lat.clamp_schedule(n, d, 1e-14)
    assert _spread_error(xf.second_moment_field(B, n, d, clamp), p2, spread) <= 1e-8
    f = np.zeros(1)
    for p in lat.sweep(n, d, clamp=clamp):  # the radii never shrink
        f = np.concatenate((f, np.zeros(len(p.values) - len(f))))
        f += B.sigma2 * np.square(p.values) if p.step else p.values
    assert _spread_error(lat.Field(f, d, step=n), p2, spread) > 0.9


@pytest.mark.parametrize("d,clamp", [(2, None), (2, 5), (3, None), (3, 4)])
def test_second_moments_bit_symmetric_clamped_or_not(d, clamp):
    f = xf.second_moment_field(B, 12, d, clamp=clamp)
    full = f.unfolded()
    for axis in range(d):
        assert np.array_equal(full, np.flip(full, axis=axis))
    for perm in itertools.permutations(range(d)):
        assert np.array_equal(full, full.transpose(perm))
    # clamping only kills mass: the clamped field sits below the exact one
    exact = xf.second_moment_field(B, 12, d)
    assert np.all(f.values <= exact.values_at(f.sites()))
    assert (f.tail_bound > 0) == (clamp is not None)


@pytest.mark.parametrize("law", ["binary", "geometric:2"])
@pytest.mark.parametrize("d,n,clamp", [(2, 40, 8), (3, 12, 4)])
def test_second_moment_tail_bounds_the_clamped_deficit(law, d, n, clamp):
    # the clamp drops f's own killed mass and part of every source term
    # sigma^2 P_k^2; P_n's killed mass alone is below the deficit here
    dist = parse_offspring(law)
    full = xf.second_moment_field(dist, n, d).total()
    f = xf.second_moment_field(dist, n, d, clamp=clamp)
    assert 0.0 < full - f.total() <= f.tail_bound
    assert lat.transition_field(n, d, clamp=clamp).tail_bound < full - f.total()


def test_second_moment_fields_are_the_sweep_prefixes():
    # one stream yields every f_k, each bit for bit the field of horizon k
    fields = list(xf.second_moment_fields(B, 6, 2, clamp=3))
    assert [f.step for f in fields] == list(range(7))
    for f in fields:
        alone = xf.second_moment_field(B, f.step, 2, clamp=3)
        assert np.array_equal(f.values, alone.values) and f.tail_bound == alone.tail_bound


@pytest.mark.parametrize("d,n,clamp", [(2, 30, 6), (3, 20, 4)])
def test_second_moments_match_the_plain_loop(d, n, clamp):
    # f_n and its tail are the plain loop's, bit for bit, for a law whose
    # sigma^2 (0.6) is not exact in binary: P f, plus sigma^2 P_k^2 squared first
    law = parse_offspring("table:0=0.3,1=0.4,2=0.3")
    f1 = xf.second_moment_field(law, n, d, clamp=clamp)
    assert f1.tail_bound > 0.0
    p = f = np.ones(1)
    for _ in range(n):
        p, _ = lat.stencil_step(p, d, clamp)
        f, _ = lat.stencil_step(f, d, clamp)
        f += law.sigma2 * np.square(p)
    assert np.array_equal(f1.values, f)


def test_pmf_oracle_one_step_frozen():
    pf = xf.pmf_oracle(B, 1, 2, degree=8)
    assert pf.pmf_at((1, 0))[:3] == pytest.approx([41 / 50, 8 / 50, 1 / 50], abs=1e-15)
    assert pf.pmf_at((0, 0))[:3] == pytest.approx([41 / 50, 8 / 50, 1 / 50], abs=1e-15)
    assert pf.pmf_at((1, 1))[0] == 1.0


def test_pmf_oracle_moments_match_fields():
    for n in (3, 7):
        pf = xf.pmf_oracle(B, n, 2, degree=64)
        pn = lat.transition_field(n, 2)
        u = xf.hitting_field(B, n, 2)
        m2 = xf.second_moment_field(B, n, 2)
        assert np.abs(pf.mean_field() - pn.unfolded()).max() <= 1e-9
        assert np.abs(pf.hitting_values() - u.unfolded()).max() <= 1e-9
        assert np.abs(pf.second_moment_values() - m2.unfolded()).max() <= 1e-8


def test_pmf_oracle_refuses_undersized_degree():
    with pytest.raises(xf.PmfTruncationError):
        xf.pmf_oracle(B, 10, 2, degree=4)


def test_pmf_oracle_pass_matches_fresh_oracles():
    # one pass reads every step off the one before: each field is bit for bit
    # the oracle run from the delta to that step
    for d, degree in ((2, 64), (3, 16)):
        steps = 12 if d == 2 else 5
        fields = list(xf.pmf_oracle_sweep(B, steps, d, degree))
        assert [pf.step for pf in fields] == list(range(steps + 1))
        for k, pf in enumerate(fields):
            fresh = xf.pmf_oracle(B, k, d, degree)
            assert (pf.radius, pf.degree) == (fresh.radius, degree)
            assert np.array_equal(pf.coeffs, fresh.coeffs)


def test_pmf_oracle_pass_refuses_before_the_field_is_used():
    # a step whose truncated mass exceeds 1e-9 is never handed out: degree 4
    # holds steps 0..2 of binary fission, and step 3 raises
    seen = []
    with pytest.raises(xf.PmfTruncationError, match="at step 3"):
        for pf in xf.pmf_oracle_sweep(B, 10, 2, degree=4):
            assert pf.deficit().max() <= 1e-9
            seen.append(pf.step)
    assert seen == [0, 1, 2]
    # a law the oracle cannot hold is refused before the delta is handed out
    with pytest.raises(xf.PmfTruncationError, match="support"):
        next(xf.pmf_oracle_sweep(zeta(2.0), 5, 2))


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_pmf_oracle_refuses_zeta_laws(alpha):
    # the oracle sums over the table alone; a zeta law's head table holds
    # 4096 of its 2.5M (alpha = 2) or 37k (alpha = 3) points.  It refuses on
    # the law before any step: at n = 0 no mass check could catch it
    z = zeta(alpha)
    assert len(z.support) == 4096 < z.support_size
    for n in (0, 1):
        with pytest.raises(xf.PmfTruncationError, match="support"):
            xf.pmf_oracle(z, n, 1, degree=4)


def test_paley_zygmund_sandwich():
    s = xf.survival_sequence(B, 128)
    for n in (16, 64, 128):
        p = lat.transition_field(n, 2)
        u = xf.hitting_field(B, n, 2)
        m2 = xf.second_moment_field(B, n, 2)
        assert np.all(p.values**2 <= u.values * m2.values + 1e-15)
        assert np.all(u.values <= np.minimum(p.values, s[n]) + 1e-15)


def test_hitting_orthant_monotonicity():
    for n in (8, 32, 64):
        u = xf.hitting_field(B, n, 2)
        R = u.radius
        quad = u.unfolded()[R:, R:]
        assert np.diff(quad, axis=0).max() <= 1e-12
        assert np.diff(quad, axis=1).max() <= 1e-12


# ---------------------------------------------------------------------------
# super-solution machinery


def test_supersolution_field_center_and_constants():
    assert xf.BETA == 2.5
    assert xf.KAPPA0 == pytest.approx(4 * math.exp(15.0))
    p = xf.SuperSolutionParams(kappa=7.0)
    v = xf.supersolution_field(p, 16, radius=4)
    assert v.value_at((0, 0)) == pytest.approx(7.0 / (16 * math.log(16)), abs=1e-15)
    assert v.value_at((3, 0)) == pytest.approx(
        7.0 / (16 * math.log(16)) * math.exp(-p.beta_n(16) * 9 / 32), abs=1e-15)


def test_supersolution_margin_holds_beyond_start():
    n0 = xf.find_supersolution_start(xf.KAPPA0)
    rep = xf.verify_supersolution(xf.SuperSolutionParams(xf.KAPPA0),
                                  range(n0, 2 * n0 + 1))
    assert rep["holds"] and rep["min_relative_margin"] >= 0
    assert rep["argmin"]["regime"] in ("core", "mid", "edge")


def test_supersolution_degenerate_prefactor_rejected():
    rep = xf.verify_supersolution(xf.SuperSolutionParams(0.0), range(8, 10))
    assert rep["holds"] is False


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_supersolution_non_finite_prefactor_rejected(kappa):
    # NaN margins pass no comparison, so they must not reach the verdict
    with pytest.raises(ValueError, match="finite"):
        xf.verify_supersolution(xf.SuperSolutionParams(kappa), range(8, 10))


def test_comparison_with_shifted_bump():
    n0 = xf.find_supersolution_start(xf.KAPPA0)
    n1 = xf.comparison_shift(xf.KAPPA0, n_min=n0)
    assert n1 * math.log(n1) >= xf.KAPPA0 > (n1 - 1) * math.log(n1 - 1)


@pytest.mark.parametrize("eps", [1e-6, 1e-10])
def test_clamped_hitting_sweep_is_within_eps_of_the_full_box(eps):
    # the argument behind C11's certified bound: the unclamped u_k is at most
    # eps outside each box r_k, and within eps of the clamped sweep inside it
    n = 200
    clamped = xf.hitting_sweep(B, n, 2, clamp=lat.clamp_schedule(n, 2, eps))
    cut = 0
    for u, w in zip(xf.hitting_sweep(B, n, 2), clamped, strict=True):
        m = len(w.values)
        assert np.abs(u.values[:m] - w.values).max() <= eps
        assert u.values[m:].max(initial=0.0) <= eps
        cut += m < len(u.values)
    assert cut > n // 2  # most steps were clamped


@pytest.mark.parametrize("n1", [None, 2000])
def test_c11_domination_bound_is_certified_and_tight(n1):
    # at top = 64 the clamped sweep's certified bound lies between the
    # unclamped full-box max(u_k - v_{N1+k}) and that max plus eps.  With
    # C11's own N1 (None) the max sits at k = 1 near the origin; with the
    # narrower bump of N1 = 2000 it sits at the corner (64, 64), outside the
    # clamped box (r_64 = 35)
    from brwlab import verify as vf

    if n1 is None:
        n1 = xf.comparison_shift(xf.KAPPA0, n_min=xf.find_supersolution_start(xf.KAPPA0))
    params = xf.SuperSolutionParams(n1 * math.log(n1))
    top, eps = 64, 1e-10
    assert lat.clamp_schedule(top, 2, eps)[top] < top
    full, origin = -math.inf, []
    for u in xf.hitting_sweep(B, top, 2):
        origin.append(u.value_at((0, 0)))
        if u.step:
            v = xf.supersolution_field(params, n1 + u.step, radius=u.radius)
            full = max(full, float((u.values - v.values).max()))
    bound, at_origin = vf._shift_domination(n1, top, eps)
    assert full <= bound <= full + eps
    assert np.abs(at_origin - origin).max() <= eps


def test_supersolution_margin_shrinks_toward_band_edge():
    # in the bulk of the checked region the margin tightens as |x| grows
    p = xf.SuperSolutionParams(xf.KAPPA0)
    n = 16
    S = 3 * n
    v = xf.supersolution_field(p, n, radius=S + 1)
    vnext = xf.supersolution_field(p, n + 1, radius=S + 1)
    m = []
    for x1 in (int(math.sqrt(10 * n)) + 4, 2 * n, 3 * n - 1):
        pv = (v.value_at((x1 + 1, 0)) + v.value_at((x1 - 1, 0)) + v.value_at((x1, 1))
              + v.value_at((x1, -1)) + v.value_at((x1, 0))) / 5.0
        m.append(vnext.value_at((x1, 0)) - pv * (1 - pv / 2))
    assert m[0] > m[1] > m[2] >= 0
    # the relative margin's minimum over the disk |x| <= 3n agrees with these
    assert xf.supersolution_margin(p, n)[0] <= m[2] / vnext.value_at((3 * n - 1, 0))


@pytest.mark.parametrize("kappa,beta", [(xf.KAPPA0, xf.BETA), (1.3e7, xf.BETA),
                                        (xf.KAPPA0, 1.3 * xf.BETA)])
@pytest.mark.parametrize("n", [8, 64, 256])
def test_closed_form_bump_step_matches_the_stencil(kappa, beta, n):
    # P of the tabulated bump, by the stencil, against `_bump_step`'s closed
    # form, wherever the stencil's value and v_{n+1} are normal doubles
    p, S = xf.SuperSolutionParams(kappa, beta), 3 * n
    stencil, _ = lat.stencil_step(xf.supersolution_field(p, n, radius=S + 1).values, 2, clamp=S)
    vnext = xf.supersolution_field(p, n + 1, radius=S)
    pv, log_ratio = xf._bump_step(p, n, vnext.sites())
    normal = (stencil > 1e-290) & (vnext.values > 1e-290)
    assert normal.sum() > 100  # n = 256: 22% of the box
    assert np.abs(pv[normal] / stencil[normal] - 1.0).max() <= 1e-12
    assert np.abs(log_ratio[normal] - np.log(stencil[normal] / vnext.values[normal])).max() <= 1e-12


def test_scaled_bump_still_fails_the_one_step_inequality():
    # beta x 1.3 makes the bump too narrow: its relative margin is negative at
    # every n, in the core (about -0.02 from n = 16 on), and `holds` says so
    p = xf.SuperSolutionParams(xf.KAPPA0, 1.3 * xf.BETA)
    assert xf.supersolution_margin(p, 8)[0] < -0.19
    rep = xf.verify_supersolution(p, range(16, 65))
    assert rep["holds"] is False
    assert -0.03 < rep["min_relative_margin"] < -0.015
    assert rep["argmin"]["x"][0] == 0
