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
    assert xf.survival_prob(B, 0) == 1.0
    assert xf.survival_prob(B, 1) == 0.5
    assert xf.survival_prob(B, 2) == pytest.approx(3 / 8, abs=1e-15)


def test_survival_monotone_and_asymptotic():
    s = xf.survival_sequence(B, 4096)
    assert np.all(np.diff(s) < 0)
    assert 1.85 <= 4096 * s[4096] <= 2.0


def test_survival_general_families():
    g = geometric(2)
    # sigma2 = 2: n*s_n -> 2/sigma2 = 1
    assert 0.92 <= 2048 * xf.survival_prob(g, 2048) <= 1.0
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
    u = xf.hitting_field(g, 6, 2, method="pgf")
    # against a per-site truncated-pmf oracle
    pf = xf.pmf_oracle(g, 6, 2, degree=96)
    assert np.abs(u.unfolded() - pf.hitting_values()).max() <= 1e-9
    with pytest.raises(ValueError):
        xf.hitting_field(g, 3, 2, method="kpp")


def test_pgf_route_reports_clamped_tail():
    # the same law on both routes: the pgf route must count the mass of
    # 1 - h that the clamp drops, as the kpp route counts that of u
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
    bank = xf.mgf_sweep(B, 64, 0.05, 3, clamp=lat.clamp_radius(64, 3, 1e-12))
    sums = np.array([f.total() for f in bank])
    assert np.all(np.diff(sums) >= -1e-15)
    assert abs(sums[64] / sums[48] - 1.0) <= 0.01


def test_dominating_field_basics():
    th = 0.3
    h1 = xf.dominating_field(B, 1, th, 2)
    g1 = xf.mgf_field(B, 1, th, 2)
    assert np.array_equal(h1.values, g1.values)
    for n in (2, 8, 24):
        h = xf.dominating_field(B, n, th, 2)  # closed-form cross-check inside
        g = xf.mgf_field(B, n, th, 2)
        assert np.all(h.values >= g.values - 1e-15)
    h0 = xf.dominating_field(B, 6, 0.0, 2)
    assert np.abs(h0.values).max() == 0.0


@pytest.mark.parametrize("field,killed", [(xf.mgf_field, 0.001376145281257048),
                                          (xf.dominating_field, 0.0014322270253319203)])
def test_clamped_mgf_and_dominating_fields_report_killed_mass(field, killed):
    clamped = field(B, 12, 0.05, 2, clamp=5)
    assert clamped.tail_bound == pytest.approx(killed, rel=1e-9)
    exact = field(B, 12, 0.05, 2)
    for clamp in (12, 13):  # a clamp the box never reaches kills nothing
        wide = field(B, 12, 0.05, 2, clamp=clamp)
        assert wide.tail_bound == 0.0 and np.array_equal(wide.values, exact.values)
    assert np.all(clamped.values <= exact.values_at(clamped.sites()))  # the clamp only kills mass


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
    from brwlab.spine import return_probs
    _, sums = xf.second_moment_sweep(B, 12, 2)
    p0 = return_probs(24, 2)
    rhs = 1.0 + np.cumsum(np.concatenate(([0.0], p0[2:25:2])))
    assert np.abs(sums - rhs).max() <= 1e-10


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


def test_comparison_with_shifted_bump():
    n0 = xf.find_supersolution_start(xf.KAPPA0)
    n1 = xf.comparison_shift(xf.KAPPA0, n_min=n0)
    assert n1 * math.log(n1) >= xf.KAPPA0 > (n1 - 1) * math.log(n1 - 1)


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
    # the margin's minimum over the disk |x| <= 3n agrees with these closed forms
    assert xf.supersolution_margin(p, n)[0] <= m[2]
