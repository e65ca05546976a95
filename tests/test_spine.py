import math

import numpy as np
import pytest

from brwlab import forward as fw
from brwlab import spine as sp
from brwlab.lattice import sample_srw_batch, transition_field
from brwlab.offspring import binary
from brwlab.rngstreams import substream
from brwlab.stats import chi_square

B = binary()


def test_exact_mean_gamma_first_term_and_monotone():
    p4 = transition_field(4, 2).value_at((0, 0))
    assert sp.exact_mean_gamma(2) == pytest.approx(p4, abs=1e-12)
    vals = [sp.exact_mean_gamma(n) for n in (2, 4, 8, 16, 64)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert sp.exact_mean_gamma(1) == 0.0


def test_gamma_growth_rate_approaches_half_return_coefficient():
    r = (sp.exact_mean_gamma(256) - sp.exact_mean_gamma(128)) / math.log(2)
    assert abs(r - sp.RETURN_COEF_2D / 2) < 0.01


def test_spine_increments_uniform():
    rng = substream(20, "spine")
    paths = sample_srw_batch(5, 2, 200_000, rng)
    inc = paths[:, 1:, :] - paths[:, :-1, :]
    flat = inc.reshape(-1, 2)
    labels = (flat[:, 0] + 1) * 3 + (flat[:, 1] + 1)
    counts = np.bincount(labels, minlength=9).astype(np.float64)
    probs = np.zeros(9)
    for o in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        probs[(o[0] + 1) * 3 + o[1] + 1] = 0.2
    keep = probs > 0
    assert counts[~keep].sum() == 0
    chi = chi_square(counts[keep], probs[keep])
    assert chi["p_value"] > 1e-3


def test_typical_count_always_at_least_one():
    rng = substream(21, "spine")
    out = sp.spine_typical_batch(16, 3000, rng)
    assert out["Tstar"].min() >= 1
    assert np.all(out["Gamma"] >= 0)
    assert out["clamp_misses"].sum() == 0


def test_typical_mean_identity_fast():
    rng = substream(22, "spine")
    n, reps = 64, 4000
    out = sp.spine_typical_batch(n, reps, rng)
    t = out["Tstar"].astype(np.float64)
    exact = 1.0 + 0.2 + sp.exact_mean_gamma(n)
    se = t.std(ddof=1) / math.sqrt(reps)
    assert abs(t.mean() - exact) <= 3 * se
    # Gamma and Delta components
    g = out["Gamma"]
    se_g = g.std(ddof=1) / math.sqrt(reps)
    assert abs(g.mean() - sp.exact_mean_gamma(n)) <= 3 * se_g
    dlt = out["Delta"]
    se_d = dlt.std(ddof=1) / math.sqrt(reps)
    assert abs(dlt.mean()) <= 3 * se_d


def test_typical_batch_single_draw():
    rng = substream(23, "spine")
    with pytest.raises(ValueError):
        sp.spine_typical_batch(1, 10, rng)
    out = sp.spine_typical_batch(8, 1, rng, 2)
    tstar, b0 = int(out["Tstar"][0]), bool(out["B0"][0])
    gamma, delta = float(out["Gamma"][0]), float(out["Delta"][0])
    assert tstar >= 1 and gamma >= 0.0
    assert tstar - 1 - int(b0) == pytest.approx(gamma + delta)


def test_attached_walks_have_their_ages():
    # X_{j-1} = U^{j-1}_{j-1}(S_j + xi_{j-1}) - P_j(S_j) has mean 0 only if
    # walk j ran exactly j-1 generations; one generation more or less shifts it
    rng = substream(37, "spine")
    n, reps = 16, 20_000
    out = sp.spine_typical_batch(n, reps, rng, keep_increments=(2, 3, n))
    for j in (2, 3, n):
        x = out["increments"][j]
        assert abs(x.mean()) <= 4 * x.std(ddof=1) / math.sqrt(reps), j


@pytest.mark.parametrize("d", [2, 3])
def test_b0_is_bernoulli_one_over_2d_plus_1(d):
    # B_0 = 1{S_1 + xi_0 = 0}, the age-0 column of the reversed construction
    rng = substream(40, "spine")
    reps, p = 40_000, 1.0 / (2 * d + 1)
    b0 = sp.spine_typical_batch(2, reps, rng, d=d)["B0"].astype(np.float64)
    assert abs(b0.mean() - p) <= 4 * math.sqrt(p * (1 - p) / reps)


def test_d3_batch_beyond_one_key_range_is_chunked():
    # 2**17 replicates exceed the d = 3 tag range of one particle array; the
    # staggered engine runs T**_2 (ages 0 and 1 at S_{i+1} + xi_i) per chunk
    rng = substream(39, "spine")
    n, reps = 2, 2**17 + 10
    chunks = fw.walk_chunks(np.broadcast_to(np.arange(n), (reps, n)), 0, B, 3)
    assert len(chunks) > 1 and chunks[-1][1] == reps
    assert max(hi - lo for lo, hi in chunks) * n < fw._max_tags(3)
    t = np.ones(reps)
    for lo, hi in chunks:
        S, xi = sp._spine_steps(n, 3, hi - lo, rng)
        walk, _ = fw._staggered_walks(np.tile(np.arange(n), hi - lo),
                                      (S[:, 1:] + xi).reshape(-1, 3), 0, B, 3, rng)
        t[lo:hi] += np.bincount(walk // n, minlength=hi - lo)
    exact = 1.0 + 1.0 / 7.0 + sp.exact_mean_gamma(n, 3)
    assert abs(t.mean() - exact) <= 4 * t.std(ddof=1) / math.sqrt(reps)


def test_centered_increments_uncorrelated():
    rng = substream(24, "spine")
    n, reps = 96, 5000
    pairs = [(8, 40), (12, 80), (30, 60), (16, 17), (50, 90)]
    keep = sorted({i for p in pairs for i in p})
    out = sp.spine_typical_batch(n, reps, rng, keep_increments=tuple(keep))
    inc = out["increments"]
    bound = 4.0 / math.sqrt(reps)
    for i, j in pairs:
        xi, xj = inc[i], inc[j]
        rho = float(np.corrcoef(xi, xj)[0, 1])
        assert abs(rho) < bound, (i, j, rho)


def _gamma_var(n, reps, seed):
    rng = substream(seed, "spine")
    S = sample_srw_batch(n, 2, reps, rng)
    vals, _ = sp._field_values_at(n, 2, S)
    g = vals[:, 2:].sum(axis=1)
    return g.var(ddof=1) / math.log(n) ** 2


def test_gamma_variance_ratio_decays():
    v64 = _gamma_var(64, 40_000, 25)
    v256 = _gamma_var(256, 40_000, 26)
    v1024 = _gamma_var(1024, 40_000, 27)
    assert v1024 < v256 < v64


@pytest.mark.xfail(strict=True, reason=(
    "var(Gamma_n)/log^2 n does vanish, but only logarithmically: the exact "
    "values give a 64->1024 ratio of ~0.75, not below one half"))
def test_gamma_variance_halves_by_1024_as_stated():
    assert _gamma_var(1024, 40_000, 27) < 0.5 * _gamma_var(64, 40_000, 25)


def test_gamma_variance_matches_exact_evaluation():
    # oracle: E Gamma^2 = sum_i <P_i^2, P_i> + 2 sum_{i<j} <P_i^2, P_{2j-i}>
    from brwlab.lattice import Field, stencil_step

    n = 32
    vals = Field.delta(2).values
    fields = {0: np.ones((1, 1))}  # full boxes
    for m in range(1, 2 * n + 1):
        vals, _ = stencil_step(vals, 2)
        fields[m] = Field(vals, 2).unfolded()

    def dot(a, b):
        ra, rb = (a.shape[0] - 1) // 2, (b.shape[0] - 1) // 2
        if ra > rb:
            a, b, ra, rb = b, a, rb, ra
        off = rb - ra
        return float((a * b[off:off + 2 * ra + 1, off:off + 2 * ra + 1]).sum())

    mean = sum(float(fields[2 * i][fields[2 * i].shape[0] // 2,
                                   fields[2 * i].shape[0] // 2])
               for i in range(2, n + 1))
    second = 0.0
    for i in range(2, n + 1):
        second += float((fields[i] ** 3).sum())
        for j in range(i + 1, n + 1):
            second += 2 * dot(fields[i] ** 2, fields[2 * j - i])
    exact = second - mean**2
    rng = substream(36, "spine")
    S = sample_srw_batch(n, 2, 60_000, rng)
    vals, _ = sp._field_values_at(n, 2, S)
    g = vals[:, 2:].sum(axis=1)
    mc = g.var(ddof=1)
    assert abs(mc - exact) <= 4 * mc * math.sqrt(2.0 / 60_000)


@pytest.mark.xfail(strict=True, reason=(
    "the centered-part variance is still ~2.4x its n->infinity limit A^2/8 at "
    "n=1024 (exact small-n evaluation confirms the sampler; the [0.5,2] band "
    "around the limit underestimates the finite-size level)"))
def test_delta_variance_band_at_1024_as_stated():
    rng = substream(27, "spine")
    out = sp.spine_typical_batch(1024, 1500, rng)
    v = out["Delta"].var(ddof=1) / math.log(1024) ** 2
    target = sp.RETURN_COEF_2D**2 / 8
    assert 0.5 * target <= v <= 2.0 * target


def test_delta_variance_matches_exact_evaluation():
    # independent oracle: var(Delta_n) = sum_i [P_{2i}(0) - sum_z P_i(z)^3
    #                                    + sum_{j<i} <P_j^2, P_{2i-j}>]
    from brwlab.lattice import Field, stencil_step

    n = 24
    vals = Field.delta(2).values
    fields = {0: np.ones((1, 1))}  # full boxes
    for m in range(1, 2 * n + 1):
        vals, _ = stencil_step(vals, 2)
        fields[m] = Field(vals, 2).unfolded()

    def dot(a, b):
        ra, rb = (a.shape[0] - 1) // 2, (b.shape[0] - 1) // 2
        if ra > rb:
            a, b, ra, rb = b, a, rb, ra
        off = rb - ra
        return float((a * b[off:off + 2 * ra + 1, off:off + 2 * ra + 1]).sum())

    exact = 0.0
    for i in range(2, n + 1):
        c = fields[2 * i].shape[0] // 2
        t = float(fields[2 * i][c, c]) - float((fields[i] ** 3).sum())
        for j in range(1, i):
            t += dot(fields[j] ** 2, fields[2 * i - j])
        exact += t
    rng = substream(28, "spine")
    out = sp.spine_typical_batch(n, 50_000, rng)
    mc = out["Delta"].var(ddof=1)
    # heavy-tailed variance estimator: allow 5 rough standard errors
    tol = 5 * mc * math.sqrt(2.0 / 50_000) + 0.02 * exact
    assert abs(mc - exact) <= tol


def test_delta_variance_decreasing_toward_limit():
    rng = substream(29, "spine")
    v = {}
    for n, reps in ((64, 8000), (1024, 1200)):
        out = sp.spine_typical_batch(n, reps, rng)
        v[n] = out["Delta"].var(ddof=1) / math.log(n) ** 2
    assert v[1024] < v[64]
    assert v[1024] > sp.RETURN_COEF_2D**2 / 8  # approaches the limit from above


def test_ball_count_floor_and_saturation():
    rng = substream(30, "spine-ball")
    w = sp.spine_ball_batch(12, 3, 400, rng)
    assert w.min() >= 2
    # ell covering everything recovers the size-biased population:
    # E W = E_P Z_n^2 = 1 + n * sigma^2
    n = 6
    w_all = sp.spine_ball_batch(n, 2 * n + 1, 30_000, rng)
    se = w_all.std(ddof=1) / math.sqrt(len(w_all))
    assert abs(w_all.mean() - (1 + n)) <= 3 * se
    with pytest.raises(ValueError):
        sp.spine_ball_batch(8, 0.5, 10, rng)


def test_ball_count_mean_band_and_exact_window_sums():
    # exact E W = 2 + sum_{i=1}^{n-1} sum_{|x|<=ell} P_{2i+2}(x); the mean over
    # pi*ell^2*log n must sit in [A/4, A]
    from brwlab.lattice import Field, clamp_radius, sites_in_ball, stencil_step

    n, ell = 512, 7
    offsets = sites_in_ball(2, ell)
    clamp = clamp_radius(2 * n + 2, 2, 1e-13)
    vals = Field.delta(2).values
    exact = 2.0
    for m in range(1, 2 * n + 1):
        vals, _ = stencil_step(vals, 2, clamp=clamp)
        if m >= 4 and m % 2 == 0:  # m = 2i+2 for i = 1..n-1
            exact += float(Field(vals, 2).values_at(offsets).sum())
    norm = math.pi * ell**2 * math.log(n)
    band = (sp.RETURN_COEF_2D / 4, sp.RETURN_COEF_2D)
    assert band[0] <= exact / norm <= band[1]
    rng = substream(31, "spine-ball")
    w = sp.spine_ball_batch(n, ell, 400, rng)
    se = w.std(ddof=1) / math.sqrt(len(w))
    assert abs(w.mean() - exact) <= 3 * se


@pytest.mark.parametrize("ell", [1, 1.5])
def test_reversed_ball_count_small_radius(ell):
    # below ell = 2 the tip's sibling can fall outside the ball
    rng = substream(38, "spine-ball")
    n, reps = 16, 40_000
    fwd = sp.spine_ball_forward_batch(n, ell, reps, rng)["particles"]
    rev = sp.spine_ball_batch(n, ell, reps, rng)
    se = math.sqrt(fwd.var(ddof=1) / reps + rev.var(ddof=1) / reps)
    assert abs(fwd.mean() - rev.mean()) <= 4 * se


def test_forward_ball_consistent_with_reversed_count():
    rng = substream(32, "spine-ball")
    n, ell, reps = 64, 4, 3000
    fwd = sp.spine_ball_forward_batch(n, ell, reps, rng)
    rev = sp.spine_ball_batch(n, ell, reps, rng)
    mf, mr = fwd["particles"].mean(), rev.astype(np.float64).mean()
    se = math.sqrt(fwd["particles"].var(ddof=1) / reps + rev.var(ddof=1) / reps)
    assert abs(mf - mr) <= 3 * se
    assert np.all(fwd["unoccupied"] < fwd["ball_sites"])  # tip occupies its site


def test_sizebias_trivial_and_hand_values():
    rng = substream(33, "sizebias")
    chk = sp.sizebias_check(lambda z: np.ones_like(z, dtype=np.float64), 4, 50_000, rng)
    assert chk["lhs"] == 1.0
    assert abs(chk["rhs"] - 1.0) <= 4 * chk["se"]
    # hand enumeration: Z_2 in {0,2,4} with P = (5/8, 1/4, 1/8) under P;
    # the spine law reweights by Z_2
    chk2 = sp.sizebias_check(lambda z: (z == 2).astype(np.float64), 2, 100_000, rng)
    assert abs(chk2["lhs"] - 0.5) <= 3 * math.sqrt(0.25 / 100_000)
    assert abs(chk2["rhs"] - 2 * 0.25) <= 4 * chk2["se"]
    assert abs(chk2["z_score"]) < 4


def test_typical_histogram_matches_weighted_multiplicities():
    # P_H(T_n = k) = E_P[k M_n(k)] since E_P Z_n = 1
    rng = substream(34, "sizebias")
    n, reps = 2, 120_000
    out = sp.spine_typical_batch(n, reps, rng)
    t = out["Tstar"]
    bs = fw.run_batch(B, n, 2, reps, substream(35, "sizebias"))
    for k in (1, 2, 3):
        lhs = (t == k).astype(np.float64)
        rhs = k * bs.M[:, k - 1].astype(np.float64)
        se = math.sqrt(lhs.var(ddof=1) / reps + rhs.var(ddof=1) / reps)
        assert abs(lhs.mean() - rhs.mean()) <= 4 * se, k
