import functools
import math
import tracemalloc

import numpy as np
import pytest

from brwlab import forward as fw
from brwlab import lattice as lat
from brwlab import spine as sp
from brwlab.lattice import clamp_schedule, sample_srw_batch, sites_in_ball, sweep, transition_field
from brwlab.offspring import binary
from brwlab.rngstreams import substream
from brwlab.stats import chi_square

B = binary()
RETURN_COEF_2D = 5.0 / (4.0 * math.pi)  # n * P_n(0) -> 5/(4*pi) in d = 2


def takes_tree(reps, n, ell, d):
    """The route `attached_walks` picks for a binary batch of this shape."""
    return fw._takes_tree(reps, n, d, fw._tree_clamp(n - 1, d, ell))


def test_exact_mean_gamma_first_term_and_monotone():
    p4 = transition_field(4, 2).value_at((0, 0))
    assert sp.exact_mean_gamma(2)[-1] == pytest.approx(p4, abs=1e-12)
    vals = sp.exact_mean_gamma(64)
    assert np.all(np.diff(vals[2:]) > 0)
    assert list(sp.exact_mean_gamma(1)) == [0.0, 0.0] and vals[1] == 0.0


def test_gamma_growth_rate_approaches_half_return_coefficient():
    gamma = sp.exact_mean_gamma(256)
    r = (gamma[256] - gamma[128]) / math.log(2)
    assert abs(r - RETURN_COEF_2D / 2) < 0.01


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
    split = sp.gamma_split(out)
    assert out["Tstar"].min() >= 1
    assert np.all(split["Gamma"] >= 0)
    assert split["clamp_misses"].sum() == 0


def test_typical_mean_identity_fast():
    rng = substream(22, "spine")
    n, reps = 64, 4000
    out = sp.spine_typical_batch(n, reps, rng)
    t = out["Tstar"].astype(np.float64)
    exact = 1.0 + 0.2 + sp.exact_mean_gamma(n)[n]
    se = t.std(ddof=1) / math.sqrt(reps)
    assert abs(t.mean() - exact) <= 3 * se
    # Gamma and Delta components
    split = sp.gamma_split(out)
    g = split["Gamma"]
    se_g = g.std(ddof=1) / math.sqrt(reps)
    assert abs(g.mean() - sp.exact_mean_gamma(n)[n]) <= 3 * se_g
    dlt = split["Delta"]
    se_d = dlt.std(ddof=1) / math.sqrt(reps)
    assert abs(dlt.mean()) <= 3 * se_d


def test_typical_batch_single_draw():
    rng = substream(23, "spine")
    with pytest.raises(ValueError):
        sp.spine_typical_batch(1, 10, rng)
    with pytest.raises(ValueError, match="packing range"):  # before any draw
        sp.spine_typical_batch(2**14 + 1, 1, rng)
    out = sp.spine_typical_batch(8, 1, rng, 2)
    split = sp.gamma_split(out)
    tstar, b0 = int(out["Tstar"][0]), bool(out["B0"][0])
    gamma, delta = float(split["Gamma"][0]), float(split["Delta"][0])
    assert tstar >= 1 and gamma >= 0.0
    assert tstar - 1 - int(b0) == pytest.approx(gamma + delta)


def test_attached_walks_have_their_ages():
    # X_{j-1} = U^{j-1}_{j-1}(S_j + xi_{j-1}) - P_j(S_j) has mean 0 only if
    # walk j ran exactly j-1 generations; one generation more or less shifts it
    rng = substream(37, "spine")
    n, reps = 16, 20_000
    out = sp.gamma_split(sp.spine_typical_batch(n, reps, rng, keep_increments=(2, 3, n)))
    for j in (2, 3, n):
        x = out["increments"][j]
        assert abs(x.mean()) <= 4 * x.std(ddof=1) / math.sqrt(reps), j


def test_construction_runs_without_the_gamma_sweep(monkeypatch):
    # T**, W and the vacancy need no field sweep; only gamma_split runs one
    def never(*args, **kwargs):
        raise AssertionError("the Gamma sweep ran")

    monkeypatch.setattr(sp, "sweep", never)
    out = sp.spine_typical_batch(16, 50, substream(41, "spine"), ell=2, keep_increments=(2,))
    assert set(out) == {"Tstar", "B0", "W", "occupied", "S", "kept"}
    assert out["S"].shape == (50, 17, 2) and set(out["kept"]) == {2}
    with pytest.raises(AssertionError, match="Gamma sweep"):
        sp.gamma_split(out)


@pytest.mark.parametrize("route", ["staggered", "tree"])
def test_tstar_read_off_a_ball_batch(route):
    # T** is the count at offset 0 of the batch at any radius: its mean stays
    # 1 + 1/5 + E Gamma_n, and no replicate has fewer particles in the ball
    n, ell = (16, 3) if route == "staggered" else (64, 3)
    batches, reps = (200, 10) if route == "staggered" else (1, 3000)
    assert takes_tree(reps, n, ell, 2) == (route == "tree")
    rng = substream(42, "spine")
    outs = [sp.spine_typical_batch(n, reps, rng, ell=ell) for _ in range(batches)]
    t = np.concatenate([o["Tstar"] for o in outs]).astype(np.float64)
    assert all(np.all(o["W"] >= o["Tstar"]) for o in outs)
    exact = 1.0 + 1.0 / 5.0 + sp.exact_mean_gamma(n)[n]
    assert abs(t.mean() - exact) <= 4 * t.std(ddof=1) / math.sqrt(len(t))


@pytest.mark.parametrize("d", [2, 3])
def test_b0_is_bernoulli_one_over_2d_plus_1(d):
    # B_0 = 1{S_1 + xi_0 = 0}, the age-0 column of the reversed construction
    rng = substream(40, "spine")
    reps, p = 40_000, 1.0 / (2 * d + 1)
    b0 = sp.spine_typical_batch(2, reps, rng, d=d)["B0"].astype(np.float64)
    assert abs(b0.mean() - p) <= 4 * math.sqrt(p * (1 - p) / reps)


def test_d3_batch_beyond_the_tag_range_takes_the_tree():
    # 2**17 + 10 replicates of T**_2 (ages 0 and 1 at S_{i+1} + xi_i) exceed
    # the d = 3 tag range of one particle array; they run as one tree batch
    rng = substream(39, "spine")
    n, reps = 2, 2**17 + 10
    assert reps * n >= fw._max_tags(3) and takes_tree(reps, n, 0, 3)
    t = sp.spine_typical_batch(n, reps, rng, d=3)["Tstar"].astype(np.float64)
    exact = 1.0 + 1.0 / 7.0 + sp.exact_mean_gamma(n, 3)[n]
    assert abs(t.mean() - exact) <= 4 * t.std(ddof=1) / math.sqrt(reps)


def test_tree_batch_takes_one_reversed_pass(monkeypatch):
    # 10,000 replicates of 64 walks: one reversed hitting stream, a forward
    # sweep to the checkpoints and one recomputed block after each, at most
    # 2 (n - 1) stencil steps whatever the batch size
    n, reps = 64, 10_000
    assert takes_tree(reps, n, 0, 2)
    steps = []
    real = lat.stencil_step
    monkeypatch.setattr(lat, "stencil_step", lambda *a, **k: steps.append(1) or real(*a, **k))
    out = sp.spine_typical_batch(n, reps, substream(43, "spine"))
    assert out["Tstar"].shape == (reps,)
    assert 0 < len(steps) <= 2 * (n - 1)


def test_tree_batch_traced_peak_is_bounded():
    # int16 spines and query sites (2.6 MB each here) and row-blocked draws
    tracemalloc.start()
    try:
        sp.spine_typical_batch(64, 10_000, substream(44, "spine"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24


def _count_steps(monkeypatch) -> list:
    steps = []
    real = lat.stencil_step
    monkeypatch.setattr(lat, "stencil_step", lambda *a, **k: steps.append(1) or real(*a, **k))
    return steps


def _matrix_split(batch):
    """`gamma_split` written out with the whole (reps, n + 1) matrix of P_i(S_i)."""
    S = batch["S"]
    reps, n = S.shape[0], S.shape[1] - 1
    vals = np.zeros((reps, n + 1))
    misses = np.zeros(reps, dtype=np.int64)
    for f in sweep(n, 2, clamp=clamp_schedule(n, 2, 1e-14)):
        if f.step:
            vals[:, f.step] = f.values_at(S[:, f.step])
            misses += ~f.in_box(S[:, f.step])
    return vals[:, 2:].sum(axis=1), misses, {j: u - vals[:, j] for j, u in batch["kept"].items()}


def test_gamma_split_matches_the_matrix_form(monkeypatch):
    n, reps = 128, 3000
    batch = sp.spine_typical_batch(n, reps, substream(45, "spine"), keep_increments=(2, 17, n))
    batch["S"][:7, 100] = 300  # outside the clamped box: seven clamp misses
    assert clamp_schedule(n, 2, 1e-14).max() < 300
    steps = _count_steps(monkeypatch)
    out = sp.gamma_split(batch)
    assert len(steps) == n
    gamma, misses, increments = _matrix_split(batch)
    assert np.all(np.abs(out["Gamma"] - gamma) <= 1e-14 * gamma)
    assert np.array_equal(out["clamp_misses"], misses) and misses.sum() == 7
    assert out["increments"].keys() == increments.keys()
    assert all(np.array_equal(out["increments"][j], x) for j, x in increments.items())
    assert np.array_equal(out["Delta"], batch["Tstar"] - 1 - batch["B0"] - out["Gamma"])


def test_gamma_split_traced_peak_is_bounded(monkeypatch):
    # summed along the sweep: no (reps, n + 1) float matrix (157.6 MiB here)
    n, reps = 1024, 20_000
    S = sample_srw_batch(n, 2, reps, substream(46, "spine"))
    steps = _count_steps(monkeypatch)
    tracemalloc.start()
    try:
        gamma = _gamma(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(steps) == n and gamma.shape == (reps,)
    assert peak < 8 * 2**20


def test_exact_mean_gamma_takes_one_sweep_and_keeps_no_state(monkeypatch):
    # E Gamma_m for every m <= n off one sweep of n steps, on every call
    n = 64
    before = dict(vars(sp))
    steps = _count_steps(monkeypatch)
    for _ in range(2):
        steps.clear()
        gamma = sp.exact_mean_gamma(n)
        assert len(steps) == n
    assert vars(sp).keys() == before.keys()
    assert all(vars(sp)[k] is v for k, v in before.items())
    assert not [k for k, v in vars(sp).items()
                if not k.startswith("__") and isinstance(v, (dict, list, set))]
    # against P_{2i}(0) read at the origin of a sweep of 2n steps
    p0 = [p.values[0] for p in sweep(2 * n, 2, clamp=clamp_schedule(2 * n, 2, 1e-14))]
    want = [sum(p0[4:2 * m + 1:2]) for m in range(n + 1)]
    assert np.allclose(gamma, want, rtol=1e-14, atol=0.0)


def test_exact_mean_gamma_work_at_the_c09_horizon():
    # C09's E Gamma_m for m <= 1024: one clamped sweep of 1024 steps
    lat.work.steps = lat.work.cells = 0
    sp.exact_mean_gamma(1024)
    assert lat.work.steps == 1024
    assert 7.0e6 < lat.work.cells < 7.5e6  # a sweep of 2n steps stores 28.8M


def test_centered_increments_uncorrelated():
    rng = substream(24, "spine")
    n, reps = 96, 5000
    pairs = [(8, 40), (12, 80), (30, 60), (16, 17), (50, 90)]
    keep = sorted({i for p in pairs for i in p})
    inc = sp.gamma_split(sp.spine_typical_batch(n, reps, rng,
                                                keep_increments=tuple(keep)))["increments"]
    bound = 4.0 / math.sqrt(reps)
    for i, j in pairs:
        xi, xj = inc[i], inc[j]
        rho = float(np.corrcoef(xi, xj)[0, 1])
        assert abs(rho) < bound, (i, j, rho)


def _gamma(S):
    """Gamma_n along the spines S alone: `gamma_split` of a batch with no
    attached walks."""
    return sp.gamma_split({"S": S, "Tstar": 1, "B0": 0, "kept": {}})["Gamma"]


@functools.cache  # two tests read the same draws: (1024, 40_000, 27) and (64, 40_000, 25)
def _gamma_var(n, reps, seed):
    rng = substream(seed, "spine")
    g = _gamma(sample_srw_batch(n, 2, reps, rng))
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
    mc = _gamma(sample_srw_batch(n, 2, 60_000, rng)).var(ddof=1)
    assert abs(mc - exact) <= 4 * mc * math.sqrt(2.0 / 60_000)


@pytest.mark.xfail(strict=True, reason=(
    "the centered-part variance is still ~2.4x its n->infinity limit A^2/8 at "
    "n=1024 (exact small-n evaluation confirms the sampler; the [0.5,2] band "
    "around the limit underestimates the finite-size level)"))
def test_delta_variance_band_at_1024_as_stated():
    rng = substream(27, "spine")
    out = sp.gamma_split(sp.spine_typical_batch(1024, 1500, rng))
    v = out["Delta"].var(ddof=1) / math.log(1024) ** 2
    target = RETURN_COEF_2D**2 / 8
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
    out = sp.gamma_split(sp.spine_typical_batch(n, 50_000, rng))
    mc = out["Delta"].var(ddof=1)
    # heavy-tailed variance estimator: allow 5 rough standard errors
    tol = 5 * mc * math.sqrt(2.0 / 50_000) + 0.02 * exact
    assert abs(mc - exact) <= tol


def test_delta_variance_decreasing_toward_limit():
    rng = substream(29, "spine")
    v = {}
    for n, reps in ((64, 8000), (1024, 1200)):
        out = sp.gamma_split(sp.spine_typical_batch(n, reps, rng))
        v[n] = out["Delta"].var(ddof=1) / math.log(n) ** 2
    assert v[1024] < v[64]
    assert v[1024] > RETURN_COEF_2D**2 / 8  # approaches the limit from above


def test_ball_count_floor_and_saturation():
    rng = substream(30, "spine-ball")
    w = sp.spine_typical_batch(12, 400, rng, ell=3)["W"]
    assert w.min() >= 2
    # ell covering everything recovers the size-biased population:
    # E W = E_P Z_n^2 = 1 + n * sigma^2
    n = 6
    w_all = sp.spine_typical_batch(n, 30_000, rng, ell=2 * n + 1)["W"]
    se = w_all.std(ddof=1) / math.sqrt(len(w_all))
    assert abs(w_all.mean() - (1 + n)) <= 3 * se
    with pytest.raises(ValueError):
        sp.spine_typical_batch(8, 10, rng, ell=-0.5)


@pytest.mark.parametrize("d", [2, 3])
def test_radius_past_every_offset_reads_the_same_batch(d):
    # every offset lies within 2n sqrt(d) of its query site, so a larger
    # radius reads the batch at that radius; 1e300 once overflowed the tree's
    # clamp schedule
    n, reps = 6, 40
    ref = sp.spine_typical_batch(n, reps, substream(37, "spine-ball"), d, ell=2 * n * math.sqrt(d))
    assert np.all(ref["W"] >= ref["Tstar"])
    for ell in (1e18, 1e300, math.inf):
        out = sp.spine_typical_batch(n, reps, substream(37, "spine-ball"), d, ell=ell)
        for key in ("Tstar", "W", "occupied", "S"):
            assert np.array_equal(out[key], ref[key]), (ell, key)


def test_ball_count_mean_band_and_exact_window_sums():
    # exact E W = 2 + sum_{i=1}^{n-1} sum_{|x|<=ell} P_{2i+2}(x); the mean over
    # pi*ell^2*log n must sit in [A/4, A]
    n, ell = 512, 7
    exact = _exact_ball_mean(n, ell, eps=1e-13)
    norm = math.pi * ell**2 * math.log(n)
    band = (RETURN_COEF_2D / 4, RETURN_COEF_2D)
    assert band[0] <= exact / norm <= band[1]
    rng = substream(31, "spine-ball")
    w = sp.spine_typical_batch(n, 400, rng, ell=ell)["W"]
    se = w.std(ddof=1) / math.sqrt(len(w))
    assert abs(w.mean() - exact) <= 3 * se


def _exact_ball_mean(n: int, ell: float, eps: float = 1e-14) -> float:
    """E W_n(ell) = 1 + sum_{i<n} sum_{|y|<=ell} P_{2i+2}(y): walk i, of age
    i, is read at S_{i+1} + xi_i, two independent walks of i + 1 steps."""
    offsets = sites_in_ball(2, ell)
    return 1.0 + sum(float(p.values_at(offsets).sum())
                     for p in sweep(2 * n, 2, clamp=clamp_schedule(2 * n, 2, eps))
                     if p.step >= 2 and p.step % 2 == 0)


@pytest.mark.parametrize("ell", [1, 1.5])
def test_reversed_ball_count_small_radius(ell):
    # below ell = 2 the tip's sibling can fall outside the ball
    rng = substream(38, "spine-ball")
    n, reps = 16, 40_000
    w = sp.spine_typical_batch(n, reps, rng, ell=ell)["W"]
    se = w.std(ddof=1) / math.sqrt(reps)
    assert abs(w.mean() - _exact_ball_mean(n, ell)) <= 4 * se


def _free_run_ball_occupancy(n: int, ell: float, reps: int, rng) -> np.ndarray:
    """Per free run: sum over the particles of generation n of the occupied
    sites in the ball of radius ell around each particle."""
    keys = fw.evolve_particles(fw._origin_keys(np.arange(reps), 2), n, B, 2, rng)
    # encoded site offsets add to keys without carries at these small reaches
    offsets = fw.encode_sites(sites_in_ball(2, ell), 2) - fw.encode_sites(np.zeros((1, 2)), 2)
    hits = np.isin(keys[:, None] + offsets, np.unique(keys)).sum(axis=1)
    return np.bincount(keys >> fw._rep_shift(2), weights=hits, minlength=reps)


@pytest.mark.parametrize("n,ell,seed", [(3, 1, 0), (4, 1.5, 1), (6, 2, 2)])
def test_vacancy_identity_against_free_runs(n, ell, seed):
    # E_H[occupied sites of B(tip; ell)] = E_P[sum over particles of the occupied
    # sites of B(particle; ell)], since E_P Z_n = 1
    reps = 200_000
    occ = sp.spine_typical_batch(n, reps, substream(seed, "spine-ball", rep=39),
                                 ell=ell)["occupied"]
    free = _free_run_ball_occupancy(n, ell, reps, substream(seed, "simulate", rep=39))
    se = math.sqrt(occ.var(ddof=1) / reps + free.var(ddof=1) / reps)
    assert abs(occ.mean() - free.mean()) <= 4 * se


def test_ball_occupancy_bounds():
    rng = substream(32, "spine-ball")
    n, ell = 64, 4
    out = sp.spine_typical_batch(n, 3000, rng, ell=ell)
    # the tip occupies its site; distinct sites fit the ball and the particles
    assert out["occupied"].min() >= 1
    assert np.all(out["occupied"] <= len(sites_in_ball(2, ell)))
    assert np.all(out["occupied"] <= out["W"])


def _occupied_unique_rows(walk, rel, n, reps):
    """The occupied sites per replicate by np.unique over (replicate, offset)
    rows, each replicate's tip at offset 0, as a reference."""
    tips = np.zeros((reps, rel.shape[1] + 1), dtype=np.int64)
    tips[:, 0] = np.arange(reps)
    pairs = np.unique(np.concatenate((tips, np.column_stack((walk // n, rel)))), axis=0)
    return np.bincount(pairs[:, 0], minlength=reps)


def _recording_attached_walks(monkeypatch, fake=None):
    """Record what `spine_typical_batch` reads off `forward.attached_walks`
    (or hand it `fake`'s output instead)."""
    seen, real = [], fw.attached_walks
    monkeypatch.setattr(fw, "attached_walks",
                        lambda *args: seen.append((fake or real)(*args)) or seen[-1])
    return seen


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("ell", [0, 3])
@pytest.mark.parametrize("route", ["staggered", "tree"])
def test_occupied_count_matches_the_unique_rows_reference(monkeypatch, d, ell, route):
    n, reps = (16, 10) if route == "staggered" else (48, 400)
    assert takes_tree(reps, n, ell, d) == (route == "tree")
    seen = _recording_attached_walks(monkeypatch)
    out = sp.spine_typical_batch(n, reps, substream(45, "spine"), d=d, ell=ell)
    (walk, rel), = seen
    assert np.array_equal(out["occupied"], _occupied_unique_rows(walk, rel, n, reps))
    assert out["occupied"].max() > 1 or ell == 0


def test_occupied_count_key_holds_at_the_widest_offsets(monkeypatch):
    # a walk of age i ends within i of the origin and is read at a site within
    # i + 2 of it, so offsets reach 2n per axis at any ell; here n = 2**14 in
    # d = 3, with offsets at opposite corners of that box
    n, reps, d = fw.COORD_OFF, 3, 3
    corners = np.array([[2 * n, -2 * n, 2 * n], [-2 * n, 2 * n, -2 * n], [0, 0, 0],
                        [2 * n, -2 * n, 2 * n], [1, 0, -1]], dtype=np.int64)
    walk = np.array([0, 0, 1, 2 * n + 5, 2 * n + 7], dtype=np.int64)
    seen = _recording_attached_walks(monkeypatch, lambda *args: (walk, corners))
    out = sp.spine_typical_batch(n, reps, substream(46, "spine"), d=d, ell=1e9)
    assert len(seen) == 1
    assert out["occupied"].tolist() == [3, 1, 3]
    assert np.array_equal(out["occupied"], _occupied_unique_rows(walk, corners, n, reps))


def test_ball_batch_memory_does_not_scale_with_the_ball():
    # (2 ell + 1)^2 int64 cells at ell = 1e5 would be 3.2e11 bytes
    rng = substream(35, "spine-ball")
    tracemalloc.start()
    try:
        out = sp.spine_typical_batch(8, 1, rng, ell=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 <= out["occupied"][0] <= out["W"][0]
    assert peak < 2**22


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
    # n = 1: the spine and its sibling of age 0, with no draw
    assert list(sp.sizebias_population_batch(1, 3, rng)) == [2, 2, 2]


@pytest.mark.parametrize("n", [2, 3])
def test_sizebias_check_holds_under_32_bytes_per_replicate(n):
    # each side is reduced and dropped before the next array is drawn, so the
    # peak is one caller array plus a population batch's first generation
    reps = 250_000
    rng = substream(36, "sizebias")
    tracemalloc.start()
    try:
        sp.sizebias_check(lambda z: z.astype(np.float64), n, reps, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * reps


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
