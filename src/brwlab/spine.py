"""Size-biased sampling: spine constructions under dP_H/dP = Z_n.

Binary fission only.  The size-biased tree is a spine of distinguished
particles, each fissioning surely; the spare child at height j starts an
ordinary branching random walk.  Reversing time turns the count at the
typical site into

    T**_n = 1 + B_0 + sum_{j=2..n} U^{j-1}_{j-1}(S_j + xi_{j-1}),

with S a lazy walk, xi_j uniform neighbor steps, B_0 ~ Bernoulli(1/(2d+1))
and U^i independent unbiased branching random walks.  The sum splits into
Gamma_n = sum_{i=2..n} P_i(S_i) (a walk functional with exact mean
sum P_{2i}(0)) plus a centered part Delta_n with orthogonal increments.

The ball count within distance ell of the typical site has the analogous
representation  W_n = 1 + sum_{i=0..n-1} sum_{|x|<=ell} U^i_i(x + S_{i+1} + xi_i):
the 1 is the spine tip, and the age-0 walk U^0 (the tip's sibling, a single
particle at the origin) counts only when it lies in the ball, which is
always so for ell >= 2.  Vacancy statistics are sampled from the forward
(unreversed) construction, which realizes the exact joint occupancy law
around the tip.

Cost.  All attached walks of a construction run in one particle array of
the shared staggered-walk engine (`forward.staggered_walks`), so a replicate
chunk takes n-1 one-generation steps instead of a fresh run per spine height
(about n^2/2 steps); chunk sizes come from `forward.walk_chunks`.
"""

from __future__ import annotations

import math

import numpy as np

from . import forward as fw
from .lattice import clamp_radius, neighborhood, sample_srw_batch, sites_in_ball, sweep
from .offspring import binary

RETURN_COEF_2D = 5.0 / (4.0 * math.pi)  # n * P_n(0) -> 5/(4*pi) in d = 2

_BINARY = binary()
_return_cache: dict[int, np.ndarray] = {}


def return_probs(max_n: int, d: int = 2) -> np.ndarray:
    """P_m(0) for m = 0..max_n, one clamped sweep, cached per dimension."""
    cached = _return_cache.get(d)
    if cached is not None and len(cached) > max_n:
        return cached[: max_n + 1]
    clamp = clamp_radius(max(max_n, 2), d, 1e-14)
    out = np.array([f.values.flat[0] for f in sweep(max_n, d, clamp=clamp)])
    _return_cache[d] = out
    return out


def exact_mean_gamma(n: int, d: int = 2) -> float:
    """sum_{i=2}^{n} P_{2i}(0): the exact mean of Gamma_n (and of the attached
    single-site counts in the typical-site representation)."""
    if n < 2:
        return 0.0
    p0 = return_probs(2 * n, d)
    return float(p0[4 : 2 * n + 1 : 2].sum())


def _field_values_at(n: int, d: int, positions: np.ndarray, eps: float = 1e-14):
    """Sweep P_i for i = 1..n, reading each field at positions[:, i, :].

    Returns (vals[reps, n+1], misses per rep); sites outside the clamped box
    read as 0 and count as clamp misses.
    """
    reps = positions.shape[0]
    vals = np.zeros((reps, n + 1))
    misses = np.zeros(reps, dtype=np.int64)
    for f in sweep(n, d, clamp=clamp_radius(n, d, eps)):
        if f.step:
            vals[:, f.step] = f.values_at(positions[:, f.step, :])
            misses += ~f.in_box(positions[:, f.step, :])
    return vals, misses


def _spine_steps(n: int, d: int, reps: int, rng: np.random.Generator):
    """Spine positions S_0..S_n (reps, n+1, d) and sibling steps xi_0..xi_{n-1}."""
    S = sample_srw_batch(n, d, reps, rng)
    xi = neighborhood(d)[rng.integers(0, 2 * d + 1, size=(reps, n))]
    return S, xi


def spine_typical_batch(n: int, reps: int, rng: np.random.Generator, d: int = 2,
                        keep_increments: tuple[int, ...] = ()) -> dict:
    """Batched draws of (T**_n, Gamma_n, Delta_n) under the size-biased law.

    keep_increments: indices i for which the centered increments
    X_{i-1} = U^{i-1}_{i-1}(S_i + xi_{i-1}) - P_i(S_i) are returned
    (orthogonality diagnostics).
    """
    if n < 2:
        raise ValueError("the representation needs n >= 2")
    chunks = fw.walk_chunks(n, reps, d, n + 1)  # query sites S_j + xi_{j-1} reach n + 1
    origin = fw.encode_sites(np.zeros((1, d)), d)[0]
    keep = [j for j in keep_increments if 2 <= j <= n]
    # every chunk's spine, kept for one field sweep after the loop
    # (int16 holds it: walk_chunks bounds |S| <= n < 2**14)
    S_all = np.empty((reps, n + 1, d), dtype=np.int16)
    b0 = np.empty(reps, dtype=bool)
    u_sum = np.zeros(reps, dtype=np.int64)
    u_kept = {j: np.empty(reps, dtype=np.int64) for j in keep}
    for lo, hi in chunks:
        S, xi = _spine_steps(n, d, hi - lo, rng)
        b0[lo:hi] = rng.integers(0, 2 * d + 1, size=hi - lo) == 0
        S_all[lo:hi] = S
        # walk j = 2..n (tag r*(n+1) + j) has age j-1: it enters at step n-j
        tags = np.arange((hi - lo) * (n + 1), dtype=np.int64).reshape(hi - lo, n + 1)
        starts = [fw.tag_keys(tags[:, n - t], origin, d) if n - t >= 2
                  else np.empty(0, dtype=np.int64) for t in range(n)]
        keys = fw.staggered_walks(starts, _BINARY, d, rng)
        qsites = np.zeros((hi - lo, n + 1), dtype=np.int64)
        qsites[:, 2:] = fw.encode_sites(S[:, 2:, :] + xi[:, 1:, :], d).reshape(hi - lo, n - 1)
        u = fw.counts_at_query_sites(keys, qsites.ravel(), d).reshape(hi - lo, n + 1)
        u_sum[lo:hi] = u.sum(axis=1)
        for j in keep:
            u_kept[j][lo:hi] = u[:, j]
    p_at_s, misses = _field_values_at(n, d, S_all)
    gamma = p_at_s[:, 2:].sum(axis=1)
    tstar = 1 + b0.astype(np.int64) + u_sum
    assert tstar.min() >= 1  # the spine survives on every sample
    return {
        "Tstar": tstar,
        "Gamma": gamma,
        "Delta": u_sum - gamma,
        "B0": b0,
        "clamp_misses": misses,
        "increments": {j: u_kept[j] - p_at_s[:, j] for j in keep},
        "Z_attached_total": u_sum,
    }


# ---------------------------------------------------------------------------
# ball statistics around the typical site


def spine_ball_batch(n: int, ell: float, reps: int, rng: np.random.Generator,
                     d: int = 2) -> np.ndarray:
    """W_n: particles of generation n within Euclidean distance ell of the
    typical site, via the reversed window representation."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    chunks = fw.walk_chunks(n, reps, d, n)
    shift = fw._rep_shift(d)
    origin = fw.encode_sites(np.zeros((1, d)), d)[0]
    w = np.ones(reps, dtype=np.int64)  # the spine tip
    ell2 = float(ell) ** 2 + 1e-9
    for lo, hi in chunks:
        S, xi = _spine_steps(n, d, hi - lo, rng)
        # walk i = 0..n-1 (tag r*(n+1) + i) has age i: it enters at step n-1-i
        tags = np.arange((hi - lo) * (n + 1), dtype=np.int64).reshape(hi - lo, n + 1)
        starts = [fw.tag_keys(tags[:, n - 1 - t], origin, d) for t in range(n)]
        keys = fw.staggered_walks(starts, _BINARY, d, rng)
        rep, age = np.divmod(keys >> shift, n + 1)
        sites = fw.decode_sites(keys & ((np.int64(1) << shift) - 1), d)
        rel = sites - (S[rep, age + 1, :] + xi[rep, age, :])
        inside = (rel.astype(np.float64) ** 2).sum(axis=1) <= ell2
        w[lo:hi] += np.bincount(rep[inside], minlength=hi - lo)
    return w


def spine_ball_forward_batch(n: int, ell: float, reps: int,
                             rng: np.random.Generator, d: int = 2) -> dict:
    """Forward spine construction: exact joint occupancy of the ball
    B(S_n; ell) in generation n of the size-biased walk.

    Returns per-replicate particle counts, unoccupied-site counts, and the
    ball size."""
    chunks = fw.walk_chunks(n, reps, d, n)
    offsets = sites_in_ball(d, ell)
    nball = len(offsets)
    lookup_radius = int(math.floor(ell))
    side = 2 * lookup_radius + 1
    widx = -np.ones((side,) * d, dtype=np.int64)
    for w_i, off in enumerate(offsets):
        widx[tuple(off + lookup_radius)] = w_i
    shift = fw._rep_shift(d)
    occupied = np.zeros((reps, nball), dtype=bool)
    particles = np.zeros(reps, dtype=np.int64)
    # the spine tip itself
    particles += 1
    occupied[:, widx[(lookup_radius,) * d]] = True
    for lo, hi in chunks:
        S, xi = _spine_steps(n, d, hi - lo, rng)  # spine positions, increments eta
        # sibling j (tag r) is born at S_j + xi_j at step j, then walks for
        # n-1-j generations
        tags = np.arange(hi - lo, dtype=np.int64)
        starts = [fw.tag_keys(tags, fw.encode_sites(S[:, j, :] + xi[:, j, :], d), d)
                  for j in range(n)]
        keys = fw.staggered_walks(starts, _BINARY, d, rng)
        rep = keys >> shift
        sites = fw.decode_sites(keys & ((np.int64(1) << shift) - 1), d)
        rel = sites - S[rep, n, :]
        inb = np.all(np.abs(rel) <= lookup_radius, axis=1)
        rel_in = rel[inb] + lookup_radius
        w_i = widx[tuple(rel_in[:, k] for k in range(d))]
        ok = w_i >= 0
        rr = rep[inb][ok]
        particles[lo:hi] += np.bincount(rr, minlength=hi - lo)
        occupied[lo + rr, w_i[ok]] = True
    return {
        "particles": particles,
        "unoccupied": nball - occupied.sum(axis=1),
        "ball_sites": nball,
    }


# ---------------------------------------------------------------------------
# change-of-measure validation


def sizebias_population_batch(n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Z_n under the size-biased law: the spine plus one ordinary offspring
    process of age n-1-j for every spine height j < n."""
    z = np.ones(reps, dtype=np.int64)
    for j in range(n):
        z += fw.population_batch(_BINARY, n - 1 - j, reps, rng)
    assert z.min() >= 1  # the spine survives on every sample
    return z


def sizebias_check(f, n: int, reps: int, rng: np.random.Generator) -> dict:
    """Compare E_{P_H}[f(Z_n)] (spine construction) against E_P[Z_n f(Z_n)]
    (forward runs); the two agree exactly under the change of measure.

    `f` must be vectorized over integer population arrays.
    """
    z_sb = sizebias_population_batch(n, reps, rng)
    lhs = np.asarray(f(z_sb), dtype=np.float64)
    z = fw.population_batch(_BINARY, n, reps, rng)
    rhs = np.asarray(f(z), dtype=np.float64) * z
    lhs_m, rhs_m = float(lhs.mean()), float(rhs.mean())
    se = math.sqrt(lhs.var(ddof=1) / reps + rhs.var(ddof=1) / reps)
    return {
        "lhs": lhs_m,
        "rhs": rhs_m,
        "se": se,
        "z_score": (lhs_m - rhs_m) / se if se > 0 else 0.0,
        "reps": reps,
    }
