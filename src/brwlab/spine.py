"""Size-biased sampling: spine constructions under dP_H/dP = Z_n.

Binary fission only.  The size-biased tree is a spine of distinguished
particles, each fissioning surely; the spare child at height j starts an
ordinary branching random walk.  Reversing time turns the number of
particles within Euclidean distance ell of the typical site into

    W_n(ell) = 1 + sum_{i=0..n-1} U^i_i(B(S_{i+1} + xi_i; ell)),

with S a lazy walk, xi_i uniform neighbor steps and U^i independent
unbiased branching random walks of age i; the 1 is the spine tip, and U^0 is
the tip's sibling, one particle that lies in the ball whenever ell >= 2.  The
count at the typical site is the same construction at radius 0:

    T**_n = W_n(0) = 1 + B_0 + sum_{j=2..n} U^{j-1}_{j-1}(S_j + xi_{j-1}),

where B_0 = 1{S_1 + xi_0 = 0}, the age-0 term, is Bernoulli(1/(2d+1)) and
independent of S.  The sum over j >= 2 splits into Gamma_n = sum_{i=2..n}
P_i(S_i) (a walk functional with exact mean sum P_{2i}(0)) plus a centered
part Delta_n with orthogonal increments.  Vacancy statistics are sampled
from the forward (unreversed) construction, which realizes the exact joint
occupancy law around the tip.

Every construction hands its n attached walks per replicate to
`forward.attached_walks`, in replicate chunks from `forward.walk_chunks`.  At
the verify sizes (C09, C13) that is the ball-targeted reduced tree, which keeps
only the particles that end in the ball: a few dozen particle-generations per
replicate instead of about n^2/2, for one hitting sweep per chunk plus a
checkpoint sweep that successive chunks and constructions of the same (n, ell)
share.  Small batches (the CLI's few replicates) stay on the staggered array.
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


def _reversed_counts(n: int, ell: float, reps: int, rng: np.random.Generator, d: int):
    """The reversed construction, one replicate chunk at a time: yields
    (lo, hi, S, u) with spine positions S (hi-lo, n+1, d) and u[r, i] the
    particles of the age-i walk within distance ell of S_{i+1} + xi_i."""
    ages = np.broadcast_to(np.arange(n), (reps, n))
    for lo, hi in fw.walk_chunks(ages, ell, _BINARY, d):
        S, xi = _spine_steps(n, d, hi - lo, rng)
        walk, _ = fw.attached_walks(ages[lo:hi], S[:, 1:] + xi, ell, _BINARY, d, rng)
        yield lo, hi, S, np.bincount(walk, minlength=(hi - lo) * n).reshape(hi - lo, n)


def spine_typical_batch(n: int, reps: int, rng: np.random.Generator, d: int = 2,
                        keep_increments: tuple[int, ...] = ()) -> dict:
    """Batched draws of (T**_n, Gamma_n, Delta_n) under the size-biased law.

    keep_increments: indices i for which the centered increments
    X_{i-1} = U^{i-1}_{i-1}(S_i + xi_{i-1}) - P_i(S_i) are returned
    (orthogonality diagnostics).
    """
    if n < 2:
        raise ValueError("the representation needs n >= 2")
    keep = [j for j in keep_increments if 2 <= j <= n]
    # every chunk's spine, kept for one field sweep after the loop
    # (int16 holds it: attached_walks bounds |S| <= n <= 2**14)
    S_all = np.empty((reps, n + 1, d), dtype=np.int16)
    b0 = np.empty(reps, dtype=bool)
    u_sum = np.zeros(reps, dtype=np.int64)
    u_kept = {j: np.empty(reps, dtype=np.int64) for j in keep}
    for lo, hi, S, u in _reversed_counts(n, 0, reps, rng, d):
        S_all[lo:hi] = S
        b0[lo:hi] = u[:, 0]
        u_sum[lo:hi] = u[:, 1:].sum(axis=1)
        for j in keep:
            u_kept[j][lo:hi] = u[:, j - 1]
    p_at_s, misses = _field_values_at(n, d, S_all)
    gamma = p_at_s[:, 2:].sum(axis=1)
    return {
        "Tstar": 1 + b0.astype(np.int64) + u_sum,
        "Gamma": gamma,
        "Delta": u_sum - gamma,
        "B0": b0,
        "clamp_misses": misses,
        "increments": {j: u_kept[j] - p_at_s[:, j] for j in keep},
    }


# ---------------------------------------------------------------------------
# ball statistics around the typical site


def spine_ball_batch(n: int, ell: float, reps: int, rng: np.random.Generator,
                     d: int = 2) -> np.ndarray:
    """W_n: particles of generation n within Euclidean distance ell of the
    typical site, via the reversed construction."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    w = np.ones(reps, dtype=np.int64)  # the spine tip
    for lo, hi, _, u in _reversed_counts(n, ell, reps, rng, d):
        w[lo:hi] += u.sum(axis=1)
    return w


def spine_ball_forward_batch(n: int, ell: float, reps: int,
                             rng: np.random.Generator, d: int = 2) -> dict:
    """Forward spine construction: exact joint occupancy of the ball
    B(S_n; ell) in generation n of the size-biased walk.

    Returns per-replicate particle counts, unoccupied-site counts, and the
    ball size."""
    offsets = sites_in_ball(d, ell)
    r = int(math.floor(ell))
    widx = np.zeros((2 * r + 1,) * d, dtype=np.int64)  # ball-site index of each offset
    widx[tuple((offsets + r).T)] = np.arange(len(offsets))
    occupied = np.zeros((reps, len(offsets)), dtype=bool)
    occupied[:, widx[(r,) * d]] = True  # the spine tip
    particles = np.ones(reps, dtype=np.int64)
    ages = np.broadcast_to(n - 1 - np.arange(n), (reps, n))
    for lo, hi in fw.walk_chunks(ages, ell, _BINARY, d):
        S, xi = _spine_steps(n, d, hi - lo, rng)
        # sibling j is born at S_j + xi_j and walks n-1-j generations; in its
        # own birth frame the tip sits at S_n - S_j - xi_j
        walk, rel = fw.attached_walks(ages[lo:hi], S[:, n:] - S[:, :n] - xi, ell,
                                      _BINARY, d, rng)
        rep = walk // n
        particles[lo:hi] += np.bincount(rep, minlength=hi - lo)
        occupied[lo + rep, widx[tuple((rel + r).T)]] = True
    return {
        "particles": particles,
        "unoccupied": len(offsets) - occupied.sum(axis=1),
        "ball_sites": len(offsets),
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
