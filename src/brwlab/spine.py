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
part Delta_n with orthogonal increments.  P is symmetric, so P_{2i}(0) =
sum_x P_i(x)^2: `even_return_probs` reads the exact means off one sweep of
n steps, not 2n.

The vacancy statistics are readings of the same batch.  In the forward
construction sibling j has age n-1-j and is read at S_n - S_j - xi_j, the tip
seen from its birth site.  With S'_k = S_n - S_{n-k} and xi'_i = -xi_{n-1-i},
reversed walk i = n-1-j has exactly that age and query site, and (S', xi')
has the law of (S, xi); so the reversed walks' offsets from their query
sites have the joint law of the particles' offsets from the tip, and the
occupied sites of B(tip; ell) are the distinct offsets plus the tip's own.

`spine_typical_batch` is that one construction: generation n of the
size-biased walk in B(tip; ell), seen from its tip.  T**_n is its count at
offset 0, so T**, W_n(ell) and the occupied sites of one replicate come from
one draw.  Gamma_n and Delta_n are a field sweep along its spines
(`gamma_split`), run only where they are read.  The n attached walks of
every replicate go to one `forward.attached_walks` call for the whole batch,
as one int16 array of query sites.  At the verify sizes (C09, C13) that is
the ball-targeted reduced tree, which keeps only the particles that end in
the ball: a few dozen particle-generations per replicate instead of about
n^2/2, for one reversed hitting sweep per batch.  Small batches (the CLI's
few replicates) stay on the staggered array, whose draws do not depend on
ell.
"""

from __future__ import annotations

import math

import numpy as np

from . import forward as fw
from .lattice import Field, clamp_schedule, neighborhood, row_blocks, sample_srw_batch, sweep
from .offspring import binary

_BINARY = binary()


def even_return_probs(n: int, d: int = 2, clamp: int | np.ndarray | None = None) -> np.ndarray:
    """P_{2i}(0) for i = 0..n, off one n-step sweep: P is symmetric, so
    P_{2i}(0) = sum_x P_i(x)^2 (Chapman-Kolmogorov).  `clamp` is taken as by
    `lattice.transition_field`; a clamped sweep gives lower bounds."""
    return np.array([Field(np.square(f.values), d).total() for f in sweep(n, d, clamp=clamp)])


def exact_mean_gamma(n: int, d: int = 2) -> np.ndarray:
    """E Gamma_m = sum_{i=2}^{m} P_{2i}(0) for m = 0..n, from one sweep of n
    steps clamped at 1e-14 per step: the exact means of Gamma_m (and of the
    attached single-site counts in the typical-site representation)."""
    gamma = np.zeros(n + 1)
    np.cumsum(even_return_probs(n, d, clamp_schedule(n, d, 1e-14))[2:], out=gamma[2:])
    return gamma


def spine_typical_batch(n: int, reps: int, rng: np.random.Generator, d: int = 2,
                        ell: float = 0, keep_increments: tuple[int, ...] = ()) -> dict:
    """Generation n of the size-biased walk in the ball B(tip; ell), from one
    reversed batch (module doc).  Per replicate: T**_n ("Tstar", the particles
    at offset 0) and its age-0 term B_0 ("B0"), W_n(ell) ("W") and the
    occupied sites ("occupied"), the tip's included; the spine S_0..S_n
    ("S", int16); and under "kept", for each index i in keep_increments,
    U^{i-1}_{i-1}(S_i + xi_{i-1}), the count of the walk of age i-1 at offset 0.
    """
    if n < 2:
        raise ValueError("the representation needs n >= 2")
    if not ell >= 0:
        raise ValueError("ell must be >= 0")
    if n > fw.COORD_OFF:  # before the draws: S_{i+1} + xi_i then fits int16
        raise ValueError(f"n = {n} exceeds the packing range n <= {fw.COORD_OFF}")
    # walk i lies within i of the origin per axis and its query site within
    # i + 2, so every offset lies in the ball of radius 2n sqrt(d)
    ell = min(ell, 2 * n * math.sqrt(d))
    S = sample_srw_batch(n, d, reps, rng)
    # walk i, of age i, is read at S_{i+1} + xi_i
    query = S[:, 1:].copy()
    offs = neighborhood(d).astype(np.int16)
    for lo, hi in row_blocks(reps, n):
        query[lo:hi] += offs[rng.integers(0, 2 * d + 1, size=(hi - lo, n))]
    walk, rel = fw.attached_walks(query, ell, rng)
    rep = walk // n
    rep0, age0 = np.divmod(walk[~rel.any(axis=1)], n)  # the particles at offset 0
    # distinct (replicate, offset) pairs, each replicate's tip at offset 0, as
    # int64 keys over (replicate, the offsets' bounding box): offsets reach 2n
    # per axis at any ell, so in d = 3 at n = 2**14 fewer than 2**15 replicates
    # fit, and np.ravel_multi_index refuses a larger box rather than wrap
    lo, hi = rel.min(axis=0, initial=0), rel.max(axis=0, initial=0)
    box = tuple(hi - lo + 1)
    cells = math.prod(box)
    keys = np.concatenate((np.arange(reps) * cells + np.ravel_multi_index(tuple(-lo), box),
                           np.ravel_multi_index((rep, *(rel - lo).T), (reps, *box))))
    return {
        "Tstar": 1 + np.bincount(rep0, minlength=reps),  # 1: the spine tip
        "B0": np.bincount(rep0[age0 == 0], minlength=reps).astype(bool),
        "W": 1 + np.bincount(rep, minlength=reps),
        "occupied": np.bincount(np.unique(keys) // cells, minlength=reps),
        "S": S,
        "kept": {j: np.bincount(rep0[age0 == j - 1], minlength=reps)
                 for j in keep_increments if 2 <= j <= n},
    }


def gamma_split(batch: dict) -> dict:
    """T**_n = 1 + B_0 + Gamma_n + Delta_n for a `spine_typical_batch`: Gamma_n
    summed along one clamped field sweep over its spines, with the clamp
    misses per replicate (sites outside the box read as 0), and the centered
    increments X_{i-1} = U^{i-1}_{i-1}(S_i + xi_{i-1}) - P_i(S_i) of its kept
    indices i (orthogonality diagnostics)."""
    S, kept = batch["S"], batch["kept"]
    reps, n, d = S.shape[0], S.shape[1] - 1, S.shape[2]
    gamma = np.zeros(reps)
    misses = np.zeros(reps, dtype=np.int64)
    increments = {}
    for f in sweep(n, d, clamp=clamp_schedule(n, d, 1e-14)):  # P_0(S_0) = 1 is summed nowhere
        at = S[:, f.step]
        p = f.values_at(at)
        misses += ~f.in_box(at)
        if f.step >= 2:
            gamma += p
        if f.step in kept:
            increments[f.step] = kept[f.step] - p
    return {
        "Gamma": gamma,
        "Delta": (batch["Tstar"] - 1 - batch["B0"]) - gamma,
        "clamp_misses": misses,
        "increments": increments,
    }


# ---------------------------------------------------------------------------
# change-of-measure validation


def sizebias_population_batch(n: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Z_n under the size-biased law: the spine plus one ordinary offspring
    process of age n-1-j for every spine height j < n."""
    # height 0, the oldest process, is drawn first, while no other array is alive
    z = fw.population_batch(_BINARY, n - 1, reps, rng)
    for j in range(1, n - 1):
        z += fw.population_batch(_BINARY, n - 1 - j, reps, rng)
    # the spine, and the process of age 0 (one particle, no draw) unless it
    # was height 0's
    z += min(n, 2)
    assert z.min() >= 1  # the spine survives on every sample
    return z


def sizebias_check(f, n: int, reps: int, rng: np.random.Generator) -> dict:
    """Compare E_{P_H}[f(Z_n)] (spine construction) against E_P[Z_n f(Z_n)]
    (forward runs); the two agree exactly under the change of measure.

    `f` must be vectorized over integer population arrays and return a fresh
    array: Z f(Z) is formed in place in it.  Each side is reduced to its mean
    and variance and dropped before the next array is drawn, so at most about
    25 bytes per replicate are held at once.
    """
    lhs = np.asarray(f(sizebias_population_batch(n, reps, rng)), dtype=np.float64)
    lhs_m, lhs_v = float(lhs.mean()), float(lhs.var(ddof=1))
    del lhs
    z = fw.population_batch(_BINARY, n, reps, rng)
    rhs = np.asarray(f(z), dtype=np.float64)
    rhs *= z
    del z
    rhs_m, rhs_v = float(rhs.mean()), float(rhs.var(ddof=1))
    se = math.sqrt(lhs_v / reps + rhs_v / reps)
    diff = lhs_m - rhs_m
    return {
        "lhs": lhs_m,
        "rhs": rhs_m,
        "se": se,
        # se = 0: 0 if the means agree, else +-inf; a NaN mean or se reads NaN
        "z_score": diff / se if se else 0.0 if diff == 0 else diff * math.inf,
        "reps": reps,
    }
