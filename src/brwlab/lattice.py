"""Lazy nearest-neighbor lattice kernel on Z^d.

The walk steps uniformly over the 2d+1 sites at distance <= 1 from its current
position (holding included), so the one-step Markov operator is

    (P f)(x) = (2d+1)^{-1} sum_{e in N} f(x - e),

and P_n denotes the n-step transition probabilities started from the origin.

Every field here starts from the origin delta (or a constant) under P, so it
is symmetric under coordinate sign flips.  A `Field` therefore stores only the
nonnegative orthant {0..R}^d of its box {-R..R}^d: values[i1, ..., id] is the
value at (+-i1, ..., +-id), and `stencil_step` advances such orthant arrays.
Sites are read through `values_at`, `value_at`, `total` (the full-box sum)
and `unfolded` (the full box, for export and oracles).

Every exact recursion is P followed by a pointwise map, F_{k+1} =
update(P F_k, F_k), and `sweep` is its one loop: it yields the fields in
order, from the delta or from any field it yielded (a checkpoint).  A field
carries a certified `tail_bound` on the mass outside its box: clamped sweeps
kill mass at the boundary, so stored values are exact lower bounds, and the
sweep adds up the killed mass exactly.

All field arithmetic is double precision and every kernel is a fixed-order
numpy reduction, so results are bit-identical across runs and thread counts.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Sequence

import numpy as np

Site = tuple[int, ...]


def neighborhood(d: int) -> np.ndarray:
    """The 2d+1 neighbor offsets, hold first then +e1, -e1, +e2, ... (fixed order)."""
    offs = [np.zeros(d, dtype=np.int64)]
    for axis in range(d):
        for sign in (1, -1):
            e = np.zeros(d, dtype=np.int64)
            e[axis] = sign
            offs.append(e)
    return np.array(offs)


def orthant_sum(vals: np.ndarray) -> float:
    """Sum over the full box of a sign-flip-symmetric field stored on its
    orthant: each cell counts 2^(number of nonzero coordinates) times."""
    t = vals
    for _ in range(vals.ndim):
        t = t[0] + 2.0 * t[1:].sum(axis=0)
    return float(t)


@dataclass
class Field:
    """Sign-flip-symmetric real field on the box {-R..R}^d, stored on the
    orthant {0..R}^d (values of shape (R+1)^d).

    `tail_bound` certifies the total mass outside the box for probability-type
    fields; it never decreases under the operations in this module.
    """

    values: np.ndarray
    tail_bound: float = 0.0
    step: int | None = None  # generation index for fields indexed by time

    def __post_init__(self):
        if len(set(self.values.shape)) != 1:
            raise ValueError(f"orthant values must be a cube, got shape {self.values.shape}")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def radius(self) -> int:
        return self.values.shape[0] - 1

    @classmethod
    def delta(cls, d: int) -> "Field":
        return cls(np.ones((1,) * d), step=0)

    def in_box(self, sites) -> np.ndarray:
        """Whether each integer site of sites[..., d] lies in the box."""
        return (np.abs(np.asarray(sites, dtype=np.int64)) <= self.radius).all(axis=-1)

    def value_at(self, site: Sequence[int]) -> float:
        if not self.in_box(site):
            raise IndexError(f"site {tuple(site)} outside box of radius {self.radius}")
        return float(self.values_at(site))

    def values_at(self, sites) -> np.ndarray:
        """Values at the integer sites sites[..., d]; sites outside the box read as 0."""
        sites = np.abs(np.asarray(sites, dtype=np.int64))
        inside = (sites <= self.radius).all(axis=-1)
        idx = np.where(inside[..., None], sites, 0)
        return np.where(inside, self.values[tuple(idx[..., i] for i in range(self.dim))], 0.0)

    def neighbor_row(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(row, mean) at the integer sites x[..., d]: row[..., j] is the value
        at x - e_j (e_j the `neighborhood` offsets) divided by the sum of the
        2d+1 values, and mean = (P f)(x) is their mean.  Where every value
        vanishes the row is 0."""
        w = self.values_at(np.asarray(x, dtype=np.int64)[..., None, :] - neighborhood(self.dim))
        total = w.sum(axis=-1)
        return w / np.where(total > 0.0, total, 1.0)[..., None], total / w.shape[-1]

    def total(self) -> float:
        return orthant_sum(self.values)

    def unfolded(self) -> np.ndarray:
        """The values on the full box {-R..R}^d, index i holding coordinate i - R."""
        full = self.values
        for axis in range(self.dim):
            mirror = np.flip(np.delete(full, 0, axis=axis), axis=axis)
            full = np.concatenate([mirror, full], axis=axis)
        return full


_SLAB_CELLS = 1 << 15  # about this many cells per slab keep its temporaries in cache


def _slab_average(vals: np.ndarray, d: int, pad: float, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 (coordinates on axis 0) of P applied to the orthant
    array `vals` of radius R, over coordinates 0..R+1 on the other axes."""
    R = vals.shape[0] - 1
    # plane j holds coordinate lo - 1 + j on axis 0, and index i holds
    # coordinate i - 1 (-1..R+2) on the other axes: -1 mirrors +1, and every
    # coordinate beyond R reads pad
    blk = np.full((hi - lo + 2,) + (R + 4,) * (d - 1), pad)
    coords = np.abs(np.arange(lo - 1, hi + 1))
    inside = np.flatnonzero(coords <= R)
    blk[(inside,) + (slice(1, R + 2),) * (d - 1)] = vals[coords[inside]]
    for axis in range(1, d):
        blk[(slice(None),) * axis + (0,)] = blk[(slice(None),) * axis + (2,)]
    base = (slice(1, 1 + hi - lo),) + (slice(1, R + 3),) * (d - 1)
    pairs = []
    for axis in range(d):
        up, down = list(base), list(base)
        up[axis] = slice(base[axis].start + 1, base[axis].stop + 1)
        down[axis] = slice(base[axis].start - 1, base[axis].stop - 1)
        pairs.append(blk[tuple(up)] + blk[tuple(down)])
    if d == 1:
        acc = pairs[0]
    elif d == 2:
        acc = pairs[0] + pairs[1]
    else:  # (smallest + middle) + largest pair-sum, by a min/max network
        a, b, c = pairs
        small, big = np.minimum(a, b), np.maximum(a, b)
        acc = (small + np.minimum(big, c)) + np.maximum(big, c)
    acc += blk[base]
    acc /= 2 * d + 1
    return acc


def stencil_step(vals: np.ndarray, d: int, pad: float = 0.0,
                 clamp: int | None = None) -> tuple[np.ndarray, float]:
    """(vals', lost): one application of the averaging operator P to a
    sign-flip-symmetric field stored on its orthant {0..R}^d; the output
    radius grows by one unless clamped.

    Index -1 mirrors +1, and `pad` is the implicit field value outside the
    input box (0 for mass-type fields, 1 for extinction-probability fields).
    `lost` is the exact full-box mass dropped by cropping to radius `clamp`
    (each orthant cell weighted as in `orthant_sum`): of vals' itself for
    pad = 0, of pad - vals' otherwise (for an extinction field h, the mass of
    1 - Ph).

    Opposite shifts are added pairwise (commutative), and for d = 3 the axis
    pair-sums are added in sorted order, so every cell gets the value the
    full-box step gives it, and permutation-symmetric inputs give
    bit-identical permutation-symmetric outputs.  The output is computed in
    slabs along axis 0, which changes no value."""
    if clamp is not None and clamp < 1:
        raise ValueError(f"clamp must be >= 1, got {clamp}")
    size = vals.shape[0] + 1  # output coordinates 0..R+1
    out = np.empty((size,) * d)
    rows = max(1, _SLAB_CELLS // (size + 2) ** (d - 1))
    for lo in range(0, size, rows):
        out[lo:lo + rows] = _slab_average(vals, d, pad, lo, min(lo + rows, size))
    lost = 0.0
    if clamp is not None and size > clamp + 1:
        keep = clamp + 1
        for axis in range(d):  # the shell, split by its first axis beyond the clamp
            face = out[(slice(0, keep),) * axis + (slice(keep, None),)]
            lost += 2.0 * orthant_sum((face if pad == 0.0 else pad - face).sum(axis=axis))
        out = out[(slice(0, keep),) * d].copy()
    return out, lost


def sweep(n: int, d: int, update: Callable[[np.ndarray, Field], np.ndarray] | None = None,
          clamp: int | None = None, pad: float = 0.0,
          start: Field | None = None) -> Iterator[Field]:
    """Yield F_k for k = start.step..n, with F_{k+1} = update(P F_k, F_k)
    (update None keeps P F_k) and `start` defaulting to the origin delta.

    P is `stencil_step` with this `pad` and `clamp`.  Each yielded field's
    `tail_bound` is the start's plus every clamp loss so far, added in step
    order, so a sweep restarted from any field it yielded continues it bit
    for bit.  The arguments are checked here, before the first field.
    """
    start = Field.delta(d) if start is None else start
    if start.dim != d:
        raise ValueError(f"start field has dimension {start.dim}, not {d}")
    if n < start.step:
        raise ValueError(f"n = {n} is below the start step {start.step}")
    return _sweep(n, d, update, clamp, pad, start)


def _sweep(n, d, update, clamp, pad, f):
    yield f
    while f.step < n:
        pf, lost = stencil_step(f.values, d, pad, clamp)
        f = Field(pf if update is None else update(pf, f), f.tail_bound + lost, f.step + 1)
        yield f


def last(fields: Iterator[Field]) -> Field:
    """The final field of a sweep; the earlier ones are dropped as it runs."""
    return deque(fields, maxlen=1)[0]


def transition_field(n: int, d: int, clamp: int | None = None) -> Field:
    """Exact P_n on the box of radius min(n, clamp).

    When clamped, the recursion kills mass at the boundary; the stored values
    are then pointwise lower bounds on P_n and `tail_bound` is the exact
    killed mass, itself bounded by `escape_bound(n, d, clamp)`.
    """
    return last(sweep(n, d, clamp=clamp))


def convolve(f: Field, g: Field) -> Field:
    """Dense direct convolution (no FFT) of the unfolded boxes, folded back
    onto the orthant; tail bounds compose additively."""
    from scipy.signal import convolve as _direct_convolve

    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    full = _direct_convolve(f.unfolded(), g.unfolded(), mode="full", method="direct")
    R = f.radius + g.radius
    step = f.step + g.step if f.step is not None and g.step is not None else None
    return Field(np.ascontiguousarray(full[(slice(R, None),) * f.dim]),
                 f.tail_bound + g.tail_bound, step)


def sample_srw_batch(n: int, d: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Positions S_0..S_n for `reps` independent walks: array (reps, n+1, d)."""
    offs = neighborhood(d)
    idx = rng.integers(0, 2 * d + 1, size=(reps, n))
    path = np.zeros((reps, n + 1, d), dtype=np.int64)
    if n:
        np.cumsum(offs[idx], axis=1, out=path[:, 1:])
    return path


# ---------------------------------------------------------------------------
# Clamp policy and certified tail bounds.


def escape_bound(n: int, d: int, radius: int) -> float:
    """Certified Chernoff bound on P(some coordinate leaves [-R, R] within n steps).

    Valid for the running maximum (Doob), hence for the killed recursion.
    Any grid value of t yields a rigorous bound; the grid minimum only
    tightens it.
    """
    if n == 0 or radius > n:
        return 0.0
    t = np.linspace(1e-3, 25.0, 800)
    log_m = np.log((2 * d - 1 + 2 * np.cosh(t)) / (2 * d + 1))
    best = float(np.min(-t * radius + n * log_m))
    return min(1.0, 2 * d * math.exp(best))


def clamp_radius(n: int, d: int, eps: float = 1e-12) -> int:
    """Smallest box radius whose certified escape bound is below eps."""
    if n <= 1:
        return max(n, 1)
    lo, hi = 1, n
    if escape_bound(n, d, hi) > eps:
        return n
    while lo < hi:
        mid = (lo + hi) // 2
        if escape_bound(n, d, mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return lo


# ---------------------------------------------------------------------------
# CSV export.


def field_to_csv(f: Field, n: int, fh: IO[str]) -> None:
    """Header `# dim=.. n=.. radius=.. tail_bound=..` then `x1,...,xd,value`
    rows in lexicographic site order."""
    fh.write(f"# dim={f.dim} n={n} radius={f.radius} tail_bound={float(f.tail_bound)!r}\n")
    R = f.radius
    full = f.unfolded()
    for idx in np.ndindex(*full.shape):
        coords = ",".join(str(i - R) for i in idx)
        fh.write(f"{coords},{float(full[idx])!r}\n")


def sites_in_ball(d: int, ell: float) -> np.ndarray:
    """Lattice sites with Euclidean norm <= ell, as an (m, d) array."""
    r = int(math.floor(ell))
    axes = [np.arange(-r, r + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    keep = (grid.astype(np.float64) ** 2).sum(axis=1) <= ell**2 + 1e-9
    return grid[keep].astype(np.int64)
