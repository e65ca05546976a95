"""Lazy nearest-neighbor lattice kernel on Z^d.

The walk steps uniformly over the 2d+1 sites at distance <= 1 from its current
position (holding included), so the one-step Markov operator is

    (P f)(x) = (2d+1)^{-1} sum_{e in N} f(x - e),

and P_n denotes the n-step transition probabilities started from the origin.
Fields are dense real arrays over a centered box {-R..R}^d; a field carries a
certified `tail_bound` on the mass living outside its box.  Clamped recursions
kill mass at the box boundary, so stored values are exact lower bounds and the
killed mass is tracked exactly.

All field arithmetic is double precision and every kernel is a fixed-order
numpy reduction, so results are bit-identical across runs and thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

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


@dataclass
class Field:
    """Dense real field on the centered box {-R..R}^d.

    `tail_bound` certifies the total mass outside the box for probability-type
    fields; it never decreases under the operations in this module.
    """

    dim: int
    radius: int
    values: np.ndarray
    tail_bound: float = 0.0
    step: int | None = None  # generation index for fields indexed by time

    def __post_init__(self):
        expect = (2 * self.radius + 1,) * self.dim
        if self.values.shape != expect:
            raise ValueError(f"field shape {self.values.shape} != {expect}")

    @classmethod
    def zeros(cls, d: int, radius: int, tail_bound: float = 0.0) -> "Field":
        return cls(d, radius, np.zeros((2 * radius + 1,) * d), tail_bound)

    @classmethod
    def delta(cls, d: int) -> "Field":
        f = cls.zeros(d, 0)
        f.values[(0,) * d] = 1.0
        f.step = 0
        return f

    def copy(self) -> "Field":
        return Field(self.dim, self.radius, self.values.copy(), self.tail_bound, self.step)

    def in_box(self, sites) -> np.ndarray:
        """Whether each integer site of sites[..., d] lies in the box."""
        return np.all(np.abs(np.asarray(sites, dtype=np.int64)) <= self.radius, axis=-1)

    def value_at(self, site: Sequence[int]) -> float:
        if not self.in_box(site):
            raise IndexError(f"site {tuple(site)} outside box of radius {self.radius}")
        return float(self.values_at(site))

    def values_at(self, sites) -> np.ndarray:
        """Values at the integer sites sites[..., d]; sites outside the box read as 0."""
        sites = np.asarray(sites, dtype=np.int64)
        inside = self.in_box(sites)
        idx = np.where(inside[..., None], sites + self.radius, 0)
        return np.where(inside, self.values[tuple(np.moveaxis(idx, -1, 0))], 0.0)

    def total(self) -> float:
        return float(self.values.sum())


def stencil_step(vals: np.ndarray, d: int, pad: float = 0.0,
                 clamp: int | None = None) -> tuple[np.ndarray, float]:
    """(vals', lost): one application of the averaging operator P to a centered
    box of values; the output radius grows by one unless clamped.

    `pad` is the implicit field value outside the input box (0 for mass-type
    fields, 1 for extinction-probability fields).  `lost` is the exact mass
    dropped by cropping to radius `clamp`: of vals' itself for pad = 0, of
    pad - vals' otherwise (for an extinction field h, the mass of 1 - Ph).

    Opposite shifts are added pairwise (commutative), and for d = 3 the axis
    pair-sums are sorted elementwise before reduction, so mirror-symmetric and
    permutation-symmetric inputs give bit-identical symmetric outputs."""
    R = (vals.shape[0] - 1) // 2
    src = np.full((2 * R + 5,) * d, pad, dtype=np.float64)
    src[tuple(slice(2, 2 * R + 3) for _ in range(d))] = vals
    size = 2 * R + 3
    base = tuple(slice(1, 1 + size) for _ in range(d))
    pairs = []
    for axis in range(d):
        hi = list(base)
        hi[axis] = slice(2, 2 + size)
        lo = list(base)
        lo[axis] = slice(0, size)
        pairs.append(src[tuple(hi)] + src[tuple(lo)])
    if d == 1:
        acc = pairs[0]
    elif d == 2:
        acc = pairs[0] + pairs[1]
    else:
        s = np.sort(np.stack(pairs), axis=0)
        acc = (s[0] + s[1]) + s[2]
    out = acc + src[base]
    out /= 2 * d + 1
    lost = 0.0
    out_R = R + 1
    if clamp is not None and out_R > clamp:
        lo, hi = out_R - clamp, out_R + clamp + 1
        crop = out[tuple(slice(lo, hi) for _ in range(d))].copy()
        if pad == 0.0:
            lost = float(out.sum() - crop.sum())
        else:
            lost = float((pad - out).sum() - (pad - crop).sum())
        out = crop
    return out, lost


def transition_field(n: int, d: int, clamp: int | None = None) -> Field:
    """Exact P_n on the box of radius min(n, clamp).

    When clamped, the recursion kills mass at the boundary; the stored values
    are then pointwise lower bounds on P_n and `tail_bound` is the exact
    killed mass, itself bounded by `escape_bound(n, d, clamp)`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    vals = np.ones((1,) * d)
    tail = 0.0
    for _ in range(n):
        vals, lost = stencil_step(vals, d, clamp=clamp)
        tail += lost
    return Field(d, (vals.shape[0] - 1) // 2, vals, tail, step=n)


def convolve(f: Field, g: Field) -> Field:
    """Dense direct convolution (no FFT); tail bounds compose additively."""
    from scipy.signal import convolve as _direct_convolve

    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    vals = _direct_convolve(f.values, g.values, mode="full", method="direct")
    out = Field(f.dim, f.radius + g.radius, vals, f.tail_bound + g.tail_bound)
    if f.step is not None and g.step is not None:
        out.step = f.step + g.step
    return out


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
    for idx in np.ndindex(*f.values.shape):
        coords = ",".join(str(i - R) for i in idx)
        fh.write(f"{coords},{float(f.values[idx])!r}\n")


def sites_in_ball(d: int, ell: float) -> np.ndarray:
    """Lattice sites with Euclidean norm <= ell, as an (m, d) array."""
    r = int(math.floor(ell))
    axes = [np.arange(-r, r + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    keep = (grid.astype(np.float64) ** 2).sum(axis=1) <= ell**2 + 1e-9
    return grid[keep].astype(np.int64)
