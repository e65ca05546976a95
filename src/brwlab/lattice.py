"""Lazy nearest-neighbor lattice kernel on Z^d.

The walk steps uniformly over the 2d+1 sites at distance <= 1 from its current
position (holding included), so the one-step Markov operator is

    (P f)(x) = (2d+1)^{-1} sum_{e in N} f(x - e),

and P_n denotes the n-step transition probabilities started from the origin.

Every field here vanishes outside its box and starts under P from the origin
delta (or another field invariant under coordinate sign flips and
permutations, such as a ball's indicator), so it keeps that invariance.  A
`Field` therefore stores one value per symmetry orbit of its box {-R..R}^d: the
sorted cells R >= x_1 >= x_2 >= ... >= x_d >= 0, as a flat array ordered by
the closed-form index idx(x) = sum_k C(x_k + d - k, d - k + 1).  The cells of
radius r are then the prefix of length C(r + d, d), so clamping truncates
the array.  The layout is private to this module: sites are read through
`values_at`, `value_at`, `neighbor_row`, `total` (the full-box sum) and
`unfolded` (the full box, for export and oracles), fields are built from
their sites with `Field.tabulate`, and `stencil_step` advances a field's
values with one gather over a table of the indices of the sorted |x +- e_a|.
The table is built lazily in closed form, grown with the box, and kept for
the dimension used last.  The step runs over blocks of _BLOCK output cells,
adding each axis's pair-sum into the output block through two rows reused
by every block, and allocates only its input extended by zeros and its output.

Every exact recursion is P followed by a pointwise map, F_{k+1} =
update(P F_k, F_k), and `sweep` is its one loop: it yields the fields in
order, from the delta or from any field it yielded (a checkpoint); a
`ReversedSweep` yields them in reverse from about sqrt(n) checkpoints.  The
package runs on one thread: the stencil is bound by memory bandwidth, so a
second thread stepping ahead gains nothing.  A field carries a certified
`tail_bound` on the mass outside its box: a sweep clamped at one radius, or
at the radius r_k of each step (`clamp_schedule`, which keeps at most eps
per step outside), kills mass at the boundary, so stored values are exact
lower bounds, and it sums the killed mass exactly.  `work` counts the
stencil steps and the output cells they store.

All field arithmetic is double precision and every kernel is a fixed-order
numpy reduction, so results are bit-identical across runs and block sizes.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Sequence

import numpy as np


@functools.cache
def neighborhood(d: int) -> np.ndarray:
    """The 2d+1 neighbor offsets, hold first then +e1, -e1, +e2, ... (fixed
    order): one read-only array per d, shared by every caller."""
    eye = np.eye(d, dtype=np.int64)
    offs = np.concatenate((0 * eye[:1], np.stack((eye, -eye), axis=1).reshape(-1, d)))
    offs.flags.writeable = False
    return offs


# ---------------------------------------------------------------------------
# The sorted-cell layout.


def _cell_count(d: int, radius: int) -> int:
    """Stored cells of a field of radius `radius`: C(radius + d, d)."""
    return math.comb(radius + d, d)


@functools.cache
def _radius_of(count: int, d: int) -> int:
    """The radius R with C(R + d, d) == count; ValueError if there is none.
    Cached: every sweep step asks it of its input and output lengths."""
    if not 1 <= d <= 3:
        raise ValueError(f"fields live in dimension 1..3, not {d}")
    r = max(0, int((count * math.factorial(d)) ** (1.0 / d)) - d)
    while _cell_count(d, r) < count:
        r += 1
    if _cell_count(d, r) != count:
        raise ValueError(f"a field of dimension {d} stores C(R + {d}, {d}) values for "
                         f"some radius R, got {count}")
    return r


def _cell_index(x: np.ndarray) -> np.ndarray:
    """The index of the sorted cell of each nonnegative site x[..., d]
    (d <= 3): with its coordinates sorted, x_(1) >= ... >= x_(d), it is
    sum_k C(x_(k) + d - k, d - k + 1)."""
    d = x.shape[-1]
    if d == 1:
        return x[..., 0]
    a, b = x[..., 0], x[..., 1]
    if d == 2:
        hi = np.maximum(a, b)
        return (hi * (hi + 1) >> 1) + np.minimum(a, b)
    c = x[..., 2]
    hi = np.maximum(np.maximum(a, b), c)
    lo = np.minimum(np.minimum(a, b), c)
    mid = a + b + c - hi - lo
    return hi * (hi + 1) * (hi + 2) // 6 + (mid * (mid + 1) >> 1) + lo


def _shell_cells(d: int, lo: int, hi: int) -> np.ndarray:
    """The sorted cells with lo < x_1 <= hi, in index order, as (m, d)."""
    top = np.arange(lo + 1, hi + 1, dtype=np.int64)
    if d == 1:
        return top[:, None]
    # the cells with x_1 = v are v followed by the (d-1)-cells of radius <= v
    counts = np.array([_cell_count(d - 1, v) for v in range(lo + 1, hi + 1)], dtype=np.int64)
    rest = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.column_stack((np.repeat(top, counts), _shell_cells(d - 1, -1, hi)[rest]))


class _Layout:
    """The sorted cells of one dimension, grown in place to cover a radius:
    their sites, their orbit sizes, and the neighbor table, whose row 2a
    (2a + 1) holds the index of |x + e_a| (|x - e_a|), within radius + 1.
    Arrays are allocated for twice the cells they hold, so growing by one
    shell at a time copies them O(log) times; the unused part is never
    written, so it takes no memory.  The layout outlives every sweep, so
    sites are int32 and orbit sizes (at most 48) uint8; the indices are intp,
    which numpy gathers fastest."""

    def __init__(self, d: int):
        self.dim = d
        self.radius = -1
        self.sites = np.empty((d, 0), dtype=np.int32)
        self.weights = np.empty(0, dtype=np.uint8)
        self.neighbors = np.empty((2 * d, 0), dtype=np.intp)

    def cover(self, radius: int) -> "_Layout":
        d = self.dim
        old, m = _cell_count(d, self.radius), _cell_count(d, radius)
        if m > self.weights.shape[-1]:
            cap = max(m, 2 * self.weights.shape[-1])
            for name in ("sites", "weights", "neighbors"):
                arr = getattr(self, name)
                grown = np.empty(arr.shape[:-1] + (cap,), dtype=arr.dtype)
                grown[..., :old] = arr[..., :old]
                setattr(self, name, grown)
        x = _shell_cells(d, self.radius, radius)
        self.sites[:, old:m] = x.T
        # orbit size 2^(nonzero coordinates) * d! / prod(multiplicity!): the
        # running tie counts multiply out to prod(multiplicity!)
        ties = np.ones(len(x), dtype=np.int64)
        for k in range(1, d):
            ties *= (x[:, :k + 1] == x[:, k:k + 1]).sum(axis=1)
        self.weights[old:m] = 2 ** (x > 0).sum(axis=1) * math.factorial(d) // ties
        for a in range(d):
            x[:, a] += 1
            self.neighbors[2 * a, old:m] = _cell_index(x)
            x[:, a] -= 2
            self.neighbors[2 * a + 1, old:m] = _cell_index(np.abs(x))
            x[:, a] += 1
        self.radius = radius
        return self


_layouts: list[_Layout] = []  # one entry: the layout of the dimension used last


def _layout(d: int, radius: int) -> _Layout:
    """The layout of dimension d, covering at least `radius`.  Only the last
    dimension's layout is kept, so a d = 3 table does not outlive its use
    when the work moves on to d = 2, and vice versa."""
    if not _layouts or _layouts[0].dim != d:
        _layouts[:] = [_Layout(d)]
    lay = _layouts[0]
    return lay if lay.radius >= radius else lay.cover(radius)


@dataclass
class Field:
    """Real field on the box {-R..R}^d, invariant under coordinate sign flips
    and permutations, stored as one value per sorted cell (module doc):
    `values` has length C(R + d, d).

    `tail_bound` certifies the total mass outside the box for probability-type
    fields; it never decreases under the operations in this module.
    """

    values: np.ndarray
    dim: int
    tail_bound: float = 0.0
    step: int | None = None  # generation index for fields indexed by time
    radius: int = dataclasses.field(init=False)

    def __post_init__(self):
        if np.ndim(self.values) != 1:
            raise ValueError(f"field values must be a flat array, got shape "
                             f"{np.shape(self.values)}")
        self.radius = _radius_of(len(self.values), self.dim)

    @classmethod
    def delta(cls, d: int) -> "Field":
        return cls(np.ones(1), d, step=0)

    @classmethod
    def tabulate(cls, fn: Callable[[np.ndarray], np.ndarray], d: int, radius: int,
                 step: int | None = None) -> "Field":
        """The field with values fn(sites) on the box of this radius; `fn` maps
        int32 sites[m, d] (a view of the layout's: not to be written) to m
        values and must be invariant under sign flips and permutations (it
        sees one site per orbit)."""
        sites = _layout(d, radius).sites[:, :_cell_count(d, radius)].T
        return cls(np.asarray(fn(sites), dtype=np.float64), d, step=step)

    def sites(self) -> np.ndarray:
        """One site per stored value, in storage order: (m, d)."""
        return _layout(self.dim, self.radius).sites[:, :len(self.values)].T.astype(np.int64)

    def in_box(self, sites) -> np.ndarray:
        """Whether each integer site of sites[..., d] lies in the box."""
        return (np.abs(np.asarray(sites, dtype=np.int64)) <= self.radius).all(axis=-1)

    def value_at(self, site: Sequence[int]) -> float:
        if not self.in_box(site):
            raise IndexError(f"site {tuple(site)} outside box of radius {self.radius}")
        return float(self.values_at(site))

    def values_at(self, sites) -> np.ndarray:
        """Values at the integer sites sites[..., d]; sites outside the box read as 0."""
        # a coordinate beyond the box is cut to radius + 1, which keeps the
        # site outside: its index is then past the stored prefix
        x = np.abs(np.asarray(sites, dtype=np.int64))
        idx = _cell_index(np.minimum(x, self.radius + 1, out=x))
        return np.where(idx < len(self.values), self.values.take(idx, mode="clip"), 0.0)

    def neighbor_row(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(row, mean) at the integer sites x[..., d]: row[..., j] is the value
        at x - e_j (e_j the `neighborhood` offsets) divided by the sum of the
        2d+1 values, and mean = (P f)(x) is their mean.  Where every value
        vanishes the row is 0."""
        nb = neighborhood(self.dim)
        # x - e_j as one copy per neighbor, shifted in place: the subtraction
        # then runs over whole (2d+1, d) blocks, not over rows of d values
        sites = np.repeat(np.asarray(x, dtype=np.int64)[..., None, :], len(nb), axis=-2)
        sites -= nb
        w = self.values_at(sites)
        total = w.sum(axis=-1)
        w /= np.where(total > 0.0, total, 1.0)[..., None]
        return w, total / w.shape[-1]

    def axis_increments(self) -> np.ndarray:
        """f(x + e_a) - f(x) over every site x of the box's nonnegative orthant
        and every axis a with x + e_a in the box (as a flat array; by symmetry
        each value is taken on one stored cell)."""
        m = len(self.values)
        up = _layout(self.dim, self.radius).neighbors[0::2, :m]
        inside = up < m
        return self.values[up[inside]] - np.broadcast_to(self.values, up.shape)[inside]

    def total(self) -> float:
        """The sum over the full box: each stored value times its orbit size."""
        return _weighted_sum(self.values, _layout(self.dim, self.radius).weights)

    def unfolded(self) -> np.ndarray:
        """The values on the full box {-R..R}^d, index i holding coordinate i - R."""
        R = self.radius
        grid = np.indices((2 * R + 1,) * self.dim) - R
        return self.values_at(np.moveaxis(grid, 0, -1))


# output cells per block of `stencil_step`: 2^14 to 2^16 step about equally
# fast, and 2^16 issues the fewest numpy calls
_BLOCK = 1 << 16


@dataclass
class StencilWork:
    """Stencil steps, and the output cells they stored, since the last reset."""
    steps: int = 0
    cells: int = 0


work = StencilWork()  # counted by `stencil_step`


def _weighted_sum(vals: np.ndarray, weights: np.ndarray) -> float:
    """sum_i vals[i] * weights[i], pairwise (a fixed order)."""
    return float((vals * weights[:len(vals)]).sum())


def stencil_step(vals: np.ndarray, d: int,
                 clamp: int | None = None) -> tuple[np.ndarray, float]:
    """(vals', lost): one application of the averaging operator P to the
    stored values of a `Field` of dimension d, which vanishes outside its
    box; the output radius grows by one unless clamped.

    `lost` is the exact full-box mass of vals' dropped by cropping to radius
    `clamp`: the orbit-weighted sum of the dropped tail of vals'.

    Each output cell gathers its 2d neighbors from one table.  Opposite
    shifts are added pairwise (commutative), and the axis pair-sums in the
    stored cell's axis order, (p_1 + p_2) + p_3 with x_1 >= x_2 >= x_3: a
    full-box step that adds them in decreasing-|x_a| order gives every cell
    the same value, bit for bit, since axes with equal |x_a| have equal
    pair-sums."""
    if clamp is not None and clamp < 1:
        raise ValueError(f"clamp must be >= 1, got {clamp}")
    size = _radius_of(len(vals), d) + 1  # the output radius before clamping
    lay = _layout(d, size)
    m = _cell_count(d, size)
    # neighbors of the output cells lie within radius size + 1; beyond the
    # input box they read 0
    src = np.zeros(_cell_count(d, size + 1))
    src[:len(vals)] = vals
    nb = lay.neighbors
    acc = np.empty(m)
    # one pair row and one gather row, reused by every block of output cells
    rows = np.empty((2, min(_BLOCK, m)))
    for lo in range(0, m, _BLOCK):
        hi = min(lo + _BLOCK, m)
        pair, g, out = rows[0, :hi - lo], rows[1, :hi - lo], acc[lo:hi]
        for a in range(d):  # the table's indices are in range: clip never clips
            dest = out if a == 0 else pair
            src.take(nb[2 * a, lo:hi], out=dest, mode="clip")
            src.take(nb[2 * a + 1, lo:hi], out=g, mode="clip")
            dest += g
            if a:
                out += pair
        out += src[lo:hi]
        out /= 2 * d + 1
    lost = 0.0
    if clamp is not None and size > clamp:
        keep = _cell_count(d, clamp)
        lost = _weighted_sum(acc[keep:], lay.weights[keep:])
        acc = acc[:keep]
    work.steps += 1
    work.cells += len(acc)
    return acc, lost


def sweep(n: int, d: int, update: Callable[[np.ndarray, Field], np.ndarray] | None = None,
          clamp: int | np.ndarray | None = None, start: Field | None = None) -> Iterator[Field]:
    """Yield F_k for k = start.step..n, with F_{k+1} = update(P F_k, F_k)
    (update None keeps P F_k) and `start` defaulting to the origin delta.

    P is `stencil_step`, clamped at radius `clamp`, or at clamp[k] on the step
    to F_k for a schedule such as `clamp_schedule`.  Each yielded field's
    `tail_bound` is the start's plus every clamp loss so far, in step order, so
    a sweep restarted from any field it yielded continues it bit for bit.  The
    arguments are checked here, before the first field.
    """
    start = Field.delta(d) if start is None else start
    if start.dim != d:
        raise ValueError(f"start field has dimension {start.dim}, not {d}")
    if n < start.step:
        raise ValueError(f"n = {n} is below the start step {start.step}")
    # the clamp of each step 0..n, from one radius or a schedule
    if clamp is None or np.ndim(clamp) == 0:
        radii = None if clamp is None else np.full(n + 1, int(clamp))
    elif len(clamp) <= n:
        raise ValueError(f"a clamp schedule of {len(clamp)} radii ends before step {n}")
    else:
        radii = np.asarray(clamp[:n + 1], dtype=np.intp)
    return _sweep(n, d, update, radii, start)


def _sweep(n, d, update, radii, f):
    yield f
    # the table grows in doubling radii up to the last step's output radius,
    # not shell by shell, and not beyond a sweep that stops early (mgf blowup)
    top, covered = f.radius + n - f.step, -1
    if radii is not None:
        top = min(top, int(radii[f.step + 1:].max(initial=0)) + 1)
    while f.step < n:
        if f.radius >= covered:
            covered = _layout(d, min(top, 2 * f.radius + 2)).radius
        pf, lost = stencil_step(f.values, d, None if radii is None else int(radii[f.step + 1]))
        f = Field(pf if update is None else update(pf, f), d, f.tail_bound + lost, f.step + 1)
        yield f


class ReversedSweep:
    """F_n, ..., F_start of `sweep(n, d, update, clamp, start)`, bit for
    bit, on every iteration: every isqrt(n - start.step)-th field is kept in
    `marks`, filled on the first iteration, and the block after each is
    recomputed from it."""

    def __init__(self, n: int, d: int, update: Callable | None = None,
                 clamp: int | np.ndarray | None = None, start: Field | None = None):
        start = Field.delta(d) if start is None else start
        sweep(n, d, update, clamp, start)  # checks the arguments
        self.n, self.start, self.args = n, start, (d, update, clamp)
        self.marks: list[Field] = []

    def __iter__(self) -> Iterator[Field]:
        n, first, every = self.n, self.start.step, max(1, math.isqrt(self.n - self.start.step))
        if not self.marks:
            self.marks = [f for f in sweep(n, *self.args, self.start)
                          if (f.step - first) % every == 0]
        for mark in reversed(self.marks):
            yield from reversed(list(sweep(min(mark.step + every - 1, n), *self.args, mark)))


def last(fields: Iterator[Field]) -> Field:
    """The final field of a sweep; the earlier ones are dropped as it runs."""
    return deque(fields, maxlen=1)[0]


def transition_field(n: int, d: int, clamp: int | np.ndarray | None = None) -> Field:
    """Exact P_n on the box of radius min(n, clamp), or clamped by a schedule.

    When clamped, the recursion kills mass at the boundary; the stored values
    are then pointwise lower bounds on P_n and `tail_bound` is the exact
    killed mass.  A `clamp_schedule(n, d, eps)` kills at most eps per step.
    """
    return last(sweep(n, d, clamp=clamp))


_DRAW_CELLS = 1 << 18  # cells per block of a row-blocked draw


def row_blocks(rows: int, width: int) -> Iterator[tuple[int, int]]:
    """Ranges [lo, hi) of about _DRAW_CELLS cells of `rows` rows of `width`
    cells.  `Generator.integers` draws the same stream whole or in row
    blocks, so a block only bounds the temporaries of a draw."""
    size = max(1, _DRAW_CELLS // max(width, 1))
    return ((lo, min(lo + size, rows)) for lo in range(0, rows, size))


def sample_srw_batch(n: int, d: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Positions S_0..S_n for `reps` independent walks: int16 array
    (reps, n+1, d), written axis by axis from the step draw, so n < 2**15."""
    if n >= 2**15:
        raise ValueError(f"n = {n} steps exceed the int16 positions (n < {2**15})")
    offs = neighborhood(d).astype(np.int16).T
    path = np.zeros((reps, n + 1, d), dtype=np.int16)
    for lo, hi in row_blocks(reps, n):
        idx = rng.integers(0, 2 * d + 1, size=(hi - lo, n))
        for a in range(d):
            np.cumsum(offs[a][idx], axis=1, dtype=np.int16, out=path[lo:hi, 1:, a])
    return path


# ---------------------------------------------------------------------------
# Clamp policy and certified tail bounds.


def clamp_schedule(n: int, d: int, eps: float = 1e-12) -> np.ndarray:
    """r_k for k = 0..n: the smallest radius in [1, max(k, 1)] at which Chernoff's
    bound on P(some coordinate leaves [-r, r] within k steps), 2d exp(k log
    m(t) - t r) with m(t) = (2d - 1 + 2 cosh t)/(2d + 1), is at most eps at some
    t of a fixed grid: r_k = ceil(min_t (k log m(t) + log(2d/eps)) / t).  The
    bound holds for the running maximum (Doob), hence for the killed sweep."""
    t = np.linspace(1e-3, 25.0, 800)
    log_m = np.log((2 * d - 1 + 2 * np.cosh(t)) / (2 * d + 1))
    k, best = np.arange(n + 1), np.full(n + 1, np.inf)
    size = max(1, (1 << 14) // (n + 1))  # t values per block: temporaries of ~2^14
    for lo in range(0, len(t), size):
        r = np.add(np.multiply.outer(k, log_m[lo:lo + size]), math.log(2 * d / eps))
        np.minimum(best, np.divide(r, t[lo:lo + size], out=r).min(axis=1), out=best)
    return np.maximum(np.minimum(np.ceil(best), k), 1).astype(np.intp)


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
    return grid[in_ball(grid, ell)].astype(np.int64)


def in_ball(sites: np.ndarray, ell: float) -> np.ndarray:
    """Whether each integer site of sites[..., d] has Euclidean norm <= ell."""
    return (np.asarray(sites, dtype=np.float64) ** 2).sum(axis=-1) <= ell**2 + 1e-9
