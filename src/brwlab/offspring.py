"""Critical offspring laws: mean one, finite positive variance.

Built-in families:
  binary          Q_0 = Q_2 = 1/2 (double-or-nothing), sigma^2 = 1
  geometric:<m>   Q_0 = r, Q_l = (1-r)^2 r^(l-1), r = 1 - 1/m; exponential tail;
                  1 < m <= 4e4
  zeta:<alpha>    Q_l = c l^(-(alpha+1.5)) for l >= 2, Q_0/Q_1 forcing mean 1;
                  exactly alpha finite integer moments; 2 <= alpha <= 298
  table:<l=p,...> inline finite-support law, each litter size l >= 0 once

A law is a head table plus, for zeta laws, the tail c*l^(-power) on
_CHUNK..lmax kept as parameters (`PowerTail`): its sums come from
Euler-Maclaurin and the pgf series builds its chunks on demand.  The
geometric table ends where the remaining mass drops below 1e-15.

Sampling of offspring sums is exact.  Binary fission's sum over k parents is
twice the number of set bits among k fair bits: the entries of a parent-count
array own disjoint runs of a stream of uniform 64-bit words, read block by
block as differences of prefix popcounts, or bit by bit where every entry of
a block owns the same one or two bits (`_fair_bit_counts`).  Every other
law adds up per-particle draws (`sample_each`), the draws the particle engine
makes: inverse CDF on the head, and a uniform past the head's mass draws from
the tail by rejection from a continuous Pareto envelope (`PowerTail.draw`).
`sample_kept` draws the reduced-tree step of survival-conditioned runs.
For binary fission that step is a coin per kept parent, heads with
probability q = s/(2-s), mostly below 0.1; only the heads (the tails for
q > 1/2) are placed, by cumulative geometric gaps (`_success_positions`,
the skip method for Bernoulli trials in Devroye 1986).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

_TRUNC = 1e-15
_CHUNK = 4096
_FAIR_BLOCK = 1 << 16     # entries per fair-bit stream: temporaries near 3 MB
_LOW_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)  # r -> r low bits set
_UNDERFLOW = -800.0       # exp below this is under half the least subnormal: z^l rounds to 0
_EXPM1_SATURATES = -50.0  # expm1 below this rounds to exactly -1
_DENSE = 1.0              # placed coins per entry above which binomials are cheaper (measured)
# The families' double-precision limits.  Past m = 40097.5 the geometric
# table, cut where its mass is within 1e-15 of 1, misses more than 1e-9 of
# the mean; past alpha = 298.36 the zeta table's last weight, 12^-(alpha+1.5),
# underflows to zero (both measured by bisection).
_GEOMETRIC_MAX_M = 4e4
_ZETA_MAX_ALPHA = 298.0


class PgfDomainError(ValueError):
    """Argument outside the pgf's radius of convergence."""


def _power_sum(t: float, lo: int, hi: int) -> float:
    """sum_{l=lo}^{hi} l^-t for t > 1, by Euler-Maclaurin through the B_4
    term; for lo >= 4096 and t <= 6 the next term is below 1e-17 of the sum."""
    a, b = float(lo), float(hi)
    def gap(p):  # a^-p - b^-p
        return a ** -p - b ** -p
    return (-t * (t + 1) * (t + 2) * gap(t + 3) / 720 + t * gap(t + 1) / 12
            + (a ** -t + b ** -t) / 2 + gap(t - 1) / (t - 1))


@dataclass(frozen=True)
class PowerTail:
    """Weights Q_l = c*l^-power on lo <= l <= hi, kept as parameters."""
    c: float
    power: float
    lo: int
    hi: int

    def moment(self, k: int) -> float:
        """sum_l l^k Q_l over the tail."""
        return self.c * _power_sum(self.power - k, self.lo, self.hi)

    def chunk(self, first: int) -> tuple[np.ndarray, np.ndarray]:
        """Support points (as floats) and weights of the _CHUNK-long stretch
        that starts at l = first."""
        ls = np.arange(first, min(first + _CHUNK, self.hi + 1), dtype=np.float64)
        return ls, self.c * ls ** (-self.power)

    def draw(self, m: int, s: float, rng: np.random.Generator) -> np.ndarray:
        """m exact draws from P(l) proportional to l^-s on lo..hi, s > 1.

        Devroye's rejection for the Zipf law: Y has density proportional to
        y^-s on [lo, hi+1), l = floor(Y) has probability proportional to
        g(l) = int_l^{l+1} y^-s dy, and l is kept with probability
        l^-s / (M g(l)), where M = (1 + 1/lo)^s bounds l^-s / g(l)."""
        a = float(self.lo)
        span = -math.expm1((1 - s) * math.log((self.hi + 1) / a))  # 1 - ((hi+1)/lo)^(1-s)
        bound = (1 + 1 / a) ** s
        out = np.empty(m, dtype=np.int64)
        todo = np.arange(m)
        while todo.size:
            l = np.floor(a * np.exp(np.log1p(-rng.random(todo.size) * span) / (1 - s)))
            ratio = (s - 1) / (l * -np.expm1((1 - s) * np.log1p(1 / l)))  # l^-s / g(l)
            ok = (rng.random(todo.size) * bound < ratio) & (l <= self.hi)
            out[todo[ok]] = l[ok]
            todo = todo[~ok]
        return out


@dataclass
class OffspringDist:
    name: str
    support: np.ndarray        # head: offspring counts l with Q_l > 0 (sorted)
    probs: np.ndarray          # Q_l for each head support point
    sigma2: float
    tail_class: str            # "finite-support" | "exponential" | "polynomial"
    z_max: float               # sup of the pgf domain on the positive axis
    geo_r: float | None = None  # closed-form parameter for the geometric family
    tail: PowerTail | None = None  # support past the head's last point
    _cdf: np.ndarray = dc_field(init=False, repr=False, default=None)

    def __post_init__(self):
        # every check is written so that NaN fails it
        q = self.probs
        if not (np.all(np.isfinite(q) & (q > 0))
                and (self.tail is None or 0 < self.tail.c < math.inf)):
            raise ValueError("support must carry finite, strictly positive weights")
        total = float(q.sum()) + self._tail_moment(0)
        mean = float((self.support * q).sum()) + self._tail_moment(1)
        if self.tail_class == "finite-support" and not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"truncated table mass {total} too far from 1")
        if not abs(mean - 1.0) <= 1e-9:
            raise ValueError(f"offspring mean {mean} is not 1 (criticality)")
        if not self.sigma2 > 0:
            raise ValueError("offspring variance must be positive")
        self._cdf = np.cumsum(q)

    @property
    def is_binary(self) -> bool:
        return self.name == "binary"

    @property
    def support_size(self) -> int:
        """Number of support points, head and tail."""
        return len(self.support) + (0 if self.tail is None else self.tail.hi - self.tail.lo + 1)

    def _tail_moment(self, k: int) -> float:
        return 0.0 if self.tail is None else self.tail.moment(k)

    # -- pgf and derivatives --------------------------------------------------

    def pgf_prime(self, z):
        """Phi'(z); Phi'(1) = 1 for critical laws."""
        self._check_domain(z)
        if self.geo_r is not None:
            r = self.geo_r
            return (1 - r) ** 2 / np.square(1 - r * np.asarray(z, dtype=np.float64))
        lz = _log_of_max(np.log, z)
        return self._series(z, lambda ls, qs, zz: np.where(ls >= 1, qs * ls, 0.0)
                            * np.power(zz, np.maximum(ls - 1, 0)),
                            lambda l: (l - 1) * lz < _UNDERFLOW)

    def pgf_at_one_plus(self, y):
        """Phi(1+y) - 1 in a cancellation-free form (y may be negative).

        A scalar y stays a Python float throughout (the survival recursion
        calls this once per step); the result is bit-identical to the array
        path's."""
        y = y.astype(np.float64, copy=False) if isinstance(y, np.ndarray) else float(y)
        self._check_domain(y, shift=1.0)
        if self.name == "binary":  # y + y^2/2, with one temporary
            t = y * y
            t *= 0.5
            t += y
            return t
        if self.geo_r is not None:
            r = self.geo_r
            return (1 - r) * y / ((1 - r) - r * y)
        # log1p(-1) = -inf gives expm1(l * -inf) = -1, the exact 0^l - 1;
        # the discarded l = 0 branch evaluates 0 * -inf before np.where.
        # Below l log1p(y) = -50, expm1 rounds to exactly -1, so a chunk
        # adds -sum Q_l.
        ly = _log_of_max(np.log1p, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._series(y, lambda ls, qs, zz: np.where(
                ls >= 1, qs * np.expm1(ls * np.log1p(zz)), 0.0),
                lambda l: l * ly < _EXPM1_SATURATES, self._negated_chunk_sums)

    @cached_property
    def _chunk_starts(self) -> list[int]:
        """First support point of each _CHUNK-long stretch: head table
        slices, then tail stretches."""
        starts = self.support[::_CHUNK].tolist()
        if self.tail is not None:
            starts += range(self.tail.lo, self.tail.hi + 1, _CHUNK)
        return starts

    def _chunk(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Support points (as floats) and weights of stretch c; tail
        stretches are built on demand."""
        i = c * _CHUNK
        if i < len(self.support):
            return self.support[i:i + _CHUNK].astype(np.float64), self.probs[i:i + _CHUNK]
        return self.tail.chunk(self._chunk_starts[c])

    @cached_property
    def _negated_chunk_sums(self) -> np.ndarray:
        return np.array([(-self._chunk(c)[1]).sum() for c in range(len(self._chunk_starts))])

    def _series(self, z, term, settled, settled_sums=None):
        """sum_l term(l, Q_l, z) over the support, chunk by chunk.

        The support increases, so once `settled(l)` holds for the first l of
        a chunk it holds for every later term: each is then known exactly.
        Without `settled_sums` they are all 0 and the sum ends there;
        otherwise chunk c adds settled_sums[c].  Every skip is exact: the
        result is bit-identical to summing the whole support.  An array z
        sums along a trailing chunk axis, a float z along the chunk."""
        is_array = isinstance(z, np.ndarray)
        zz = z[..., None] if is_array else z
        acc = np.zeros_like(z) if is_array else 0.0
        for c, first in enumerate(self._chunk_starts):
            if settled(float(first)):
                if settled_sums is None:
                    break
                acc = acc + settled_sums[c]
                continue
            ls, qs = self._chunk(c)
            acc = acc + term(ls, qs, zz).sum(axis=-1)
        return acc if is_array else float(acc)

    def _check_domain(self, z, shift: float = 0.0):
        """PgfDomainError unless shift + z lies in the domain.  Written so that
        NaN fails it; rounding is monotone, so shift + min(z) = min(shift + z)
        and no shifted copy of z is made."""
        lo, hi = (float(z.min()), float(z.max())) if isinstance(z, np.ndarray) else (z, z)
        if not (0.0 <= shift + lo and shift + hi <= self.z_max * (1 + 1e-12)):
            raise PgfDomainError(f"pgf argument outside [0, {self.z_max}]")

    # -- exact sampling ---------------------------------------------------------

    def sample_offspring_sum(self, k, rng: np.random.Generator):
        """Sum of k iid offspring draws (the k-fold convolution), exactly.

        `k` may be a scalar or an integer array; the output matches its shape.
        """
        karr = np.atleast_1d(np.asarray(k, dtype=np.int64))
        if karr.min(initial=0) < 0:  # one reduction, no mask of len(k)
            raise ValueError("parent count must be >= 0")
        if self.is_binary:
            out = _fair_bit_counts(karr, rng)
            out <<= 1  # in place: no second array of len(k)
        else:
            out = _segment_sum(karr, self.sample_each(int(karr.sum()), rng))
        return out if isinstance(k, np.ndarray) else int(out[0])

    def sample_each(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """One offspring draw for each of m particles."""
        if self.is_binary:
            return rng.integers(0, 2, size=m) * 2
        return self._draw(self._cdf, 0, m, rng)

    def _draw(self, cdf, bias, m, rng) -> np.ndarray:
        """m draws of l with weight l^bias Q_l: inverse CDF on the head
        (cumulative weights `cdf`), and a uniform past the head's mass draws
        from the tail."""
        idx = np.searchsorted(cdf, rng.random(m) * (cdf[-1] + self._tail_moment(bias)),
                              side="right")
        l = self.support.take(idx, mode="clip")  # past the head: the last head point
        if self.tail is not None:
            far = idx == len(cdf)
            if far.any():
                l[far] = self.tail.draw(int(far.sum()), self.tail.power - bias, rng)
        return l

    # -- reduced-tree (survival-conditioned) sampling ---------------------------

    @cached_property
    def _size_biased_cdf(self) -> np.ndarray:
        # l*Q_l sums to the mean, 1: the size-biased law, fixed per law
        return np.cumsum(self.support * self.probs)

    def sample_kept(self, m: int, s: float, rng: np.random.Generator) -> np.ndarray:
        """Surviving-children counts K >= 1 for m parents, each conditioned on
        at least one surviving child, when every child survives independently
        with probability s:
        P(l, K) = Q_l C(l, K) s^K (1-s)^(l-K) / (1 - Phi(1-s)).

        Binary fission: K = 1 + Bernoulli(s/(2-s)), with the coins that come
        up placed by geometric gaps (module doc).  Other laws draw l from
        the size-biased law and accept it with probability
        (1-(1-s)^l)/(l s), which leaves l with its law given K >= 1 (expected
        rounds <= 1/(1-Q_0)); the first surviving child J is then a geometric
        truncated to 1..l, and K = 1 + Binomial(l-J, s)."""
        if not 0.0 < s <= 1.0:
            raise ValueError("survival probability must lie in (0, 1]")
        if self.is_binary:
            q = s / (2.0 - s)
            if q == 1.0:
                return np.full(m, 2, dtype=np.int64)
            flip = q > 0.5  # place the failures instead
            out = np.full(m, 2 if flip else 1, dtype=np.int64)
            at = _success_positions(m, min(q, 1.0 - q), rng)
            at -= 1
            out[at] = 1 if flip else 2
            return out
        cdf = self._size_biased_cdf
        log_q = math.log1p(-s) if s < 1.0 else -math.inf  # log P(a child dies)
        out = np.empty(m, dtype=np.int64)
        todo = np.arange(m)
        while todo.size:
            l = self._draw(cdf, 1, todo.size, rng)
            hit = -np.expm1(l * log_q)  # P(some child of l survives)
            ok = rng.random(todo.size) * (l * s) < hit
            l, hit = l[ok], hit[ok]
            first = np.ceil(np.log1p(-rng.random(l.size) * hit) / log_q)
            first = first.clip(1, l).astype(np.int64)
            out[todo[ok]] = 1 + rng.binomial(l - first, s)
            todo = todo[~ok]
        return out

    def sample_kept_sum(self, r, s: float, rng: np.random.Generator) -> np.ndarray:
        """Next reduced-tree generation sizes: the sum of `sample_kept` over
        r parents, for an integer array r.  Binary fission adds
        Binomial(r_i, s/(2-s)) kept coins (`_bernoulli_counts`)."""
        r = np.asarray(r, dtype=np.int64)
        if self.is_binary:
            return r + _bernoulli_counts(r, s / (2.0 - s), rng)
        return _segment_sum(r, self.sample_kept(int(r.sum()), s, rng))


def _log_of_max(log, z) -> float:
    """log of the largest argument (-inf at 0), which bounds every term's
    exponent from above."""
    with np.errstate(divide="ignore"):
        return float(log(np.max(z) if isinstance(z, np.ndarray) else z))


def _fair_bit_counts(karr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Binomial(k_i, 1/2) for every entry of karr, exactly: the set bits among
    k_i fair bits.  Each block of _FAIR_BLOCK entries draws its own
    (sum k >> 6) + 1 uniform words, and entry i owns the k_i bits after those
    of the entries before it in the block.  The set bits below bit b of the
    stream are the popcounts of its b >> 6 full words plus those of the low
    b & 63 bits of the next word; an entry's count is the difference of these
    at its run's two ends.  The draws depend only on karr and the rng state.

    A block whose entries all own the same c = 1 or 2 bits (a population
    batch's first generation is all ones, its second all twos) reads its
    counts bit by bit instead (`_constant_fair_bits`).  It draws the same
    (c len >> 6) + 1 words, since its bits end at c len, and bit b of the
    stream is bit b & 63 of word b >> 6 in both readings, so every count and
    every later draw are the word path's."""
    out = np.empty_like(karr)
    for lo in range(0, len(karr), _FAIR_BLOCK):
        block = karr[lo:lo + _FAIR_BLOCK]
        c = int(block[0])
        if c in (1, 2) and block.max() == c == block.min():
            out[lo:lo + len(block)] = _constant_fair_bits(c, len(block), rng)
            continue
        ends = np.cumsum(block)
        words = _fair_words(int(ends[-1]), rng)
        below = np.zeros(len(words) + 1, dtype=np.int64)  # set bits in words[:j]
        np.cumsum(np.bitwise_count(words), out=below[1:])
        word = ends >> 6
        upto = below[word] + np.bitwise_count(words[word] & _LOW_BITS[ends & 63])
        out[lo] = upto[0]
        np.subtract(upto[1:], upto[:-1], out=out[lo + 1:lo + len(upto)])
    return out


def _fair_words(bits: int, rng: np.random.Generator) -> np.ndarray:
    """The (bits >> 6) + 1 uniform words of a block whose runs end at bit
    `bits`."""
    return rng.integers(0, 2**64 - 1, size=(bits >> 6) + 1, dtype=np.uint64, endpoint=True)


def _constant_fair_bits(c: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """`_fair_bit_counts` of m entries that each own c = 1 or 2 bits: entry i
    owns stream bits c i .. c i + c - 1, read least significant bit first."""
    words = _fair_words(c * m, rng)
    bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         count=c * m, bitorder="little")
    return bits if c == 1 else bits[0::2] + bits[1::2]


def _success_positions(trials: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted positions (1-based) of the successes among `trials` iid
    Bernoulli(p) trials, 0 < p < 1: cumulative sums of geometric gaps, drawn
    in chunks of the expected remaining count plus four standard deviations
    until a position passes `trials`.  Gaps are capped at trials + 1 (any
    such gap ends the run), so the sums cannot overflow."""
    chunks, last = [], 0
    while last <= trials:
        mean = (trials - last) * p
        gaps = rng.geometric(p, size=int(mean + 4 * math.sqrt(mean)) + 8)
        np.minimum(gaps, trials + 1, out=gaps)
        gaps[0] += last
        chunks.append(np.cumsum(gaps, out=gaps))
        last = int(gaps[-1])
    pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return pos[:np.searchsorted(pos, trials, side="right")]


def _bernoulli_counts(r: np.ndarray, q: float, rng: np.random.Generator) -> np.ndarray:
    """Binomial(r_i, q) for every entry of the integer array r, exactly.

    Entry i owns r_i consecutive trials of one run; only the successes are
    placed (the failures for q > 1/2, returning r - x), by geometric gaps
    (`_success_positions`), and counted per entry.  Where the placed count
    T*min(q, 1-q) exceeds _DENSE per entry, one binomial draw per entry is
    cheaper and is made instead."""
    if q == 1.0:
        return r.copy()
    p = min(q, 1.0 - q)
    ends = np.cumsum(r)
    trials = int(ends[-1]) if len(ends) else 0
    if trials * p > _DENSE * len(r):
        return rng.binomial(r, q)
    x = np.bincount(np.searchsorted(ends, _success_positions(trials, p, rng)), minlength=len(r))
    return r - x if q > 0.5 else x


def _segment_sum(counts: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of `draws`, counts[i] draws for entry i."""
    out = np.zeros_like(counts)
    if draws.size:
        np.add.at(out, np.repeat(np.arange(len(counts)), counts), draws)
    return out


# ---------------------------------------------------------------------------
# Built-in families.


def binary() -> OffspringDist:
    return OffspringDist(
        name="binary",
        support=np.array([0, 2], dtype=np.int64),
        probs=np.array([0.5, 0.5]),
        sigma2=1.0,
        tail_class="finite-support",
        z_max=math.inf,
    )


def geometric(m: float) -> OffspringDist:
    """Exponential-tail family; m > 1 is the mean offspring count of parents
    that reproduce at all.  m = 2 gives the standard critical geometric law."""
    if not (math.isfinite(m) and 1 < m <= _GEOMETRIC_MAX_M):
        raise ValueError(f"geometric family needs a finite m with 1 < m <= {_GEOMETRIC_MAX_M:g}"
                         f" (tabulable in double precision), got {m}")
    r = 1.0 - 1.0 / m
    # Table for draws and inspection; the pgf uses the closed forms.  The
    # first L litters l >= 1 carry mass 1 - r - (1-r) r^L, so L is the least
    # integer with (1-r) r^L <= _TRUNC.
    L = min(max(1, math.ceil(math.log(_TRUNC / (1 - r)) / math.log(r))), 5_000_000)
    qs = np.cumprod(np.concatenate(([(1 - r) ** 2], np.full(L - 1, r))))
    return OffspringDist(
        name=f"geometric:{m:g}",
        support=np.arange(L + 1, dtype=np.int64),
        probs=np.concatenate(([r], qs)),
        sigma2=2 * r / (1 - r),
        tail_class="exponential",
        z_max=1.0 / r,
        geo_r=r,
    )


def zeta(alpha: float) -> OffspringDist:
    """Polynomial-tail family with exactly `alpha` finite integer moments:
    Q_l = c*l^(-(alpha+1.5)) for 2 <= l <= lmax, scale fixed by
    sum_{l>=2} l*Q_l = 1/2.  The table holds l < _CHUNK; the rest of the
    support is a `PowerTail`."""
    if not (math.isfinite(alpha) and 2 <= alpha <= _ZETA_MAX_ALPHA):
        raise ValueError(f"zeta family needs a finite alpha with 2 <= alpha <= {_ZETA_MAX_ALPHA:g}"
                         f" (finite variance, tabulable in double precision), got {alpha}")
    power = alpha + 1.5
    lmax = int(math.ceil((10.0 / _TRUNC) ** (1.0 / (power - 1.0)))) + 10
    top = min(lmax, _CHUNK - 1)
    ls = np.arange(2, top + 1, dtype=np.int64)
    w = ls.astype(np.float64) ** (-power)
    has_tail = lmax > top
    c = 0.5 / (float((ls * w).sum()) + (_power_sum(power - 1, top + 1, lmax) if has_tail else 0.0))
    tail = PowerTail(c, power, top + 1, lmax) if has_tail else None
    q = c * w
    s0 = float(q.sum()) + (tail.moment(0) if has_tail else 0.0)
    q0 = 0.5 - s0
    if q0 <= 0:
        raise ValueError("zeta normalization failed")
    support = np.concatenate(([0, 1], ls))
    probs = np.concatenate(([q0, 0.5], q))
    sigma2 = (float((probs * support.astype(np.float64) ** 2).sum())
              + (tail.moment(2) if has_tail else 0.0) - 1.0)
    return OffspringDist(
        name=f"zeta:{alpha:g}",
        support=support,
        probs=probs,
        sigma2=sigma2,
        tail_class="polynomial",
        z_max=1.0,
        tail=tail,
    )


def table(entries: dict[int, float], name: str = "table") -> OffspringDist:
    ls = np.array(sorted(entries), dtype=np.int64)
    if ls.size and ls[0] < 0:
        raise ValueError(f"litter sizes must be >= 0, got {ls[0]}")
    qs = np.array([entries[int(l)] for l in ls])
    sigma2 = float((qs * ls.astype(np.float64) ** 2).sum()) - 1.0
    return OffspringDist(
        name=name,
        support=ls,
        probs=qs,
        sigma2=sigma2,
        tail_class="finite-support",
        z_max=math.inf,
    )


def parse_offspring(spec: str) -> OffspringDist:
    """Config syntax: binary | geometric:<m> | zeta:<alpha> | table:l=p,l=p,..."""
    spec = spec.strip()
    if spec == "binary":
        return binary()
    if spec.startswith("geometric:"):
        return geometric(float(spec.split(":", 1)[1]))
    if spec.startswith("zeta:"):
        return zeta(float(spec.split(":", 1)[1]))
    if spec.startswith("table:"):
        entries = {}
        for part in spec.split(":", 1)[1].split(","):
            l, _, p = part.partition("=")
            try:
                litter, prob = int(l), float(p)
            except ValueError:
                raise ValueError(f"table entry {part!r} is not <litter size>=<probability>") from None
            if litter in entries:
                raise ValueError(f"table lists litter size {litter} twice")
            entries[litter] = prob
        return table(entries, name=spec)
    raise ValueError(f"unknown offspring spec {spec!r}")
