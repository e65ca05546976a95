"""Critical offspring laws: mean one, finite positive variance.

Built-in families:
  binary          Q_0 = Q_2 = 1/2 (double-or-nothing), sigma^2 = 1
  geometric:<m>   Q_0 = r, Q_l = (1-r)^2 r^(l-1), r = 1 - 1/m; exponential tail
  zeta:<alpha>    Q_l = c l^(-(alpha+1.5)) for l >= 2, Q_0/Q_1 forcing mean 1;
                  exactly alpha finite integer moments
  table:<l=p,...> inline finite-support law

Sampling of offspring sums is exact.  Binary fission's sum over k parents is
twice the number of set bits among k fair bits: the entries of a parent-count
array own disjoint runs of a stream of uniform 64-bit words, read block by
block as differences of prefix popcounts (`_fair_bit_counts`).  Other finite
support uses sequential binomial splitting across support values, the
geometric family uses its negative binomial closed form, and infinite-support
tables fall back to per-particle inverse-CDF draws (`sample_each`) on a cache
truncated at cumulative weight 1 - 1e-15.  `sample_kept` draws the
reduced-tree step of survival-conditioned runs.
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


class PgfDomainError(ValueError):
    """Argument outside the pgf's radius of convergence."""


@dataclass
class OffspringDist:
    name: str
    support: np.ndarray        # offspring counts l with Q_l > 0 (sorted)
    probs: np.ndarray          # Q_l for each support point
    sigma2: float
    tail_class: str            # "finite-support" | "exponential" | "polynomial"
    z_max: float               # sup of the pgf domain on the positive axis
    geo_r: float | None = None  # closed-form parameter for the geometric family
    _cdf: np.ndarray = dc_field(init=False, repr=False, default=None)

    def __post_init__(self):
        # every check is written so that NaN fails it
        q = self.probs
        if not np.all(np.isfinite(q) & (q > 0)):
            raise ValueError("support must carry finite, strictly positive weights")
        total = float(q.sum())
        mean = float((self.support * q).sum())
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

    # -- pgf and derivatives --------------------------------------------------

    def pgf(self, z):
        """Phi(z) = sum_l Q_l z^l on [0, z_max]."""
        self._check_domain(z)
        if self.geo_r is not None:
            r = self.geo_r
            return r + (1 - r) ** 2 * z / (1 - r * z)
        if self.name == "binary":
            return 0.5 + 0.5 * np.square(z) if isinstance(z, np.ndarray) else 0.5 + 0.5 * z * z
        lz = _log_of_max(np.log, z)
        return self._series(z, lambda ls, qs, zz: qs * np.power(zz, ls),
                            lambda l: l * lz < _UNDERFLOW)

    def pgf_prime(self, z):
        """Phi'(z); Phi'(1) = 1 for critical laws."""
        self._check_domain(z)
        if self.geo_r is not None:
            r = self.geo_r
            return (1 - r) ** 2 / np.square(1 - r * np.asarray(z, dtype=np.float64))
        if self.name == "binary":
            return np.asarray(z, dtype=np.float64) if isinstance(z, np.ndarray) else float(z)
        lz = _log_of_max(np.log, z)
        return self._series(z, lambda ls, qs, zz: np.where(ls >= 1, qs * ls, 0.0)
                            * np.power(zz, np.maximum(ls - 1, 0)),
                            lambda l: (l - 1) * lz < _UNDERFLOW)

    def pgf_at_one_plus(self, y):
        """Phi(1+y) - 1 in a cancellation-free form (y may be negative)."""
        yy = np.asarray(y, dtype=np.float64)
        self._check_domain(1.0 + yy)
        if self.name == "binary":
            out = yy + 0.5 * np.square(yy)
        elif self.geo_r is not None:
            r = self.geo_r
            out = (1 - r) * yy / ((1 - r) - r * yy)
        else:
            # log1p(-1) = -inf gives expm1(l * -inf) = -1, the exact 0^l - 1;
            # the discarded l = 0 branch evaluates 0 * -inf before np.where.
            # Below l log1p(y) = -50, expm1 rounds to exactly -1, so a chunk
            # adds -sum Q_l.
            ly = _log_of_max(np.log1p, y)
            with np.errstate(divide="ignore", invalid="ignore"):
                return self._series(y, lambda ls, qs, zz: np.where(
                    ls >= 1, qs * np.expm1(ls * np.log1p(zz)), 0.0),
                    lambda l: l * ly < _EXPM1_SATURATES, self._negated_chunk_sums)
        return out if isinstance(y, np.ndarray) else float(out)

    @cached_property
    def _negated_chunk_sums(self) -> np.ndarray:
        return np.array([(-self.probs[i:i + _CHUNK]).sum()
                         for i in range(0, len(self.probs), _CHUNK)])

    def _series(self, z, term, settled, settled_sums=None):
        """sum_l term(l, Q_l, z) over the table, chunk by chunk.

        The support increases, so once `settled(l)` holds for the first l of
        a chunk it holds for every later term: each is then known exactly.
        Without `settled_sums` they are all 0 and the sum ends there;
        otherwise chunk c adds settled_sums[c].  Every skip is exact: the
        result is bit-identical to summing the whole table."""
        zz = np.asarray(z, dtype=np.float64)
        acc = np.zeros_like(zz)
        for c, i in enumerate(range(0, len(self.support), _CHUNK)):
            if settled(float(self.support[i])):
                if settled_sums is None:
                    break
                acc = acc + settled_sums[c]
                continue
            ls = self.support[i:i + _CHUNK].astype(np.float64)
            qs = self.probs[i:i + _CHUNK]
            acc = acc + term(ls, qs, zz[..., None]).sum(axis=-1)
        return acc if isinstance(z, np.ndarray) else float(acc)

    def _check_domain(self, z):
        arr = np.atleast_1d(np.asarray(z, dtype=np.float64))
        if float(arr.min()) < 0 or float(arr.max()) > self.z_max * (1 + 1e-12):
            raise PgfDomainError(f"pgf argument outside [0, {self.z_max}]")

    # -- exact sampling ---------------------------------------------------------

    def sample_offspring_sum(self, k, rng: np.random.Generator):
        """Sum of k iid offspring draws (the k-fold convolution), exactly.

        `k` may be a scalar or an integer array; the output matches its shape.
        """
        karr = np.atleast_1d(np.asarray(k, dtype=np.int64))
        if np.any(karr < 0):
            raise ValueError("parent count must be >= 0")
        if self.name == "binary":
            out = _fair_bit_counts(karr, rng)
            out <<= 1  # in place: no second array of len(k)
        elif self.geo_r is not None:
            r = self.geo_r
            born = rng.binomial(karr, 1.0 - r)
            extra = np.zeros_like(born)
            pos = born > 0
            if np.any(pos):
                extra[pos] = rng.negative_binomial(born[pos], 1.0 - r)
            out = born + extra
        elif self.tail_class == "finite-support":
            out = self._sum_by_splitting(karr, rng)
        else:
            out = self._sum_by_expansion(karr, rng)
        return out if isinstance(k, np.ndarray) else int(out[0])

    def _sum_by_splitting(self, karr, rng):
        # multinomial over support values via sequential binomial splitting
        rem = karr.copy()
        remaining_p = 1.0
        out = np.zeros_like(karr)
        for l, q in zip(self.support, self.probs):
            if remaining_p <= 0 or not rem.any():
                break
            c = rng.binomial(rem, min(1.0, q / remaining_p))
            out += l * c
            rem -= c
            remaining_p -= q
        return out

    def _sum_by_expansion(self, karr, rng):
        return _segment_sum(karr, self.sample_each(int(karr.sum()), rng))

    def sample_each(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """One offspring draw for each of m particles (inverse CDF on the table)."""
        if self.is_binary:
            return rng.integers(0, 2, size=m) * 2
        u = rng.random(m) * self._cdf[-1]
        idx = np.searchsorted(self._cdf, u, side="right").clip(0, len(self.support) - 1)
        return self.support[idx]

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

        Binary fission: K = 1 + Bernoulli(s/(2-s)).  Other laws draw l from
        the size-biased table and accept it with probability
        (1-(1-s)^l)/(l s), which leaves l with its law given K >= 1 (expected
        rounds <= 1/(1-Q_0)); the first surviving child J is then a geometric
        truncated to 1..l, and K = 1 + Binomial(l-J, s)."""
        if not 0.0 < s <= 1.0:
            raise ValueError("survival probability must lie in (0, 1]")
        if self.is_binary:
            return 1 + (rng.random(m) < s / (2.0 - s))
        cdf = self._size_biased_cdf
        log_q = math.log1p(-s) if s < 1.0 else -math.inf  # log P(a child dies)
        out = np.empty(m, dtype=np.int64)
        todo = np.arange(m)
        while todo.size:
            u = rng.random(todo.size) * cdf[-1]
            l = self.support[np.searchsorted(cdf, u, side="right").clip(0, len(cdf) - 1)]
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
        r parents, for an integer array r."""
        r = np.asarray(r, dtype=np.int64)
        if self.is_binary:
            return r + rng.binomial(r, s / (2.0 - s))
        return _segment_sum(r, self.sample_kept(int(r.sum()), s, rng))


def _log_of_max(log, z) -> float:
    """log of the largest argument (-inf at 0), which bounds every term's
    exponent from above."""
    with np.errstate(divide="ignore"):
        return float(log(np.max(z)))


def _fair_bit_counts(karr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Binomial(k_i, 1/2) for every entry of karr, exactly: the set bits among
    k_i fair bits.  Each block of _FAIR_BLOCK entries draws its own
    (sum k >> 6) + 1 uniform words, and entry i owns the k_i bits after those
    of the entries before it in the block.  The set bits below bit b of the
    stream are the popcounts of its b >> 6 full words plus those of the low
    b & 63 bits of the next word; an entry's count is the difference of these
    at its run's two ends.  The draws depend only on karr and the rng state."""
    out = np.empty_like(karr)
    for lo in range(0, len(karr), _FAIR_BLOCK):
        ends = np.cumsum(karr[lo:lo + _FAIR_BLOCK])
        words = rng.integers(0, 2**64 - 1, size=(int(ends[-1]) >> 6) + 1,
                             dtype=np.uint64, endpoint=True)
        below = np.zeros(len(words) + 1, dtype=np.int64)  # set bits in words[:j]
        np.cumsum(np.bitwise_count(words), out=below[1:])
        word = ends >> 6
        upto = below[word] + np.bitwise_count(words[word] & _LOW_BITS[ends & 63])
        out[lo] = upto[0]
        np.subtract(upto[1:], upto[:-1], out=out[lo + 1:lo + len(upto)])
    return out


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
    if not (math.isfinite(m) and m > 1):
        raise ValueError(f"geometric family needs a finite m > 1, got {m}")
    r = 1.0 - 1.0 / m
    # Table for per-particle draws and inspection; offspring sums and the pgf
    # use the closed forms.  The first L litters l >= 1 carry mass
    # 1 - r - (1-r) r^L, so L is the least integer with (1-r) r^L <= _TRUNC.
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
    Q_l = c*l^(-(alpha+1.5)) for l >= 2, scale fixed by sum_{l>=2} l*Q_l = 1/2."""
    if not (math.isfinite(alpha) and alpha >= 2):
        raise ValueError(f"zeta family needs a finite alpha >= 2 (finite variance), got {alpha}")
    power = alpha + 1.5
    lmax = int(math.ceil((10.0 / _TRUNC) ** (1.0 / (power - 1.0)))) + 10
    ls = np.arange(2, lmax + 1, dtype=np.int64)
    w = ls.astype(np.float64) ** (-power)
    c = 0.5 / float((ls * w).sum())
    q = c * w
    s0 = float(q.sum())
    q0 = 0.5 - s0
    if q0 <= 0:
        raise ValueError("zeta normalization failed")
    support = np.concatenate(([0, 1], ls))
    probs = np.concatenate(([q0, 0.5], q))
    sigma2 = float((probs * support.astype(np.float64) ** 2).sum()) - 1.0
    return OffspringDist(
        name=f"zeta:{alpha:g}",
        support=support,
        probs=probs,
        sigma2=sigma2,
        tail_class="polynomial",
        z_max=1.0,
    )


def table(entries: dict[int, float], name: str = "table") -> OffspringDist:
    ls = np.array(sorted(entries), dtype=np.int64)
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
            l, p = part.split("=")
            entries[int(l)] = float(p)
        return table(entries, name=spec)
    raise ValueError(f"unknown offspring spec {spec!r}")
