"""Exact deterministic recursions for the critical branching random walk.

Everything here is obtained by conditioning on the first generation:

  survival        s_{k+1} = 1 - Phi(1 - s_k)
  hitting         u_{k+1} = 1 - Phi(1 - P u_k),  u_k(x) = P{U_k(x) >= 1}
  mgf             G_{k+1}(x) = Phi(1 + P G_k(x)) - 1,  G_k(x) = E exp(theta U_k(x)) - 1
  dominating      H_1 = G_1,  H_{k+1} = (P H_k) * Phi'(1 + H_k(0)) = c_{k+1} P^k G_1
  second moment   f_k = P f_{k-1} + sigma^2 * P_k^2,   f_k(x) = E U_k(x)^2
  pmf oracle      per-site generating polynomials C_k(x) = E s^{U_k(x)},
                  C_{k+1} = Phi(P C_k) truncated at a fixed degree

plus the quadratic super-solution bump v_n(x) = kappa/(n log n) *
exp(-beta_n |x|^2 / (2n)) and its one-step inequality.

Every field recursion is P followed by a pointwise map, written here as an
update map on the one loop `lattice.sweep`, which checks the horizon and
keeps the killed mass of every clamped field, mgf and dominating included.
The survival, hitting and mgf maps all evaluate Phi(1 + y) - 1
(`OffspringDist.pgf_at_one_plus`), which has no cancellation, so a value far
below 1e-16 keeps its relative accuracy, for every offspring law.
All start from a multiple of the origin delta and vanish outside their box,
so they are symmetric under sign flips and permutations, and `lattice.Field`
stores one value per symmetry orbit; the update maps are pointwise, so they
act on the stored values directly.  `hitting_sweep`, `mgf_sweep`,
`second_moment_fields` and `pmf_oracle_sweep` yield the whole sequence, and
the single-field functions keep only its last field.  The pmf oracle alone
keeps its own full-box average, so that the checks compare two independent
computations.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .lattice import Field, clamp_schedule, last, sweep
from .offspring import OffspringDist


class MgfBlowupError(ArithmeticError):
    """Raised when an mgf recursion leaves the pgf domain ("mgf blowup at step n")."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"mgf blowup at step {step}")


class PmfTruncationError(ValueError):
    """Raised when the pmf oracle cannot certify its truncated mass below 1e-9."""


# ---------------------------------------------------------------------------
# scalar survival recursion


def survival_sequence(dist: OffspringDist, n: int) -> np.ndarray:
    """s_0..s_n with s_k = P(Z_k > 0), via s_{k+1} = 1 - Phi(1 - s_k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    s = np.empty(n + 1)
    s[0] = 1.0
    for k in range(n):
        s[k + 1] = -dist.pgf_at_one_plus(-s[k])
    return s


# ---------------------------------------------------------------------------
# hitting probability fields


def hitting_field(dist: OffspringDist, n: int, d: int = 2,
                  clamp: int | np.ndarray | None = None) -> Field:
    """u_n(x) = P{U_n(x) >= 1} started from one particle at the origin."""
    return last(hitting_sweep(dist, n, d, clamp))


def hitting_update(dist: OffspringDist) -> Callable[[np.ndarray, Field], np.ndarray]:
    """The hitting update u' = 1 - Phi(1 - Pu) of this law, as a `sweep` update
    map.  It is written -(Phi(1 + y) - 1) at y = -Pu, so a small u keeps its
    relative accuracy; for binary fission it is Pu - (Pu)^2/2 bit for bit."""
    def update(pu, _prev):
        u = dist.pgf_at_one_plus(-pu)
        return np.subtract(0.0, u, out=u)  # 0 - u, not -u: a zero stays +0.0
    return update


def hitting_sweep(dist: OffspringDist, n: int, d: int = 2,
                  clamp: int | np.ndarray | None = None) -> Iterator[Field]:
    """u_0, ..., u_n in one sweep."""
    return sweep(n, d, hitting_update(dist), clamp)


def mean_occupied(dist: OffspringDist, n: int, d: int = 2,
                  clamp: int | np.ndarray | None = None) -> tuple[float, float]:
    """(sum_x u_n(x), certified tail) — the expected number of occupied sites.

    The tail is the clamped sweep's killed mass of P u_k, summed over k < n.
    The update y -> 1 - Phi(1 - y) is nondecreasing with slope at most 1, so
    each step adds at most its killed mass to the deficit of the total."""
    u = hitting_field(dist, n, d, clamp=clamp_schedule(n, d, 1e-12) if clamp is None else clamp)
    return u.total(), u.tail_bound


# ---------------------------------------------------------------------------
# mgf and dominating fields


def mgf_field(dist: OffspringDist, n: int, theta: float, d: int = 2,
              clamp: int | np.ndarray | None = None) -> Field:
    return last(mgf_sweep(dist, n, theta, d, clamp))


def _blowup_check(dist: OffspringDist, top: float, vals, step: int):
    """vals(), unless 1 + top leaves the pgf domain or the values overflow:
    then MgfBlowupError(step)."""
    if 1.0 + top <= dist.z_max * (1 - 1e-12):
        with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
            out = vals()
        if np.all(np.isfinite(out)):
            return out
    raise MgfBlowupError(step)


def mgf_sweep(dist: OffspringDist, n: int, theta: float, d: int = 2,
              clamp: int | np.ndarray | None = None) -> Iterator[Field]:
    """G_0, ..., G_n for G_k(x;theta) = E exp(theta U_k(x)) - 1.  The update's
    slope Phi'(1 + y) >= 1 amplifies a clamp's deficit: the tail is t_{k+1} =
    Phi'(1 + max P~G~_k + t_k) (t_k + killed_k), with P~G~_k the clamped
    stencil output (largest at the origin) and killed_k the mass it drops."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    g0 = math.expm1(theta)
    if 1.0 + g0 > dist.z_max:
        raise MgfBlowupError(0)
    top = killed = tail = 0.0

    def update(pg, prev):
        nonlocal top
        top = float(pg.max())
        return _blowup_check(dist, top, lambda: np.asarray(dist.pgf_at_one_plus(pg)), prev.step + 1)
    for g in sweep(n, d, update, clamp, start=Field(np.full(1, g0), d, step=0)):
        if g.tail_bound > 0.0:
            tail = _slope(dist, 1.0 + top + tail) * (tail + g.tail_bound - killed)
        killed = g.tail_bound
        yield Field(g.values, d, tail, g.step)


def _slope(dist: OffspringDist, z: float) -> float:
    """Phi'(z), infinite beyond the pgf domain (a bound that no longer holds)."""
    return float(dist.pgf_prime(z)) if z <= dist.z_max * (1 - 1e-12) else math.inf


def dominating_field(dist: OffspringDist, n: int, theta: float, d: int = 2,
                     clamp: int | np.ndarray | None = None) -> Field:
    """H_n with H_1 = G_1 and H_{k+1} = (P H_k) * Phi'(1 + H_k(0)), in the closed
    form H_k = c_k Q_k of the sweep Q_k = P^{k-1} G_1 (P is linear), c_1 = 1 and
    c_{k+1} = c_k Phi'(1 + H_k(0)).  A clamp kills q_k of Q's mass by step k and
    lowers c~_k with Q~_k(0) >= Q_k(0) - q_k, so c_k <= c^_k, c^_{k+1} = c^_k
    Phi'(1 + c^_k (Q~_k(0) + q_k)): H_n's total is low by at most c^_n q_n +
    (c^_n - c~_n) sum Q~_n."""
    q = mgf_field(dist, 1, theta, d, clamp)
    c, top, hi = 1.0, float(q.values[0]), 1.0  # top = H_k(0), its largest value; hi = c^_k
    for nxt in sweep(n, d, clamp=clamp, start=q):  # H_n is defined for n >= 1
        if nxt.step > 1:  # c_k and H_k(0) = c_k Q_k(0), both checked for overflow
            hi *= _slope(dist, 1.0 + hi * (float(q.values[0]) + q.tail_bound))
            c, top = _blowup_check(dist, top, lambda: c * float(dist.pgf_prime(1.0 + top))
                                   * np.array([1.0, nxt.values[0]]), nxt.step).tolist()
        q = nxt
    # with nothing killed, c^_k is c~_k bit for bit and the tail is 0.0
    return Field(q.values * c, d, hi * q.tail_bound + (hi - c) * q.total(), step=n)


# ---------------------------------------------------------------------------
# exact second moments


def second_moment_field(dist: OffspringDist, n: int, d: int = 2,
                        clamp: int | np.ndarray | None = None) -> Field:
    return last(second_moment_fields(dist, n, d, clamp))


def second_moment_fields(dist: OffspringDist, n: int, d: int = 2,
                         clamp: int | np.ndarray | None = None) -> Iterator[Field]:
    """f_0, ..., f_n for f_k(x) = E U_k(x)^2: the update map f_k = P f_{k-1} +
    sigma^2 P_k^2, its source terms from a second sweep of P.  The tail
    adds f's killed mass to the sources' loss, at most sigma^2 (2 max P~_j + t_j)
    t_j at step j, since 0 <= P_j - P~_j sums to t_j, the killed mass of P~_j."""
    def sources():  # sigma^2 P~_k^2, carrying the source loss summed to step k
        lost = 0.0
        for p in sweep(n, d, clamp=clamp):
            lost += dist.sigma2 * (2.0 * float(p.values.max()) + p.tail_bound) * p.tail_bound
            yield Field(dist.sigma2 * np.square(p.values), d, lost, p.step)

    def update(pf, _prev):
        nonlocal term
        term = next(terms)
        return np.add(pf, term.values, out=pf)

    terms = sources()
    term = next(terms)  # f_0 = delta takes no source term
    for f in sweep(n, d, update, clamp):
        yield Field(f.values, d, f.tail_bound + term.tail_bound, f.step)


# ---------------------------------------------------------------------------
# exact pmf oracle (truncated per-site generating polynomials)


@dataclass
class PmfField:
    """Exact truncated pmf of U_n(x) per site of the full box {-R..R}^d.

    coeffs[..., k] = P{U_n(x) = k} for k <= degree; truncating polynomial
    products leaves the low-order coefficients exact, so the per-site deficit
    1 - sum_k coeffs is the exact mass sitting above the truncation degree
    (plus the certified epsilon dropped from infinite offspring tables).
    """

    dim: int
    radius: int
    degree: int
    coeffs: np.ndarray
    step: int

    def deficit(self) -> np.ndarray:
        return 1.0 - self.coeffs.sum(axis=-1)

    # the moment arrays below cover the full box, to compare site by site
    # with the unfolded recursions

    def hitting_values(self) -> np.ndarray:
        return 1.0 - self.coeffs[..., 0]

    def mean_field(self) -> np.ndarray:
        return self.coeffs @ np.arange(self.degree + 1, dtype=np.float64)

    def second_moment_values(self) -> np.ndarray:
        k = np.arange(self.degree + 1, dtype=np.float64)
        return self.coeffs @ (k * k)

    def pmf_at(self, site) -> np.ndarray:
        idx = tuple(int(c) + self.radius for c in site)
        return self.coeffs[idx].copy()

    def conditional_pmf_at(self, site) -> np.ndarray:
        """pmf of U_n(x) given U_n(x) >= 1 (index k-1 holds P(U=k | U>=1))."""
        p = self.pmf_at(site)
        u = 1.0 - p[0]
        if u <= 0:
            raise ValueError(f"site {tuple(site)} is unreachable at step {self.step}")
        return p[1:] / u


def _poly_mult_trunc(a: np.ndarray, b: np.ndarray, degree: int) -> np.ndarray:
    out = np.zeros_like(a)
    for k in range(degree + 1):
        out[..., k] = np.einsum("...j,...j->...", a[..., : k + 1], b[..., k::-1])
    return out


def pmf_oracle(dist: OffspringDist, n: int, d: int = 2, degree: int = 64) -> PmfField:
    """Exact law of U_n(x) truncated at `degree`: the last field of
    `pmf_oracle_sweep`, with its refusals."""
    return last(pmf_oracle_sweep(dist, n, d, degree))


def pmf_oracle_sweep(dist: OffspringDist, n: int, d: int = 2,
                     degree: int = 64) -> Iterator[PmfField]:
    """The `PmfField`s of steps 0..n in one pass, each advanced from the one
    before.  Refuses (raises) a law with too large a support before the
    first field, and a step whose exact truncated mass exceeds 1e-9 at any
    site before that step is yielded."""
    if dist.support_size > 4096:
        raise PmfTruncationError("pmf oracle needs a (truncated) support of workable size")
    coeffs = np.zeros((1,) * d + (degree + 1,))
    coeffs[(0,) * d + (1,)] = 1.0
    yield PmfField(d, 0, degree, coeffs, 0)
    for k in range(1, n + 1):
        R = (coeffs.shape[0] - 1) // 2
        size = 2 * R + 3
        src = np.zeros((2 * R + 5,) * d + (degree + 1,))
        src[..., 0] = 1.0  # outside the box U = 0 a.s., pgf identically 1
        src[tuple(slice(2, 2 * R + 3) for _ in range(d))] = coeffs
        base = tuple(slice(1, 1 + size) for _ in range(d))
        acc = src[base].copy()
        for axis in range(d):
            for shift in (1, -1):
                sl = list(base)
                sl[axis] = slice(1 + shift, 1 + shift + size)
                acc += src[tuple(sl)]
        acc /= 2 * d + 1
        # compose Phi: sum_l Q_l * acc^l with truncated powers
        out = np.zeros_like(acc)
        power = None
        prev_l = 0
        for l, q in zip(dist.support, dist.probs):
            l = int(l)
            if l == 0:
                out[..., 0] += q
                continue
            if power is None:
                power = acc.copy()
                prev_l = 1
            while prev_l < l:
                power = _poly_mult_trunc(power, acc, degree)
                prev_l += 1
            out += q * power
        coeffs = out
        pf = PmfField(d, R + 1, degree, coeffs, k)
        worst = float(pf.deficit().max())
        if worst > 1e-9:
            raise PmfTruncationError(
                f"truncated mass {worst:.3e} exceeds 1e-9 at step {k}; raise the degree")
        yield pf


# ---------------------------------------------------------------------------
# super-solution bump and comparison machinery (dimension 2, binary recursion)

BETA = 2.5


@dataclass
class SuperSolutionParams:
    kappa: float
    beta: float = BETA

    def beta_n(self, n) -> float:
        return self.beta * (1.0 - 1.0 / np.log(n))

    def value(self, n, square_norm):
        """v_n at sites of squared norm `square_norm` (module doc)."""
        return self.kappa / (n * np.log(n)) * np.exp(-self.beta_n(n) * square_norm / (2.0 * n))


KAPPA0 = 4.0 * math.exp(6.0 * BETA)  # smallest prefactor covering the core regime
_START_CAP = 256  # the largest N0 `find_supersolution_start` tries


def supersolution_field(params: SuperSolutionParams, n: int, radius: int) -> Field:
    """v_n(x) = kappa/(n log n) * exp(-beta_n |x|^2 / (2n)) on the d = 2 box of this radius."""
    if n < 2:
        raise ValueError("needs n >= 2 (log n)")
    return Field.tabulate(lambda x: params.value(n, _square_norm(x)), 2, radius, step=n)


def _square_norm(sites: np.ndarray) -> np.ndarray:
    """|x|^2 of integer sites[m, d] in their own integer type (int32 holds it
    below |x| = 2^15): exact, so it converts to the float sum of squares."""
    out = sites[:, 0] * sites[:, 0]
    for a in range(1, sites.shape[1]):
        out += sites[:, a] * sites[:, a]
    return out


def _bump_step(params: SuperSolutionParams, n: int, x: np.ndarray):
    """(Pv_n, log(Pv_n / v_{n+1})) at the integer sites x[m, 2], in closed
    form: P of the Gaussian bump is Pv_n(x) = v_n(x) (1 + 2 e^{-b/(2n)}
    (cosh(b x_1/n) + cosh(b x_2/n))) / 5 with b = beta_n, and the log ratio,
    in which kappa cancels, does not underflow where v_n and v_{n+1} do."""
    b, r2 = params.beta_n(n), _square_norm(x)
    cosh = np.cosh(b / n * x[:, 0]) + np.cosh(b / n * x[:, 1])
    gain = (1.0 + 2.0 * math.exp(-b / (2 * n)) * cosh) / 5.0
    log_ratio = (math.log((n + 1) * math.log(n + 1) / (n * math.log(n))) + np.log(gain)
                 + (params.beta_n(n + 1) / (2 * (n + 1)) - b / (2 * n)) * r2)
    return params.value(n, r2) * gain, log_ratio


def supersolution_margin(params: SuperSolutionParams, n: int):
    """The smallest relative margin of the one-step inequality v_{n+1} >=
    Pv_n (1 - Pv_n / 2) over |x| <= 3n, and its site (x1 <= x2).

    The relative margin (v_{n+1} - Pv_n (1 - Pv_n/2)) / v_{n+1} is read as
    1 - exp(log(Pv_n / v_{n+1})) (1 - Pv_n/2) (`_bump_step`), so its sign
    holds where the bump underflows (|x| near 3n from n = 256 on).
    """
    def relative(x):
        pv, log_ratio = _bump_step(params, n, x)
        return 1.0 - np.exp(log_ratio) * (1.0 - 0.5 * pv)

    S = 3 * n  # margin grid: the disk of radius 3n
    rel = Field.tabulate(relative, 2, S)
    sites = rel.sites()
    values = np.where(_square_norm(sites) <= S * S, rel.values, np.inf)
    i = int(np.argmin(values))
    x2, x1 = sites[i]
    return float(values[i]), (int(x1), int(x2))


def _regime(n: int, site) -> str:
    r2 = site[0] ** 2 + site[1] ** 2
    if r2 <= 10 * n:
        return "core"
    if r2 >= (3 * n - 1) ** 2:
        return "edge"
    return "mid"


def verify_supersolution(params: SuperSolutionParams, n_range) -> dict:
    """Direct numerical check of the one-step inequality over n_range.

    holds=False is a valid outcome: `holds` is the sign of the smallest
    relative margin, which the report carries with where it sits (the
    absolute margin is smallest at the far edge of the box, where the bump
    itself is negligible).  A non-finite kappa is rejected: its margins are
    NaN or infinite, which no comparison would flag.
    """
    if not math.isfinite(params.kappa):
        raise ValueError(f"kappa must be finite, got {params.kappa}")
    report = {"params": {"kappa": params.kappa, "beta": params.beta},
              "n_range": [int(min(n_range)), int(max(n_range))]}
    if params.kappa <= 0:
        return {**report, "holds": False, "min_relative_margin": None, "argmin": None,
                "note": "degenerate prefactor: the zero bump dominates nothing"}
    worst, arg = math.inf, None
    for n in n_range:
        rel, site = supersolution_margin(params, int(n))
        if rel < worst:
            worst, arg = rel, {"n": int(n), "x": [int(site[0]), int(site[1])],
                               "regime": _regime(int(n), site)}
    return {**report, "holds": worst >= 0, "min_relative_margin": worst, "argmin": arg}


def find_supersolution_start(kappa: float = KAPPA0) -> int:
    """Smallest N0 <= _START_CAP with nonnegative relative margin on all of [N0, 4*N0]."""
    params = SuperSolutionParams(kappa)
    n0 = 2
    while n0 <= _START_CAP:  # each n is read once: a failure at n moves N0 past it
        bad = next((n for n in range(n0, 4 * n0 + 1)
                    if supersolution_margin(params, n)[0] < 0), None)
        if bad is None:
            return n0
        n0 = bad + 1
    raise ValueError(f"no super-solution start found below {_START_CAP}")


def comparison_shift(kappa0: float = KAPPA0, n_min: int = 2) -> int:
    """Smallest N1 >= n_min with N1*log(N1) >= kappa0, so that the bump with
    prefactor N1*log(N1) starts at height 1 and dominates the point mass."""
    lo = max(n_min, 2)
    hi = max(lo, 3, math.ceil(kappa0))  # N log N >= N from N = 3 on
    return bisect.bisect_left(range(hi + 1), kappa0, lo=lo, key=lambda m: m * math.log(m))
