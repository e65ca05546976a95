"""Exact deterministic recursions for the critical branching random walk.

Everything here is obtained by conditioning on the first generation:

  survival        s_{k+1} = 1 - Phi(1 - s_k)
  hitting         u_k(x) = P{U_k(x) >= 1}; binary form u_{k+1} = Pu_k - (Pu_k)^2/2,
                  general form via extinction fields h_{k+1} = Phi(P h_k)
  mgf             G_{k+1}(x) = Phi(1 + P G_k(x)) - 1,  G_k(x) = E exp(theta U_k(x)) - 1
  dominating      H_1 = G_1,  H_{k+1} = (P H_k) * Phi'(1 + H_k(0))
  second moment   f_k = P f_{k-1} + sigma^2 * P_k^2,   f_k(x) = E U_k(x)^2
  pmf oracle      per-site generating polynomials C_k(x) = E s^{U_k(x)},
                  C_{k+1} = Phi(P C_k) truncated at a fixed degree

plus the quadratic super-solution bump v_n(x) = kappa/(n log n) *
exp(-beta_n |x|^2 / (2n)) and its one-step inequality.

Every field recursion is P followed by a pointwise map, written here as an
update map on the one loop `lattice.sweep`, which checks the horizon and
keeps the killed mass of every clamped field, mgf and dominating included.
All start from the origin delta (or a constant), so they are symmetric under
sign flips and permutations, and `lattice.Field` stores one value per
symmetry orbit; the update maps are pointwise, so they act on the stored
values directly.  The `*_sweep` functions yield the whole sequence, the
single-field ones keep only its last field.  The pmf oracle alone keeps its
own full-box average, so that the checks compare two independent computations.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .lattice import Field, clamp_radius, last, stencil_step, sweep, transition_field
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
    s = np.empty(n + 1)
    s[0] = 1.0
    for k in range(n):
        s[k + 1] = -dist.pgf_at_one_plus(-s[k])
    return s


def survival_prob(dist: OffspringDist, n: int) -> float:
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(survival_sequence(dist, n)[n])


# ---------------------------------------------------------------------------
# hitting probability fields


def hitting_field(dist: OffspringDist, n: int, d: int = 2,
                  clamp: int | None = None, method: str = "auto") -> Field:
    """u_n(x) = P{U_n(x) >= 1} started from one particle at the origin.

    method "kpp" (binary only) iterates u <- Pu - (Pu)^2/2 directly;
    method "pgf" iterates extinction fields h <- Phi(P h) with h_0 = 1 - delta
    and returns 1 - h.  "auto" picks kpp for binary fission.
    """
    return last(hitting_sweep(dist, n, d, clamp, method))


def kpp_update(pu: np.ndarray, _prev: Field) -> np.ndarray:
    """The binary hitting update u' = Pu - (Pu)^2/2, as a `sweep` update map."""
    return pu - 0.5 * np.square(pu)


def hitting_sweep(dist: OffspringDist, n: int, d: int = 2, clamp: int | None = None,
                  method: str = "auto") -> Iterator[Field]:
    """u_0, ..., u_n in one sweep."""
    if method == "auto":
        method = "kpp" if dist.is_binary else "pgf"
    if method == "kpp" and not dist.is_binary:
        raise ValueError("the quadratic recursion form is binary-only")
    if method == "kpp":
        return sweep(n, d, kpp_update, clamp)
    # h_0 = 1 - delta; the pad supplies the ones outside the box
    hs = sweep(n, d, lambda ph, _: np.asarray(dist.pgf(ph)), clamp, pad=1.0,
               start=Field(np.zeros(1), d, step=0))
    return (dataclasses.replace(h, values=1.0 - h.values) for h in hs)


def mean_occupied(dist: OffspringDist, n: int, d: int = 2,
                  clamp: int | None = None) -> tuple[float, float]:
    """(sum_x u_n(x), certified tail) — the expected number of occupied sites.

    The out-of-box deficit is at most the transition-field tail, since
    u_n <= P_n pointwise."""
    if clamp is None:
        clamp = clamp_radius(n, d, 1e-12) if n > 16 else None
    u = hitting_field(dist, n, d, clamp=clamp)
    tail = transition_field(n, d, clamp=clamp).tail_bound if clamp is not None else 0.0
    return u.total(), tail


# ---------------------------------------------------------------------------
# mgf and dominating fields


def mgf_field(dist: OffspringDist, n: int, theta: float, d: int = 2,
              clamp: int | None = None) -> Field:
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
              clamp: int | None = None) -> Iterator[Field]:
    """G_0, ..., G_n for G_k(x;theta) = E exp(theta U_k(x)) - 1."""
    if theta < 0:
        raise ValueError("theta must be >= 0")
    g0 = math.expm1(theta)
    if 1.0 + g0 > dist.z_max:
        raise MgfBlowupError(0)

    def update(pg, prev):
        return _blowup_check(dist, float(pg.max()),
                             lambda: np.asarray(dist.pgf_at_one_plus(pg)), prev.step + 1)
    return sweep(n, d, update, clamp, start=Field(np.full(1, g0), d, step=0))


def dominating_field(dist: OffspringDist, n: int, theta: float, d: int = 2,
                     clamp: int | None = None) -> Field:
    """H_n with H_1 = G_1 and H_{k+1} = (P H_k) * Phi'(1 + H_k(0)).

    The iterative values are cross-checked against the closed product form
    H_n(x) = P_n(x) * (2d+1) * H_1(0) * prod_{j<n} Phi'(1 + H_j(0)) to 1e-10.
    """
    g1 = mgf_field(dist, 1, theta, d, clamp)

    def update(ph, prev):
        h0 = float(prev.values.flat[0])
        return _blowup_check(dist, h0, lambda: ph * float(dist.pgf_prime(1.0 + h0)),
                             prev.step + 1)
    prod = float(g1.values.flat[0]) * (2 * d + 1)
    for out in sweep(n, d, update, clamp, start=g1):  # H_n is defined for n >= 1
        if out.step < n:
            prod *= float(dist.pgf_prime(1.0 + float(out.values.flat[0])))
    err = float(np.abs(transition_field(n, d, clamp=clamp).values * prod - out.values).max())
    if err > 1e-10:
        raise AssertionError(f"closed product form deviates by {err}")
    return out


# ---------------------------------------------------------------------------
# exact second moments


def second_moment_field(dist: OffspringDist, n: int, d: int = 2,
                        clamp: int | None = None) -> Field:
    return second_moment_sweep(dist, n, d, clamp)[0]


def second_moment_sweep(dist: OffspringDist, n: int, d: int = 2,
                        clamp: int | None = None):
    """(f_n, sums) where f_n(x) = E U_n(x)^2 and sums[k] = sum_x f_k(x).

    Linear recursion f_k = P f_{k-1} + sigma^2 * P_k^2 from first-generation
    conditioning; P_k is advanced alongside on the same box, and its killed
    mass is the `tail_bound` of f_n.
    """
    ps = sweep(n, d, clamp=clamp)
    p = next(ps)
    f = p.values  # f_0 = delta
    sums = np.empty(n + 1)
    sums[0] = 1.0
    for p in ps:
        f, _ = stencil_step(f, d, clamp=clamp)
        f += dist.sigma2 * np.square(p.values)
        sums[p.step] = Field(f, d).total()
    return Field(f, d, p.tail_bound, step=n), sums


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
    """Exact law of U_n(x) truncated at `degree`; refuses (raises) when the
    exact truncated mass exceeds 1e-9 at any site."""
    if len(dist.support) > 4096:
        raise PmfTruncationError("pmf oracle needs a (truncated) support of workable size")
    coeffs = np.zeros((1,) * d + (degree + 1,))
    coeffs[(0,) * d + (1,)] = 1.0
    for k in range(n):
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
    pf = PmfField(d, (coeffs.shape[0] - 1) // 2, degree, coeffs, n)
    worst = float(pf.deficit().max())
    if worst > 1e-9:
        raise PmfTruncationError(
            f"truncated mass {worst:.3e} exceeds 1e-9 at step {n}; raise the degree")
    return pf


# ---------------------------------------------------------------------------
# super-solution bump and comparison machinery (dimension 2, binary recursion)

BETA = 2.5


@dataclass
class SuperSolutionParams:
    kappa: float
    beta: float = BETA

    def beta_n(self, n) -> float:
        return self.beta * (1.0 - 1.0 / np.log(n))

    def amplitude(self, n) -> float:
        return self.kappa / (n * np.log(n))


KAPPA0 = 4.0 * math.exp(6.0 * BETA)  # smallest prefactor covering the core regime


def supersolution_field(params: SuperSolutionParams, n: int, d: int = 2,
                        radius: int | None = None) -> Field:
    """v_n(x) = kappa/(n log n) * exp(-beta_n |x|^2 / (2n)) on a centered box."""
    if d != 2:
        raise ValueError("the super-solution construction is two-dimensional")
    if n < 2:
        raise ValueError("needs n >= 2 (log n)")
    if radius is None:
        radius = 3 * n
    amp, beta = params.amplitude(n), params.beta_n(n)
    return Field.tabulate(lambda x: amp * np.exp(-beta * _square_norm(x) / (2.0 * n)),
                          2, radius, step=n)


def _square_norm(sites: np.ndarray) -> np.ndarray:
    return (sites.astype(np.float64) ** 2).sum(axis=-1)


def supersolution_margin(params: SuperSolutionParams, n: int):
    """Margins of the one-step inequality v_{n+1} >= Pv_n (1 - Pv_n / 2) over
    |x| <= 3n, with Pv_n from the stencil on the box of radius 3n + 1.

    Returns (min margin, min relative margin, argmin site (x1 <= x2) of the
    relative margin); the relative margin is (v_{n+1} - Pv_n (1 - Pv_n/2)) /
    v_{n+1}, taken where v_{n+1} does not underflow to 0.
    """
    S = 3 * n  # margin grid: the box of radius 3n
    pv, _ = stencil_step(supersolution_field(params, n, radius=S + 1).values, 2, clamp=S)
    v_next = supersolution_field(params, n + 1, radius=S)
    margin = v_next.values - pv * (1.0 - 0.5 * pv)
    sites = v_next.sites()
    inside = _square_norm(sites) <= (3.0 * n) ** 2
    rel = np.divide(margin, v_next.values, out=np.full_like(margin, np.inf),
                    where=inside & (v_next.values > 0.0))
    i = int(np.argmin(rel))
    x2, x1 = sites[i]
    return float(np.where(inside, margin, np.inf).min()), float(rel[i]), (int(x1), int(x2))


def _regime(n: int, site) -> str:
    r2 = site[0] ** 2 + site[1] ** 2
    if r2 <= 10 * n:
        return "core"
    if r2 >= (3 * n - 1) ** 2:
        return "edge"
    return "mid"


def verify_supersolution(params: SuperSolutionParams, n_range) -> dict:
    """Direct numerical check of the one-step inequality over n_range.

    holds=False is a valid outcome.  The report carries the smallest relative
    margin and where it sits (the absolute margin is smallest at the far edge
    of the box, where the bump itself is negligible).  A non-finite kappa is
    rejected: its margins are NaN, which no comparison would flag.
    """
    if not math.isfinite(params.kappa):
        raise ValueError(f"kappa must be finite, got {params.kappa}")
    if params.kappa <= 0:
        return {"params": {"kappa": params.kappa, "beta": params.beta},
                "n_range": [int(min(n_range)), int(max(n_range))], "holds": False,
                "min_relative_margin": None, "argmin": None,
                "note": "degenerate prefactor: the zero bump dominates nothing"}
    worst = math.inf
    arg = None
    holds = True
    for n in n_range:
        m, rel, site = supersolution_margin(params, int(n))
        if rel < worst:
            worst, arg = rel, {"n": int(n), "x": [int(site[0]), int(site[1])],
                               "regime": _regime(int(n), site)}
        if m < 0:
            holds = False
    return {
        "params": {"kappa": params.kappa, "beta": params.beta},
        "n_range": [int(min(n_range)), int(max(n_range))],
        "holds": holds,
        "min_relative_margin": worst,
        "argmin": arg,
    }


def find_supersolution_start(kappa: float = KAPPA0, cap: int = 256) -> int:
    """Smallest N0 <= cap with nonnegative margin on all of [N0, 4*N0]."""
    params = SuperSolutionParams(kappa)
    n0 = 2
    margins: dict[int, float] = {}

    def margin(n: int) -> float:
        if n not in margins:
            margins[n] = supersolution_margin(params, n)[0]
        return margins[n]

    while n0 <= cap:
        bad = None
        for n in range(n0, 4 * n0 + 1):
            if margin(n) < 0:
                bad = n
                break
        if bad is None:
            return n0
        n0 = bad + 1
    raise ValueError(f"no super-solution start found below {cap}")


def comparison_shift(kappa0: float = KAPPA0, n_min: int = 2) -> int:
    """Smallest N1 >= n_min with N1*log(N1) >= kappa0, so that the bump with
    prefactor N1*log(N1) starts at height 1 and dominates the point mass."""
    lo, hi = max(n_min, 2), 2
    while hi * math.log(hi) < kappa0:
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * math.log(mid) >= kappa0:
            hi = mid
        else:
            lo = mid + 1
    return max(hi, n_min)
