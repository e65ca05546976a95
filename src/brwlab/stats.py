"""Estimators, confidence intervals, and goodness-of-fit tests for the
simulation harness.  Everything here is a pure function of its sample arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class EstimateCI:
    mean: float
    std_error: float
    reps: int
    q10: float
    q50: float
    q90: float

    @classmethod
    def from_samples(cls, x) -> "EstimateCI":
        """Mean, its standard error and the 10/50/90% quantiles."""
        x = np.asarray(x, dtype=np.float64)
        if len(x) < 2:
            raise ValueError("need at least 2 samples")
        return cls(float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x))), len(x),
                   *(float(q) for q in np.quantile(x, [0.1, 0.5, 0.9])))


@dataclass
class ReportRow:
    theorem: str
    n: int
    d: int
    offspring: str
    statistic: str
    value: float
    band: str
    passed: bool
    soft: bool = False
    # strict expected failure: evaluated and reported like any hard row, but
    # the gate requires it to fail and breaks if it passes
    expect_fail: bool = False

    @property
    def as_expected(self) -> bool:
        return self.passed != self.expect_fail

    CSV_HEADER = "theorem,n,d,offspring,statistic,value,band,passed,soft"

    def to_csv(self) -> str:
        return (f"{self.theorem},{self.n},{self.d},{self.offspring},"
                f"{self.statistic},{self.value!r},{self.band},"
                f"{int(self.passed)},{int(self.soft)}")


def _kolmogorov_sf(y: float) -> float:
    """P(sup |Brownian bridge| > y) by the theta series of Kolmogorov's law
    (Marsaglia, Tsang & Wang 2003); both truncations are below 1e-16."""
    if y <= 0:
        return 1.0
    if y < 1:
        t = np.exp(-((2 * np.arange(1, 8) - 1) * math.pi) ** 2 / (8 * y * y))
        return 1.0 - math.sqrt(2 * math.pi) / y * math.fsum(t)
    k = np.arange(1, 12)
    return 2.0 * math.fsum((-1.0) ** (k - 1) * np.exp(-2.0 * k * k * y * y))


def _chi2_sf(dof: int, stat: float) -> float:
    """Chi-square upper tail Q(dof/2, stat/2) at integer dof >= 1, a finite
    Poisson/erfc sum (Abramowitz & Stegun 26.4.4-5).  With x = stat/2,
    m = dof // 2 and a = (dof % 2)/2 it is [erfc(sqrt x) if dof is odd] +
    sum_{k<m} e^-x x^(k+a) / Gamma(k+a+1); each term is formed in log space,
    so e^-x never underflows on its own."""
    if stat <= 0:
        return 1.0
    x, m, a = 0.5 * stat, dof // 2, 0.5 * (dof % 2)
    steps = np.cumsum(math.log(x) - np.log(np.arange(1, m) + a))  # log x/(k+a)
    logs = (a * math.log(x) - x - math.lgamma(1 + a)) + np.concatenate(([0.0], steps))[:m]
    return math.fsum([math.erfc(math.sqrt(x)) if a else 0.0, *np.exp(logs)])


def ks_against_exponential(samples, mean: float) -> dict:
    """One-sample Kolmogorov-Smirnov distance to Exp(mean); asymptotic
    p-value, passed at level 0.05."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n < 100:
        raise ValueError("need at least 100 samples")
    cdf = -np.expm1(-x / mean)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    d = float(max(np.abs(cdf - hi).max(), np.abs(cdf - lo).max()))
    p = _kolmogorov_sf(math.sqrt(n) * d)
    return {"D": d, "n": n, "p_value": p, "passed": p > 0.05}


def chi_square(observed, probs) -> dict:
    """Pearson chi-square of an observed histogram against exact cell
    probabilities; trailing cells are pooled until every expected count is
    at least 5."""
    obs = np.asarray(observed, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if len(obs) != len(p):
        raise ValueError("histogram and probabilities must align")
    total = obs.sum()
    rest = 1.0 - p.sum()
    if rest > 1e-12:  # implicit everything-else cell
        obs = np.append(obs, 0.0)
        p = np.append(p, rest)
    exp = total * p
    # pool adjacent cells from the tail until every group reaches the minimum
    groups: list[tuple[float, float]] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs[::-1], exp[::-1]):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            groups.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if not groups:
            raise ValueError("too few samples for the minimum expected count")
        acc_o += groups[-1][0]
        acc_e += groups[-1][1]
        groups[-1] = (acc_o, acc_e)
    obs_g = np.array([g[0] for g in reversed(groups)])
    exp_g = np.array([g[1] for g in reversed(groups)])
    if len(exp_g) < 2:
        raise ValueError("pooling left a single cell; nothing to test")
    stat = float(((obs_g - exp_g) ** 2 / exp_g).sum())
    dof = len(exp_g) - 1
    return {"stat": stat, "dof": dof, "p_value": _chi2_sf(dof, stat)}


def tightness_table(samples_by_n: dict[int, np.ndarray], normalizer,
                    ratio_bound: float) -> dict:
    """Stability of the 90% quantile of X_n / f(n) across a geometric n grid."""
    qs = {n: float(np.quantile(np.asarray(x) / normalizer(n), 0.9))
          for n, x in sorted(samples_by_n.items())}
    vals = list(qs.values())
    ratio = max(vals) / min(vals) if min(vals) > 0 else math.inf
    return {"quantiles": qs, "ratio": ratio, "bound": ratio_bound,
            "passed": ratio <= ratio_bound}


def kappa_estimates(m_hist: np.ndarray, z: np.ndarray, overflow_mass: np.ndarray) -> dict:
    """Conditional multiplicity fractions kappa_j ~ mean of M_n(j)/Z_n.

    m_hist: (reps, J) histogram, z: (reps,) populations (all > 0),
    overflow_mass: (reps,) particle mass above the histogram cap.
    """
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0):
        raise ValueError("kappa estimates need surviving replicates")
    J = m_hist.shape[1]
    ratios = m_hist / z[:, None]
    reps = len(z)
    kappa = ratios.mean(axis=0)
    se = ratios.std(axis=0, ddof=1) / math.sqrt(reps)
    j = np.arange(1, J + 1)
    weighted = float((kappa * j).sum() + (overflow_mass / z).mean())
    return {"kappa": kappa, "se": se, "weighted_sum": weighted, "reps": reps}


def write_report_csv(rows, fh, header_lines: list[str] | None = None) -> None:
    for line in header_lines or []:
        fh.write(f"# {line}\n")
    fh.write(ReportRow.CSV_HEADER + "\n")
    for r in rows:
        fh.write(r.to_csv() + "\n")


def summary_dict(rows) -> dict:
    hard = [r for r in rows if not r.soft]
    return {
        "criteria": sorted({r.theorem for r in rows}),
        "rows": len(rows),
        "failed_rows": [f"{r.theorem}:{r.statistic}" for r in rows if not r.passed],
        "expected_failures": [f"{r.theorem}:{r.statistic}" for r in rows if r.expect_fail],
        "hard_pass": all(r.as_expected for r in hard),
    }
