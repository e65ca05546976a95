"""The branching random walk conditioned to occupy (n, x); binary fission.

The conditional law of U_n(x) given {U_n(x) >= 1} is realized by a
time-inhomogeneous reweighted walk from 0 to x,

    q_m(z, y) = P_1(y-z) * u_{n-m}(x-y) / (P u_{n-m})(x-z),

with independent ordinary branching random walks attached along the path by
coin tosses with success probability beta_m(w) = 1/(2 - (P u_{n-m-1})(x-w)):

    U_n(x) | U_n(x) >= 1  =d=  1 + sum_{m<n} B_m(X_m) * U^m_{n-m-1}(x - X_m - xi_{m+1}).

The reweighting uses hitting probabilities, not transition probabilities, so
the walk is not the pinned (space-time-harmonic) bridge; `pinned_row` exposes
the bridge rows for comparison.
"""

from __future__ import annotations

import numpy as np

from . import forward as fw
from .exactfields import hitting_bank
from .lattice import Field, neighborhood, stencil_step, transition_field
from .offspring import binary

_BINARY = binary()


class HittingBank:
    """u_m and (P u_m) for all horizons m <= n, exact unclamped boxes."""

    def __init__(self, n: int, d: int = 2):
        self.n = n
        self.d = d
        self.u = hitting_bank(_BINARY, n, d, clamp=None, method="kpp")
        self.pu = []
        for f in self.u:
            vals, _ = stencil_step(f.values, d)
            g = Field(d, f.radius + 1, vals, 0.0)
            g.step = f.step
            self.pu.append(g)

    def u_at(self, m: int, site) -> float:
        return self.u[m].lookup(site, 0.0)

    def pu_at(self, m: int, site) -> float:
        return self.pu[m].lookup(site, 0.0)


def utransform_row(m: int, z, n: int, x, bank: HittingBank):
    """Transition row q_m(z, .) of the reweighted walk with endpoint (n, x).

    Returns (neighbor sites (2d+1, d), probabilities).  Raises if (m-1, z) is
    not a reachable state, i.e. the normalizer (P u_{n-m})(x-z) vanishes.
    """
    d = bank.d
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    horizon = n - m
    denom = bank.pu_at(horizon, x - z)
    if denom <= 0.0:
        raise ValueError(f"state {tuple(z)} at step {m - 1} cannot reach {tuple(x)} at {n}")
    offs = neighborhood(d)
    ys = z + offs
    w = np.array([bank.u_at(horizon, x - y) for y in ys])
    probs = w / ((2 * d + 1) * denom)
    return ys, probs


def pinned_row(m: int, z, n: int, x, p_fields: list):
    """h-transform rows of the walk bridged to (n, x):
    q*_m(z, y) = P_1(y-z) P_{n-m}(x-y) / P_{n-m+1}(x-z)."""
    d = p_fields[0].dim
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    offs = neighborhood(d)
    ys = z + offs
    denom = p_fields[n - m + 1].lookup(x - z, 0.0)
    if denom <= 0.0:
        raise ValueError("unreachable bridge state")
    w = np.array([p_fields[n - m].lookup(x - y, 0.0) for y in ys])
    return ys, w / ((2 * d + 1) * denom)


class ConditionedSampler:
    """Sampler for the law of U_n(x) given {U_n(x) >= 1}; caches walk rows."""

    def __init__(self, n: int, x, bank: HittingBank | None = None):
        self.n = n
        self.d = bank.d if bank is not None else len(x)
        self.x = np.asarray(x, dtype=np.int64)
        self.bank = bank if bank is not None else HittingBank(n, self.d)
        if self.bank.u_at(n, self.x) <= 0.0:
            raise ValueError(f"target {tuple(self.x)} is unreachable at generation {n}")
        self._rows: dict[tuple[int, tuple], tuple] = {}
        self._betas: dict[tuple[int, tuple], float] = {}
        self._offs = neighborhood(self.d)

    def _row(self, m: int, z: tuple):
        key = (m, z)
        row = self._rows.get(key)
        if row is None:
            ys, probs = utransform_row(m, z, self.n, self.x, self.bank)
            row = (ys, np.cumsum(probs))
            self._rows[key] = row
        return row

    def _beta(self, m: int, w: tuple) -> float:
        key = (m, w)
        b = self._betas.get(key)
        if b is None:
            pu = self.bank.pu_at(self.n - m - 1, self.x - np.asarray(w))
            b = 1.0 / (2.0 - pu)
            self._betas[key] = b
        return b

    def sample_path(self, rng: np.random.Generator) -> np.ndarray:
        """One reweighted-walk path X_0..X_n (always ends at x)."""
        path = np.zeros((self.n + 1, self.d), dtype=np.int64)
        z = (0,) * self.d
        for m in range(1, self.n + 1):
            ys, cdf = self._row(m, z)
            pick = int(np.searchsorted(cdf, rng.random(), side="right"))
            z = tuple(int(c) for c in ys[min(pick, len(ys) - 1)])
            path[m] = z
        return path

    def sample(self, rng: np.random.Generator) -> tuple[int, np.ndarray]:
        """One draw from the conditional law of U_n(x), with the reweighted-walk
        path X_0..X_n it was built on."""
        n, d, x = self.n, self.d, self.x
        path = self.sample_path(rng)
        total = 1
        for m in range(n):
            if rng.random() >= self._beta(m, tuple(path[m])):
                continue
            xi = self._offs[int(rng.integers(0, 2 * d + 1))]
            target = x - path[m] - xi
            gens = n - m - 1
            if int(np.abs(target).sum()) > gens:
                continue  # unreachable, the attached walk contributes 0
            keys = fw.evolve_particles(fw.encode_sites(np.zeros((1, d), dtype=np.int64), d),
                                       gens, _BINARY, d, rng)
            if keys.size:
                total += int(np.count_nonzero(keys == fw.encode_sites(
                    target.reshape(1, d), d)[0]))
        return total, path


def endpoint_audit(n: int, targets, paths_per_target: int,
                   rng: np.random.Generator, bank: HittingBank | None = None) -> dict:
    """Samples reweighted-walk paths and counts endpoint misses (contract: 0)."""
    if bank is None:
        bank = HittingBank(n, len(targets[0]))
    violations = 0
    paths = 0
    for x in targets:
        s = ConditionedSampler(n, x, bank)
        for _ in range(paths_per_target):
            path = s.sample_path(rng)
            paths += 1
            if not np.array_equal(path[n], np.asarray(x)):
                violations += 1
    return {"paths": paths, "violations": violations}


def reachable_targets(n: int, d: int, count: int, rng: np.random.Generator) -> list:
    """Random sites with u_n(x) > 0 (|x|_1 <= n), origin-biased like the walk."""
    out = []
    while len(out) < count:
        x = rng.integers(-n, n + 1, size=d)
        if int(np.abs(x).sum()) <= n:
            out.append(tuple(int(c) for c in x))
    return out


def conditional_mean(n: int, x, bank: HittingBank, p_field=None) -> float:
    """Exact E[U_n(x) | U_n(x) >= 1] = P_n(x) / u_n(x)."""
    if p_field is None:
        p_field = transition_field(n, bank.d)
    return p_field.lookup(x, 0.0) / bank.u_at(n, x)
