"""The branching random walk conditioned to occupy (n, x); binary fission.

The conditional law of U_n(x) given {U_n(x) >= 1} is realized by a
time-inhomogeneous reweighted walk from 0 to x,

    q_m(z, y) = P_1(y-z) * u_{n-m}(x-y) / (P u_{n-m})(x-z),

with independent ordinary branching random walks attached along the path by
coin tosses with success probability beta_m(w) = 1/(2 - (P u_{n-m-1})(x-w)):

    U_n(x) | U_n(x) >= 1  =d=  1 + sum_{m<n} B_m(X_m) * U^m_{n-m-1}(x - X_m - xi_{m+1}).

The reweighting uses hitting probabilities, not transition probabilities, so
the walk is not the pinned (space-time-harmonic) bridge; the tests compare its
rows with the bridge's.

Sampling is batched over replicates: all paths step the reweighted walk
together, the coins and the steps xi are drawn as (reps, n) arrays, and the
attached walks of a batch go to `forward.attached_walks` together (ages
n-1-m, -1 where no walk is attached), each counted at its own query site
x - X_m - xi_{m+1}.
"""

from __future__ import annotations

import numpy as np

from . import forward as fw
from .exactfields import hitting_sweep
from .lattice import neighborhood
from .offspring import binary

_BINARY = binary()


class HittingBank:
    """u_m for all horizons m <= n, exact unclamped boxes.  (P u_m)(y) is read
    from the 2d+1 values of u_m around y when needed, so no P u bank is kept."""

    def __init__(self, n: int, d: int = 2):
        self.n = n
        self.d = d
        self.u = list(hitting_sweep(_BINARY, n, d, method="kpp"))


def utransform_row(m: int, z, n: int, x, bank: HittingBank):
    """Transition rows q_m(z, .) of the reweighted walk with endpoint (n, x),
    for states z[..., d].

    Returns (neighbor sites [..., 2d+1, d], probabilities [..., 2d+1]): the
    row of u_{n-m} around x - z (`Field.neighbor_row`), whose normalizer is
    (2d+1) (P u_{n-m})(x-z) because the neighborhood is symmetric.  Raises if
    some (m-1, z) is not a reachable state, i.e. the normalizer vanishes.
    """
    d = bank.d
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    row, pu = bank.u[n - m].neighbor_row(x - z)
    if np.any(pu <= 0.0):
        bad = z.reshape(-1, d)[np.ravel(pu <= 0.0)][0]
        raise ValueError(f"state {tuple(bad.tolist())} at step {m - 1} cannot reach "
                         f"{tuple(x.tolist())} at {n}")
    return z[..., None, :] + neighborhood(d), row


class ConditionedSampler:
    """Sampler for the law of U_n(x) given {U_n(x) >= 1}, batched over replicates."""

    def __init__(self, n: int, x, bank: HittingBank | None = None):
        if n < 1:
            raise ValueError("the conditioned representation needs n >= 1")
        self.n = n
        self.d = bank.d if bank is not None else len(x)
        self.x = np.asarray(x, dtype=np.int64)
        self.bank = bank if bank is not None else HittingBank(n, self.d)
        if self.bank.u[n].values_at(self.x) <= 0.0:
            raise ValueError(f"target {tuple(self.x.tolist())} is unreachable at generation {n}")

    def sample_paths(self, reps: int, rng: np.random.Generator) -> np.ndarray:
        """`reps` reweighted-walk paths X_0..X_n, array (reps, n+1, d); every
        path ends at x."""
        paths = np.zeros((reps, self.n + 1, self.d), dtype=np.int64)
        for m in range(1, self.n + 1):
            ys, probs = utransform_row(m, paths[:, m - 1], self.n, self.x, self.bank)
            pick = (np.cumsum(probs, axis=1) <= rng.random((reps, 1))).sum(axis=1)
            paths[:, m] = ys[np.arange(reps), np.minimum(pick, 2 * self.d)]
        return paths

    def _coin_probs(self, paths: np.ndarray) -> np.ndarray:
        """beta_m(X_m) = 1/(2 - (P u_{n-m-1})(x - X_m)) for m < n: (reps, n),
        with P u read as the mean of u over the neighborhood."""
        pu = [self.bank.u[self.n - m - 1].neighbor_row(self.x - paths[:, m])[1]
              for m in range(self.n)]
        return 1.0 / (2.0 - np.stack(pu, axis=1))

    def sample(self, reps: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """`reps` draws from the conditional law of U_n(x), with the
        reweighted-walk paths they were built on: (values[reps],
        paths[reps, n+1, d]).

        Walk (r, m) is attached with probability beta_m(X_m), has age n-1-m
        and is counted at its query site x - X_m - xi_{m+1}."""
        n, d = self.n, self.d
        paths = self.sample_paths(reps, rng)
        attach = rng.random((reps, n)) < self._coin_probs(paths)
        xi = neighborhood(d)[rng.integers(0, 2 * d + 1, size=(reps, n))]
        query = self.x - paths[:, :n] - xi
        ages = n - 1 - np.arange(n)
        # a walk of age a never reaches a query site farther than a: it adds 0
        attach &= np.abs(query).sum(axis=2) <= ages
        ages = np.where(attach, ages, -1)
        values = np.ones(reps, dtype=np.int64)
        for lo, hi in fw.walk_chunks(ages, 0, _BINARY, d):
            walk, _ = fw.attached_walks(ages[lo:hi], query[lo:hi], 0, _BINARY, d, rng)
            values[lo:hi] += np.bincount(walk // n, minlength=hi - lo)
        return values, paths


def endpoint_audit(n: int, targets, paths_per_target: int,
                   rng: np.random.Generator, bank: HittingBank | None = None) -> dict:
    """Samples reweighted-walk paths and counts endpoint misses (contract: 0)."""
    if bank is None:
        bank = HittingBank(n, len(targets[0]))
    violations = 0
    for x in targets:
        paths = ConditionedSampler(n, x, bank).sample_paths(paths_per_target, rng)
        violations += int(np.any(paths[:, n] != np.asarray(x), axis=1).sum())
    return {"paths": len(targets) * paths_per_target, "violations": violations}


def reachable_targets(n: int, d: int, count: int, rng: np.random.Generator) -> list:
    """Random sites with u_n(x) > 0 (|x|_1 <= n), origin-biased like the walk."""
    out = []
    while len(out) < count:
        x = rng.integers(-n, n + 1, size=d)
        if int(np.abs(x).sum()) <= n:
            out.append(tuple(int(c) for c in x))
    return out
