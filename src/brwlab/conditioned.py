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
together in one pass over a `lattice.ReversedSweep` of u_{n-1}..u_0, each row
also giving its step's coin, and the attached walks of a batch go to
`forward.attached_walks` together (ages n-1-m, -1 where no walk is
attached), each counted at its own query site x - X_m - xi_{m+1}.
"""

from __future__ import annotations

import numpy as np

from . import forward as fw
from .exactfields import kpp_update
from .lattice import ReversedSweep, neighborhood
from .offspring import binary

_BINARY = binary()


class ConditionedSampler:
    """Sampler for the law of U_n(x) given {U_n(x) >= 1}, batched over replicates.

    Its hitting fields are clamped at clamp_radius(n - 1, d, 1e-14) + |x|_inf
    (the tree's rule): x lies in the box, whose rows no path leaves, and
    u_n(x) is low by at most 1e-14 in absolute terms, not relative to u_n(x)."""

    def __init__(self, n: int, x):
        if n < 1:
            raise ValueError("the conditioned representation needs n >= 1")
        self.n, self.x, self.d = n, np.asarray(x, dtype=np.int64), len(x)
        fw._check_capacity(n, self.d, 0)
        if int(np.abs(self.x).sum()) > n:  # u_n(x) > 0 exactly when |x|_1 <= n
            raise ValueError(f"target {tuple(self.x.tolist())} is unreachable at generation {n}")
        self.u = ReversedSweep(n - 1, self.d, kpp_update,
                               fw._tree_clamp(n - 1, self.d, np.abs(self.x).max()))

    def _walk(self, ups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(paths[reps, n+1, d], beta[reps, n]) from the uniforms ups[n, reps]: step
        m+1 and the coin beta_m(X_m) = 1/(2 - (P u_{n-m-1})(x - X_m)) share a row."""
        n, d = self.n, self.d
        paths = np.zeros((ups.shape[1], n + 1, d), dtype=np.int64)
        beta = np.empty((ups.shape[1], n))
        for u in self.u:
            m = n - 1 - u.step
            row, pu = u.neighbor_row(self.x - paths[:, m])
            if np.any(pu <= 0.0):  # (n, x) is reachable: a hitting probability underflowed
                raise ValueError(f"hitting probabilities underflow double precision for "
                                 f"n = {n}, x = {tuple(self.x.tolist())}")
            pick = (np.cumsum(row, axis=1) <= ups[m][:, None]).sum(axis=1)
            paths[:, m + 1] = paths[:, m] + neighborhood(d)[np.minimum(pick, 2 * d)]
            beta[:, m] = 1.0 / (2.0 - pu)
        return paths, beta

    def sample_paths(self, reps: int, rng: np.random.Generator) -> np.ndarray:
        """`reps` reweighted-walk paths X_0..X_n, (reps, n+1, d), each ending at x."""
        return self._walk(rng.random((self.n, reps)))[0]

    def sample(self, reps: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """`reps` draws from the conditional law of U_n(x), with the
        reweighted-walk paths they were built on: (values[reps],
        paths[reps, n+1, d]).

        Walk (r, m) is attached with probability beta_m(X_m), has age n-1-m
        and is counted at its query site x - X_m - xi_{m+1}."""
        n, d = self.n, self.d
        paths, beta = self._walk(rng.random((n, reps)))
        attach = rng.random((reps, n)) < beta
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


def endpoint_audit(n: int, targets, paths_per_target: int, rng: np.random.Generator) -> dict:
    """Samples reweighted-walk paths and counts endpoint misses (contract: 0)."""
    violations = 0
    for x in targets:
        paths = ConditionedSampler(n, x).sample_paths(paths_per_target, rng)
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
