"""The branching random walk conditioned to occupy (n, x); binary fission.

The conditional law of U_n(x) given {U_n(x) >= 1} is the law of the reduced
tree of the lineages that reach x (Fleischmann & Siegmund-Schultze 1977;
Geiger 1999): the ball-targeted tree of `forward` at radius 0, grown from one
kept particle at offset x at horizon n.  With u_m the hitting fields (u_m(z)
the probability that a walk from offset z has a descendant at offset 0 after
m generations) and p = (P u_m)(z), a kept particle at offset z with m + 1
generations left has K = 1 + Bernoulli(p/(2-p)) kept children, each moving to
offset z - e with probability u_m(z - e) / ((2d+1) p) (`forward.tree_step`).
U_n(x) is the number of kept particles at horizon 0.

The path X_0..X_n of a replicate follows its first child at every horizon.
The kept children are iid with the conditioned row, so the path is the
time-inhomogeneous reweighted walk from 0 to x,

    q_m(z, y) = P_1(y-z) * u_{n-m}(x-y) / (P u_{n-m})(x-z),

and a second child, present with probability p/(2-p) = beta * p for the coin
beta = 1/(2-p), roots an independent branching random walk at X_m (its first
step included), conditioned to reach x.  The reweighting uses hitting
probabilities, not transition probabilities, so the walk is not the pinned
(space-time-harmonic) bridge; the tests compare its rows with the bridge's.

Sampling is batched over replicates: all trees step together in one pass
over a `lattice.ReversedSweep` of u_{n-1}..u_0.
"""

from __future__ import annotations

import numpy as np

from . import forward as fw
from .exactfields import kpp_update
from .lattice import ReversedSweep


class ConditionedSampler:
    """Sampler for the law of U_n(x) given {U_n(x) >= 1}, batched over replicates.

    Its hitting fields are clamped at clamp_radius(n - 1, d, 1e-14) + |x|_inf
    (the tree's rule): x lies in the box, which no kept particle leaves, and
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

    def sample(self, reps: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """`reps` draws from the conditional law of U_n(x), with the
        first-child paths they were drawn with: (values[reps],
        paths[reps, n+1, d]).

        Replicate r's tree is owner == r; its path follows the particle at
        index lead[r], whose first child lies at (cumsum(K) - K)[lead[r]]."""
        n = self.n
        x = np.tile(self.x, (reps, 1))  # kept offsets, target minus site
        owner = lead = np.arange(reps)
        paths = np.zeros((reps, n + 1, self.d), dtype=np.int64)
        for u in self.u:
            # every child is kept with u_m > 0, so only the root can lack mass
            if u.step == n - 1 and u.neighbor_row(self.x)[1] <= 0.0:
                raise ValueError(f"hitting probabilities underflow double precision for "
                                 f"n = {n}, x = {tuple(self.x.tolist())}")
            k, x = fw.tree_step(u, x, rng)
            owner, lead = np.repeat(owner, k), (np.cumsum(k) - k)[lead]
            paths[:, n - u.step] = self.x - x[lead]
        return np.bincount(owner, minlength=reps), paths


def endpoint_audit(n: int, targets, paths_per_target: int, rng: np.random.Generator) -> dict:
    """Samples first-child paths and counts endpoint misses (contract: 0)."""
    violations = 0
    for x in targets:
        paths = ConditionedSampler(n, x).sample(paths_per_target, rng)[1]
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
