"""Occupancy-level Monte Carlo of the branching random walk under P.

The engine packs (replicate, site) into int64 keys and evolves one particle
array for thousands of replicates at once: each particle draws its offspring
count and each child picks a uniform neighbor.  `BatchStats` reads every
per-replicate occupancy statistic (Z_n, V_n, M_n(j), Omega_n and the count at
a typical site) off the final array in one pass.

Runs conditioned on survival to generation n (the event G_n) are drawn
exactly from the reduced tree (Fleischmann & Siegmund-Schultze 1977; Geiger
1999): only particles with a descendant at generation n are kept.  A kept
particle with m generations left has K >= 1 kept children, each child
surviving independently with probability s_{m-1} = P(Z_{m-1} > 0) given that
at least one does (`OffspringDist.sample_kept`).  Dropped branches add nothing
at generation n and motion does not depend on the genealogy, so the final
array has the law of a free run's given G_n, at an expected cost of
sum_k s_{n-k}/s_n (about n H_n) particle-generations per replicate instead of
the n^2/2 that rejection of free runs spends.

Population-only (Galton-Watson) batches drop the spatial part entirely; the
survival event and Z_n do not depend on particle motion.

Attached walks.  Independent walks from the origin, each read near its own
query site (the spine's), run in `attached_walks` on one of two routes.  The
staggered array (any law) enters a walk of age a max_age - a one-generation
steps into one particle array tagged per walk, at an expected cost of the
sum of the ages in particle-generations.  The reduced tree (binary fission)
is the site-targeted form of the tree above: with u_m(x) the probability
that a walk from offset x (query site minus position) has a descendant in
B(0, ell) after m generations (the hitting recursion from the ball's
indicator), a walk of age m enters as Bernoulli(u_m(q)) on one clock
m = max_age..0, and a kept particle at x has K = 1 + Bernoulli(p/(2-p)) kept
children, p = (P u_{m-1})(x), each moving to x - e with probability
u_{m-1}(x - e) / ((2d+1) p) (`tree_step`, which the conditioned sampler
shares: its tree is this one at ell = 0, grown from one kept particle at the
target).  At m = 0 the kept particles are exactly those in the ball.  The
fields come from one `lattice.ReversedSweep`, clamped at
clamp_radius(max_age, d, 1e-14) + floor(ell): a lost particle ends in the
ball after its lineage strayed more than clamp_radius(max_age) from it, so
each walk's expected count is low by at most 1e-14.  The tree is taken when
the staggered array's expected particle-generations exceed the
2 max_age C(clamp + d, d) cells that the tree's two sweeps store (about 30 ns
per particle-generation and 22 ns per stored cell at max_age = 511 in d = 2
on a 2-core VM; break-even near 55 replicates of the spine's n walks).
Callers run replicates in chunks (`walk_chunks`) that keep the staggered
array near 2**18 particles and the walk tags within the packing range (d = 3
splits further); a batch that takes the tree runs in chunks of about 2**19
walks, since each chunk recomputes the reversed fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactfields import kpp_update
from .lattice import Field, ReversedSweep, clamp_radius, in_ball, neighborhood
from .offspring import OffspringDist

J_MAX = 64          # multiplicity histogram cap; larger counts go to the overflow bucket
COORD_BITS = 15
COORD_OFF = 1 << 14  # coordinates must stay in (-COORD_OFF, COORD_OFF)


def _rep_shift(d: int) -> int:
    return d * COORD_BITS


def _max_tags(d: int) -> int:
    """Replicate tags must stay below this bound so that keys fit int64."""
    return 1 << (62 - _rep_shift(d))


def encode_sites(coords: np.ndarray, d: int) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, d)
    keys = np.zeros(len(coords), dtype=np.int64)
    for i in range(d):
        keys = (keys << COORD_BITS) | (coords[:, i] + COORD_OFF)
    return keys


def decode_sites(keys: np.ndarray, d: int) -> np.ndarray:
    out = np.empty((len(keys), d), dtype=np.int64)
    k = np.asarray(keys, dtype=np.int64)
    mask = (1 << COORD_BITS) - 1
    for i in range(d - 1, -1, -1):
        out[:, i] = (k & mask) - COORD_OFF
        k = k >> COORD_BITS
    return out


def _move_deltas(d: int) -> np.ndarray:
    """Encoded key increments for the 2d+1 neighbor offsets (hold first)."""
    offs = neighborhood(d)
    deltas = np.zeros(2 * d + 1, dtype=np.int64)
    for j, off in enumerate(offs):
        acc = 0
        for i in range(d):
            acc = (acc << COORD_BITS) + int(off[i])
        deltas[j] = acc
    deltas.flags.writeable = False
    return deltas


# read-only: shared by every call of evolve_particles
_MOVE_DELTAS = {d: _move_deltas(d) for d in (1, 2, 3)}


def evolve_particles(keys: np.ndarray, gens: int, dist: OffspringDist, d: int,
                     rng: np.random.Generator,
                     survival: np.ndarray | None = None) -> np.ndarray:
    """Run `gens` generations of the particle array (keys may carry rep tags).

    With `survival` (s_m = P(Z_m > 0) for m = 0..gens-1 at least), each
    particle is conditioned to have a descendant `gens` generations on, and
    only particles with a descendant then are kept (the reduced tree)."""
    deltas = _MOVE_DELTAS[d]
    for g in range(gens):
        if keys.size == 0:
            break
        # the offspring counts die with the repeat, before the moves are drawn
        keys = np.repeat(keys, dist.sample_each(keys.size, rng) if survival is None
                         else dist.sample_kept(keys.size, survival[gens - 1 - g], rng))
        if keys.size == 0:
            break
        moves = rng.integers(0, 2 * d + 1, size=keys.size)
        keys += deltas[moves]  # np.repeat returned a fresh array
    return keys


# ---------------------------------------------------------------------------
# per-generation statistics


@dataclass
class GenStats:
    n: int
    d: int
    Z: int
    V: int
    Omega: int
    M: list[int]                  # M[j-1] = number of multiplicity-j sites, j <= J_MAX
    overflow_sites: int
    overflow_mass: int
    T: int | None = None          # count at the typical site
    S: list[int] | None = None    # typical-particle site
    conditioned: bool = False
    attempts: int | None = None   # free runs rejection would have needed (Geometric(s_n))
    rep: int | None = None
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "rep": self.rep, "n": self.n, "d": self.d, "seed": self.seed,
            "conditioned": self.conditioned, "attempts": self.attempts,
            "Z": self.Z, "V": self.V, "Omega": self.Omega, "M": list(map(int, self.M)),
            "overflow": {"sites": self.overflow_sites, "mass": self.overflow_mass},
            "T": self.T, "S": self.S,
        }


class BatchStats:
    """Segmented per-replicate statistics of a final particle array."""

    def __init__(self, keys: np.ndarray, reps: int, d: int,
                 rng: np.random.Generator | None = None):
        uk, cnt = np.unique(keys, return_counts=True)
        rep = uk >> _rep_shift(d)
        self.reps = reps
        self.d = d
        self.Z = np.zeros(reps, dtype=np.int64)
        self.V = np.zeros(reps, dtype=np.int64)
        self.Omega = np.zeros(reps, dtype=np.int64)
        if len(uk):
            # each live replicate owns one segment of the sorted unique keys
            starts = np.flatnonzero(np.concatenate(([True], rep[1:] != rep[:-1])))
            live = rep[starts]
            self.Z[live] = np.add.reduceat(cnt, starts)
            self.V[live] = np.maximum.reduceat(cnt, starts)
            self.Omega[live] = np.diff(starts, append=len(uk))
        big = cnt > J_MAX
        self.overflow_mass = np.zeros(reps, dtype=np.int64)
        np.add.at(self.overflow_mass, rep[big], cnt[big])
        # rep becomes each site's histogram cell, rep (J_MAX + 1) + min(cnt, J_MAX + 1) - 1
        rep *= J_MAX + 1
        rep += np.minimum(cnt, J_MAX + 1)
        rep -= 1
        M = np.bincount(rep, minlength=reps * (J_MAX + 1)).reshape(reps, J_MAX + 1)
        del rep, big  # before the typical-site arrays, to lower the peak
        self.M = M[:, :J_MAX]
        self.overflow_sites = M[:, J_MAX].copy()
        self.T = np.full(reps, -1, dtype=np.int64)
        self.S = np.zeros((reps, d), dtype=np.int64)
        if rng is not None and len(uk):
            csum = np.cumsum(cnt)
            zc = np.concatenate(([0], np.cumsum(self.Z)))
            alive = np.nonzero(self.Z > 0)[0]
            target = zc[alive] + rng.random(len(alive)) * self.Z[alive]
            pos = np.searchsorted(csum, target, side="right")
            self.T[alive] = cnt[pos]
            self.S[alive] = decode_sites(uk[pos], d)

    def genstats(self, i: int, n: int, **kw) -> GenStats:
        alive = self.Z[i] > 0
        return GenStats(
            n, self.d, int(self.Z[i]), int(self.V[i]), int(self.Omega[i]),
            self.M[i].tolist(), int(self.overflow_sites[i]), int(self.overflow_mass[i]),
            T=int(self.T[i]) if alive and self.T[i] >= 0 else None,
            S=self.S[i].tolist() if alive and self.T[i] >= 0 else None, **kw)


# ---------------------------------------------------------------------------
# runs


def _origin_keys(tags: np.ndarray, d: int) -> np.ndarray:
    """One particle at the origin for each (replicate or walk) tag."""
    return (tags.astype(np.int64) << _rep_shift(d)) + encode_sites(np.zeros((1, d)), d)[0]


def run_batch(dist: OffspringDist, n: int, d: int, reps: int,
              rng: np.random.Generator, want_typical: bool = False) -> BatchStats:
    """`reps` independent free runs in one particle array."""
    _check_capacity(n, d, reps)
    keys = evolve_particles(_origin_keys(np.arange(reps), d), n, dist, d, rng)
    return BatchStats(keys, reps, d, rng if want_typical else None)


def run_conditioned_batch(dist: OffspringDist, n: int, d: int, want: int,
                          rng: np.random.Generator, survival: np.ndarray,
                          want_typical: bool = False) -> BatchStats:
    """`want` independent runs conditioned on survival to generation n, drawn
    exactly from the reduced tree.  `survival` is `xf.survival_sequence(dist,
    n')` for some n' >= n (s_0..s_n')."""
    _check_capacity(n, d, want)
    _check_survival(survival, n)
    keys = evolve_particles(_origin_keys(np.arange(want), d), n, dist, d, rng, survival)
    return BatchStats(keys, want, d, rng if want_typical else None)


def site_count_batch(dist: OffspringDist, n: int, d: int, site, reps: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Per-replicate particle counts at one fixed site after n free generations."""
    _check_capacity(max(n, int(np.abs(site).max())), d, reps)
    keys = evolve_particles(_origin_keys(np.arange(reps), d), n, dist, d, rng)
    rep = keys >> _rep_shift(d)
    hit = keys == (rep << _rep_shift(d)) + encode_sites(np.reshape(site, (1, d)), d)[0]
    return np.bincount(rep[hit], minlength=reps)


def _check_capacity(reach: int, d: int, reps: int) -> None:
    """Fail fast unless keys can pack `reps` replicate (or walk) tags and
    every coordinate of absolute value up to `reach`."""
    if reach >= COORD_OFF:
        raise ValueError(f"coordinates up to {reach} exceed the packing range "
                         f"|x| < {COORD_OFF}")
    if reps >= _max_tags(d):
        raise ValueError(f"{reps} tags exceed the packing range "
                         f"(fewer than {_max_tags(d)} in d = {d})")


def _check_survival(survival: np.ndarray, n: int) -> None:
    if len(survival) <= n or survival[0] != 1.0:
        raise ValueError(f"need the survival sequence s_0..s_{n} (s_0 = 1)")


# ---------------------------------------------------------------------------
# population-only (Galton-Watson) batches


def population_batch(dist: OffspringDist, n: int, reps: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Z_n for `reps` free runs; particle motion is irrelevant to Z."""
    idx = np.arange(reps)
    z = np.ones(reps, dtype=np.int64)
    for _ in range(n):
        if len(z) == 0:
            break
        z = dist.sample_offspring_sum(z, rng)
        alive = z > 0
        idx, z = idx[alive], z[alive]
    z_final = np.zeros(reps, dtype=np.int64)  # allocated last, to lower the peak
    z_final[idx] = z
    return z_final


def population_conditioned_batch(dist: OffspringDist, n: int, want: int,
                                 rng: np.random.Generator,
                                 survival: np.ndarray) -> np.ndarray:
    """Z_n for `want` runs conditioned on survival to generation n: the size
    of the reduced tree's last generation (`survival` as in
    `run_conditioned_batch`)."""
    _check_survival(survival, n)
    r = np.ones(want, dtype=np.int64)
    for g in range(n):
        r = dist.sample_kept_sum(r, survival[n - 1 - g], rng)
    return r


# ---------------------------------------------------------------------------
# attached walks: many independent walks, each read near its own query site


def walk_chunks(ages: np.ndarray, ell: float, dist: OffspringDist,
                d: int) -> list[tuple[int, int]]:
    """Replicate ranges [lo, hi) for `attached_walks` calls on the rows of
    ages[reps, walks per replicate]: about 2**18 walks per call on the
    staggered array, and about 2**19 when the whole batch takes the tree,
    each of whose calls costs a hitting sweep; both within the tag range."""
    reps, per_rep = ages.shape
    cap = 2**19 if _takes_tree(ages, ell, dist, d) else 2**18
    size = max(1, min(cap, _max_tags(d) - 1) // per_rep)
    return [(lo, min(reps, lo + size)) for lo in range(0, reps, size)]


def _takes_tree(ages: np.ndarray, ell: float, dist: OffspringDist, d: int) -> bool:
    """The route rule: binary fission, and the staggered array's expected
    particle-generations exceed the cells that the tree's two sweeps store."""
    top = int(ages.max(initial=-1))
    return bool(dist.is_binary and top > 0 and np.sum(ages, where=ages > 0)
                > 2 * top * math.comb(_tree_clamp(top, d, ell) + d, d))


def attached_walks(ages: np.ndarray, query: np.ndarray, ell: float, dist: OffspringDist,
                   d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Independent branching random walks from the origin, each read near its
    own query site.

    Walk w has age ages.flat[w] (negative: not started) and query site
    query.reshape(-1, d)[w].  Returns (walk, rel): for every final particle
    within Euclidean distance `ell` of its walk's query site, the walk's flat
    index and the particle's offset from that site.  The range check runs
    first; the route (module doc) follows from the input alone, and only the
    staggered array, whose keys carry walk tags, is limited in walks."""
    ages = np.asarray(ages, dtype=np.int64).ravel()
    query = np.asarray(query, dtype=np.int64).reshape(-1, d)
    top = int(ages.max(initial=-1))
    _check_capacity(top, d, 0)  # the reach; walk tags only bound the staggered keys
    if _takes_tree(ages, ell, dist, d):
        return _tree_walks(ages, query, ell, d, rng)
    _check_capacity(top, d, len(ages))
    return _staggered_walks(ages, query, ell, dist, d, rng)


def _by_age(ages: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Started walks in order of decreasing age (flat order within an age),
    and bounds: the walks of age top - t are order[bounds[t]:bounds[t + 1]]."""
    # unstarted walks (negative ages) sort after every started one
    order = np.argsort(top - ages, kind="stable")[: np.count_nonzero(ages >= 0)]
    return order, np.searchsorted(top - ages[order], np.arange(max(top, 0) + 2))


def _staggered_walks(ages, query, ell, dist, d, rng):
    """`attached_walks` on the staggered particle array (module doc)."""
    top = int(ages.max(initial=-1))
    order, bounds = _by_age(ages, top)
    entries = _origin_keys(order, d)
    keys = entries[: bounds[1]]
    for t in range(1, top + 1):
        keys = np.concatenate((evolve_particles(keys, 1, dist, d, rng),
                               entries[bounds[t]: bounds[t + 1]]))
    walk = keys >> _rep_shift(d)
    rel = decode_sites(keys, d) - query[walk]
    near = (rel.astype(np.float64) ** 2).sum(axis=1) <= float(ell) ** 2 + 1e-9
    return walk[near], rel[near]


def _tree_clamp(top: int, d: int, ell: float) -> int:
    """Box radius of the tree's hitting fields: a walk's expected count in
    the ball loses at most 1e-14 to it (module doc)."""
    return clamp_radius(top, d, 1e-14) + math.floor(ell)


def tree_step(u: Field, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One horizon of the reduced tree, m + 1 -> m = u.step, for the kept
    particles at offsets x[k, d] (target minus site): (K[k], the children's
    offsets), each parent's children in one block in parent order.  A kept
    particle has K = 1 + Bernoulli(p/(2-p)) kept children, p = (P u_m)(x),
    and each child steps by the row of u_m around x."""
    row, p = u.neighbor_row(x)
    k = 1 + (rng.random(len(x)) < p / (2.0 - p))
    x, row = np.repeat(x, k, axis=0), np.repeat(row, k, axis=0)
    pick = (np.cumsum(row, axis=1) <= rng.random((len(x), 1))).sum(axis=1)
    return k, x - neighborhood(u.dim)[np.minimum(pick, 2 * u.dim)]


def _tree_walks(ages, query, ell, d, rng):
    """`attached_walks` for binary fission on the ball-targeted reduced tree
    (module doc); x holds the kept particles' offsets, query site minus site."""
    top = int(ages.max(initial=-1))
    order, bounds = _by_age(ages, top)
    owner = np.empty(0, dtype=np.int64)
    x = np.empty((0, d), dtype=np.int64)
    ball = Field.tabulate(lambda s: in_ball(s, ell), d, math.floor(ell), step=0)
    for u in ReversedSweep(top, d, kpp_update, _tree_clamp(top, d, ell), start=ball):
        if len(x):
            k, x = tree_step(u, x, rng)
            owner = np.repeat(owner, k)
        # walks of age m enter as Bernoulli(u_m(q))
        new = order[bounds[top - u.step]: bounds[top - u.step + 1]]
        new = new[rng.random(len(new)) < u.values_at(query[new])]
        owner = np.concatenate((owner, new))
        x = np.concatenate((x, query[new]))
    return owner, -x


# ---------------------------------------------------------------------------
# overlap statistic


def overlap_batch(dist: OffspringDist, n: int, d: int, x_u, x_v, reps: int,
                  rng: np.random.Generator) -> np.ndarray:
    """D_n per replicate for two independent walks from x_u and x_v: total
    particles at sites holding descendants of both."""
    _check_capacity(n + int(np.abs(np.concatenate([np.ravel(x_u), np.ravel(x_v)])).max()),
                    d, reps)
    shift = _rep_shift(d)
    rep_ids = np.arange(reps, dtype=np.int64) << shift
    ku = evolve_particles(rep_ids + encode_sites(np.asarray(x_u).reshape(1, d), d)[0],
                          n, dist, d, rng)
    kv = evolve_particles(rep_ids + encode_sites(np.asarray(x_v).reshape(1, d), d)[0],
                          n, dist, d, rng)
    uu, cu = np.unique(ku, return_counts=True)
    uv, cv = np.unique(kv, return_counts=True)
    allk = np.concatenate([uu, uv])
    allc = np.concatenate([cu, cv])
    order = np.argsort(allk, kind="stable")
    sk, sc = allk[order], allc[order]
    both = np.nonzero(sk[1:] == sk[:-1])[0]
    d_n = np.zeros(reps, dtype=np.int64)
    if len(both):
        contrib = sc[both] + sc[both + 1]
        np.add.at(d_n, (sk[both] >> shift).astype(np.int64), contrib)
    return d_n
