"""Occupancy-level Monte Carlo of the branching random walk under P.

The engine packs (replicate, site) into int64 keys and evolves one particle
array for thousands of replicates at once: each particle draws its offspring
count and each child picks a uniform neighbor.  `BatchStats` reads every
per-replicate occupancy statistic (Z_n, V_n, M_n(j), Omega_n and the count at
a typical site) off the final array in one pass, sorting it in place.

Runs conditioned on survival to generation n (the event G_n; `run_batch`
given the survival sequence) are drawn exactly from the reduced tree
(Fleischmann & Siegmund-Schultze 1977; Geiger 1999): only particles with a
descendant at generation n are kept.
A kept particle with m generations left has K >= 1 kept children, each child
surviving independently with probability s_{m-1} = P(Z_{m-1} > 0) given that
at least one does (`OffspringDist.sample_kept`); under binary fission
K = 1 + Bernoulli(s/(2-s)), and only the parents whose coin comes up are
placed, by geometric gaps: one draw per coin that comes up rather than one
uniform per parent.  Dropped branches add nothing
at generation n and motion does not depend on the genealogy, so the final
array has the law of a free run's given G_n, at an expected cost of
sum_k s_{n-k}/s_n (about n H_n) particle-generations per replicate instead of
the n^2/2 that rejection of free runs spends.

Population-only (Galton-Watson) batches drop the spatial part entirely; the
survival event and Z_n do not depend on particle motion.

Attached walks.  `attached_walks` runs n independent binary-fission walks
from the origin per replicate, walk i of age i, each read near its own query
site (the spine's), on one of two routes.  The staggered array enters the
walks of age n-1-t, one per replicate, after t one-generation steps of one
particle array tagged per walk, at an expected cost of the sum of the ages in
particle-generations; ell only selects the particles it returns, so its draws
are the same at every radius.  The reduced tree is the site-targeted form
of the tree above: with u_m(x) the probability that a walk from offset x
(query site minus position) has a descendant in B(0, ell) after m
generations (the hitting recursion from the ball's indicator), the walks of
age m enter as Bernoulli(u_m(q)) on one clock m = n-1..0, and a kept
particle at x has K = 1 + Bernoulli(p/(2-p)) kept children, p = (P u_{m-1})(x),
each moving to x - e with probability u_{m-1}(x - e) / ((2d+1) p)
(`tree_step`, which the conditioned sampler shares: its tree is this one at
ell = 0, grown from one kept particle at the target).  At m = 0 the kept
particles are exactly those in the ball.  The whole batch takes one pass of
one `lattice.ReversedSweep`, whose field of horizon m is clamped at r_m =
clamp_schedule(n-1, d, 1e-14)[m] + floor(ell): a particle is lost at horizon
m only if the last m steps of its lineage strayed more than r_m - floor(ell)
from where it ends in the ball, which the reversed walk does with
probability at most 1e-14, so a walk of age i is low by at most i 1e-14 in
expected count.  The tree is taken when the staggered array's expected
particle-generations exceed the 2 sum_m C(r_m + d, d) cells that the tree's
two sweeps store, that is from 28 replicates at ell = 0 and 33 at ell = 7
for n = 512 in d = 2 (measured on a 2-core VM: 17-25 ns per
particle-generation and 17-30 ns per stored cell, so the timed break-even
lies near 28-40 and 37-46 replicates), and whenever the reps n walk tags do
not fit the key packing range (d = 3 batches of 2**17 walks or more), which
bounds only the staggered array's keys.
"""

from __future__ import annotations

import math

import numpy as np

from .exactfields import hitting_update
from .lattice import Field, ReversedSweep, clamp_schedule, in_ball, neighborhood
from .offspring import OffspringDist, binary

J_MAX = 64          # multiplicity histogram cap; larger counts go to the overflow bucket
COORD_BITS = 15
COORD_OFF = 1 << 14  # coordinates must stay in (-COORD_OFF, COORD_OFF)
_BINARY = binary()  # the law of the attached walks and the tree


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
    deltas = encode_sites(neighborhood(d), d) - encode_sites(np.zeros((1, d)), d)[0]
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


class BatchStats:
    """Segmented per-replicate statistics of a final particle array.

    `keys` is sorted in place (callers hand over the array).  Each site's
    replicate and count are read off it without the copies np.unique makes,
    and the typical particle is drawn by its index in the sorted array, so no
    per-site array outlives the histogram.  That draw is the batch's last, so
    every other statistic is the same for any `rng`."""

    def __init__(self, keys: np.ndarray, reps: int, d: int, rng: np.random.Generator):
        keys.sort()
        first = np.ones(keys.size, dtype=bool)  # a site's first particle
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        at = np.flatnonzero(first)
        del first
        rep = keys[at]
        rep >>= _rep_shift(d)
        cnt = np.empty_like(at)
        np.subtract(at[1:], at[:-1], out=cnt[:-1])
        cnt[-1:] = keys.size - at[-1:]
        del at
        self.reps = reps
        self.d = d
        self.Z = np.zeros(reps, dtype=np.int64)
        self.V = np.zeros(reps, dtype=np.int64)
        self.Omega = np.zeros(reps, dtype=np.int64)
        if keys.size:
            # each live replicate owns one segment of the sorted sites
            starts = np.flatnonzero(np.concatenate(([True], rep[1:] != rep[:-1])))
            live = rep[starts]
            self.Z[live] = np.add.reduceat(cnt, starts)
            self.V[live] = np.maximum.reduceat(cnt, starts)
            self.Omega[live] = np.diff(starts, append=len(rep))
        big = cnt > J_MAX
        self.overflow_mass = np.zeros(reps, dtype=np.int64)
        np.add.at(self.overflow_mass, rep[big], cnt[big])
        # rep becomes each site's histogram cell, rep (J_MAX + 1) + min(cnt, J_MAX + 1) - 1
        rep *= J_MAX + 1
        rep += cnt
        rep[big] -= cnt[big] - (J_MAX + 1)
        rep -= 1
        del cnt, big
        M = np.bincount(rep, minlength=reps * (J_MAX + 1)).reshape(reps, J_MAX + 1)
        del rep
        self.M = M[:, :J_MAX]
        self.overflow_sites = M[:, J_MAX].copy()
        self.T = np.full(reps, -1, dtype=np.int64)
        self.S = np.zeros((reps, d), dtype=np.int64)
        if keys.size:
            # a uniform particle of each live replicate; replicate r's
            # particles are keys[zc[r]:zc[r + 1]]
            zc = np.concatenate(([0], np.cumsum(self.Z)))
            alive = np.nonzero(self.Z > 0)[0]
            site = keys[(zc[alive] + rng.random(len(alive)) * self.Z[alive]).astype(np.int64)]
            self.T[alive] = np.searchsorted(keys, site, side="right") - np.searchsorted(keys, site)
            self.S[alive] = decode_sites(site, d)

    def row(self, i: int, n: int, rep: int | None = None, seed: int | None = None,
            conditioned: bool = False, attempts: int | None = None) -> dict:
        """Replicate i as a JSON row; `attempts` is the number of free runs
        rejection would have needed (Geometric(s_n)), T and S the typical
        particle's count and site (None for an extinct replicate)."""
        drawn = self.Z[i] > 0
        return {
            "rep": rep, "n": n, "d": self.d, "seed": seed,
            "conditioned": conditioned, "attempts": attempts,
            "Z": int(self.Z[i]), "V": int(self.V[i]), "Omega": int(self.Omega[i]),
            "M": self.M[i].tolist(),
            "overflow": {"sites": int(self.overflow_sites[i]),
                         "mass": int(self.overflow_mass[i])},
            "T": int(self.T[i]) if drawn else None,
            "S": self.S[i].tolist() if drawn else None,
        }


# ---------------------------------------------------------------------------
# runs


def _origin_keys(tags: np.ndarray, d: int) -> np.ndarray:
    """One particle at the origin for each (replicate or walk) tag."""
    return (tags.astype(np.int64) << _rep_shift(d)) + encode_sites(np.zeros((1, d)), d)[0]


def run_batch(dist: OffspringDist, n: int, d: int, reps: int,
              rng: np.random.Generator, survival: np.ndarray | None = None) -> BatchStats:
    """`reps` independent runs in one particle array: free runs, or, given
    `survival` = `xf.survival_sequence(dist, n')` for some n' >= n (s_0..s_n'),
    runs conditioned on survival to generation n, drawn exactly from the
    reduced tree."""
    _check_capacity(n, d, reps)
    if survival is not None:
        _check_survival(survival, n)
    keys = evolve_particles(_origin_keys(np.arange(reps), d), n, dist, d, rng, survival)
    return BatchStats(keys, reps, d, rng)


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
    z = np.ones(reps, dtype=np.int64)
    idx = None  # the surviving runs' indices, once a generation has been drawn
    for _ in range(n):
        if len(z) == 0:
            break
        z = dist.sample_offspring_sum(z, rng)
        keep = np.flatnonzero(z > 0)
        idx = keep if idx is None else idx.take(keep)
        z = z.take(keep)
    if idx is None:
        return z
    z_final = np.zeros(reps, dtype=np.int64)  # allocated last, to lower the peak
    z_final[idx] = z
    return z_final


def population_conditioned_batch(dist: OffspringDist, n: int, want: int,
                                 rng: np.random.Generator,
                                 survival: np.ndarray) -> np.ndarray:
    """Z_n for `want` runs conditioned on survival to generation n: the size
    of the reduced tree's last generation (`survival` as in `run_batch`)."""
    _check_survival(survival, n)
    r = np.ones(want, dtype=np.int64)
    for g in range(n):
        r = dist.sample_kept_sum(r, survival[n - 1 - g], rng)
    return r


# ---------------------------------------------------------------------------
# attached walks: many independent walks, each read near its own query site


def _takes_tree(reps: int, n: int, d: int, radii: np.ndarray) -> bool:
    """The route rule for `reps` replicates of n walks (module doc), given the
    tree's clamp schedule `radii` (`_tree_clamp(n - 1, d, ell)`): the reps n
    walk tags do not fit the key packing range, or the staggered array's
    expected particle-generations exceed the cells that the tree's two sweeps
    store."""
    cells = 2 * sum(math.comb(int(r) + d, d) for r in radii[1:])
    return reps * n >= _max_tags(d) or reps * n * (n - 1) // 2 > cells


def attached_walks(query: np.ndarray, ell: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Independent binary-fission branching random walks from the origin, each
    read near its own query site.

    query[reps, n, d] (int16) holds n walks per replicate: walk (r, i) has
    age i, query site query[r, i] and flat index r n + i.  Returns (walk,
    rel): for every final particle within Euclidean distance `ell` of its
    walk's query site, the walk's flat index and the particle's offset from
    that site.  The range check runs first; the route (module doc) follows
    from the shape and `ell` alone, and the tree takes every batch whose walk
    tags do not fit the staggered array's keys."""
    reps, n, d = query.shape
    _check_capacity(n - 1, d, 0)  # the reach; walk tags only bound the staggered keys
    radii = _tree_clamp(n - 1, d, ell)  # one schedule per batch
    if _takes_tree(reps, n, d, radii):
        return _tree_walks(query, ell, radii, rng)
    return _staggered_walks(query, ell, rng)


def _staggered_walks(query, ell, rng):
    """`attached_walks` on the staggered particle array (module doc): the
    walks of age i enter after n - 1 - i steps, tagged r n + i."""
    reps, n, d = query.shape
    shift = _rep_shift(d)
    entries = _origin_keys(np.arange(reps) * n, d)  # the age-0 walks' keys
    keys = np.empty(0, dtype=np.int64)
    for age in range(n - 1, -1, -1):
        keys = np.concatenate((evolve_particles(keys, 1, _BINARY, d, rng),
                               entries + (age << shift)))
    walk = keys >> shift
    rel = decode_sites(keys, d) - query.reshape(-1, d)[walk]
    near = in_ball(rel, ell)
    return walk[near], rel[near]


# the tree's hitting update, shared by the tree and the conditioned sampler
BINARY_HITTING = hitting_update(_BINARY)


def _tree_clamp(top: int, d: int, ell: float) -> np.ndarray:
    """Box radius of the tree's hitting field of each horizon 0..top: a walk's
    expected count in the ball loses at most 1e-14 per horizon to it (module
    doc).  The field of horizon m >= 1 stores exactly radius r_m."""
    return clamp_schedule(top, d, 1e-14) + math.floor(ell)


def tree_step(u: Field, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One horizon of the reduced tree, m + 1 -> m = u.step, for the kept
    particles at offsets x[k, d] (target minus site): (K[k], the children's
    offsets), each parent's children in one block in parent order.  A kept
    particle has K = 1 + Bernoulli(p/(2-p)) kept children, p = (P u_m)(x),
    and each child steps by the row of u_m around x."""
    row, p = u.neighbor_row(x)
    k = 1 + (rng.random(len(x)) < p / (2.0 - p))
    # each parent's cumulative row, then one copy per child (the same bits as
    # the cumsum of the repeated rows)
    cdf = np.repeat(np.cumsum(row, axis=1, out=row), k, axis=0)
    x = np.repeat(x, k, axis=0)
    pick = (cdf <= rng.random((len(x), 1))).sum(axis=1)
    x -= neighborhood(u.dim)[np.minimum(pick, 2 * u.dim, out=pick)]
    return k, x


def _tree_walks(query, ell, radii, rng):
    """`attached_walks` for binary fission on the ball-targeted reduced tree
    (module doc), its horizon m clamped at radii[m] (`_tree_clamp`); x holds
    the kept particles' offsets, query site minus site."""
    reps, n, d = query.shape
    owner = np.empty(0, dtype=np.int64)
    x = np.empty((0, d), dtype=np.int64)
    ball = Field.tabulate(lambda s: in_ball(s, ell), d, math.floor(ell), step=0)
    for u in ReversedSweep(n - 1, d, BINARY_HITTING, radii, start=ball):
        if len(x):
            k, x = tree_step(u, x, rng)
            owner = np.repeat(owner, k)
        # the walks of age m enter as Bernoulli(u_m(q)), in replicate order
        q = query[:, u.step]
        new = np.flatnonzero(rng.random(reps) < u.values_at(q))
        owner = np.concatenate((owner, new * n + u.step))
        x = np.concatenate((x, q[new]))
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
    both, iu, iv = np.intersect1d(uu, uv, assume_unique=True, return_indices=True)
    d_n = np.zeros(reps, dtype=np.int64)
    np.add.at(d_n, both >> shift, cu[iu] + cv[iv])
    return d_n
