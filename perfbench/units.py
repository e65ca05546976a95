"""Per-unit kernel costs at fixed sizes, measured through public brwlab calls.

Each entry times one public function at 2-3 sizes so the scaling shows, and
divides by a work count that the benchmark fixes itself (cells, particles,
parents, steps), so the figures stay comparable when the code behind the
call changes.  A unit whose function is missing or no longer accepts these
arguments reports 0.0 and is listed under `missing`; nothing here fails.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from brwlab import conditioned as cr
from brwlab import exactfields as xf
from brwlab import forward as fw
from brwlab import lattice
from brwlab import offspring
from brwlab import spine as sp

REPEATS = 3


def _per_call(fn, repeats: int = REPEATS, warm: bool = True) -> float:
    """Median wall time of one call, after a warm-up call when `warm`."""
    if warm:
        fn()
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _full_box_cells(n: int, d: int, clamp: int) -> int:
    """Output cells of n clamped steps from the delta: side 2*min(k, clamp)+1."""
    return sum((2 * min(k, clamp) + 1) ** d for k in range(1, n + 1))


def stencil_full(d: int, radius: int, steps_at_radius: int):
    n = radius + steps_at_radius
    t = _per_call(lambda: lattice.transition_field(n, d, clamp=radius), repeats=1, warm=False)
    return t / _full_box_cells(n, d, radius) * 1e9


def stencil_octant(d: int, clamp: int, steps: int):
    dist = offspring.binary()
    t = _per_call(lambda: xf.second_moment_sweep(dist, steps, d, clamp=clamp))
    return t / (2 * steps * (clamp + 1) ** d) * 1e9  # two fields advance per step


def evolve(n_particles: int, calls: int, seed: int):
    d = 2
    dist = offspring.binary()
    keys = (np.arange(n_particles, dtype=np.int64) << fw._rep_shift(d)) \
        + fw.encode_sites(np.zeros((1, d)), d)[0]
    rng = np.random.default_rng(seed)

    def body():
        for _ in range(calls):
            fw.evolve_particles(keys, 1, dist, d, rng)
    return _per_call(body) / (calls * n_particles) * 1e9


def batchstats(n_keys: int, seed: int):
    d = 2
    rng = np.random.default_rng(seed)
    reps = max(1, n_keys // 10)
    sites = rng.integers(-20, 21, size=(n_keys, d))
    keys = (rng.integers(0, reps, size=n_keys).astype(np.int64) << fw._rep_shift(d)) \
        + fw.encode_sites(sites, d)
    return _per_call(lambda: fw.BatchStats(keys, reps, d, np.random.default_rng(seed))) \
        / n_keys * 1e9


def sample_sum(spec: str, parents: int, seed: int):
    dist = offspring.parse_offspring(spec)
    k = np.ones(parents, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return _per_call(lambda: dist.sample_offspring_sum(k, rng)) / parents * 1e9


def population(reps: int, calls: int, seed: int):
    dist = offspring.binary()
    rng = np.random.default_rng(seed)

    def body():
        for _ in range(calls):
            fw.population_batch(dist, 1, reps, rng)
    return _per_call(body) / (calls * reps) * 1e9


def parse_seconds(spec: str, repeats: int):
    return _per_call(lambda: offspring.parse_offspring(spec), repeats=repeats, warm=False)


def spine_typical(n: int, reps: int, seed: int):
    rng = np.random.default_rng(seed)
    t = _per_call(lambda: sp.spine_typical_batch(n, reps, rng), repeats=1, warm=False)
    return t / (reps * n) * 1e6


def conditioned_path(n: int, paths: int, seed: int):
    sampler = cr.ConditionedSampler(n, (1, 0), cr.HittingBank(n, 2))
    rng = np.random.default_rng(seed)

    def body():
        for _ in range(paths):
            sampler.sample_path(rng)
    return _per_call(body, repeats=2) / (paths * n) * 1e6


def pmf_oracle(n: int):
    dist = offspring.binary()
    return _per_call(lambda: xf.pmf_oracle(dist, n, 2, degree=64)) / n * 1e3


def units(seed: int):
    """(metric name, unit, callable) for every per-unit cost."""
    out = []
    for r in (64, 128, 256):
        out.append((f"lattice.stencil.full.d2.ns_per_cell.R{r}", "ns",
                    lambda r=r: stencil_full(2, r, 8)))
    for r in (8, 16, 32):
        out.append((f"lattice.stencil.full.d3.ns_per_cell.R{r}", "ns",
                    lambda r=r: stencil_full(3, r, 2)))
    for c in (32, 100, 256):
        out.append((f"exactfields.stencil.octant.d2.ns_per_cell.C{c}", "ns",
                    lambda c=c: stencil_octant(2, c, 16)))
    for c in (16, 48, 83):
        out.append((f"exactfields.stencil.octant.d3.ns_per_cell.C{c}", "ns",
                    lambda c=c: stencil_octant(3, c, 8)))
    for label, size, calls in (("1e2", 100, 500), ("1e4", 10_000, 30), ("1e6", 1_000_000, 1)):
        out.append((f"forward.evolve.ns_per_particle_gen.N{label}", "ns",
                    lambda size=size, calls=calls: evolve(size, calls, seed)))
    for label, size in (("1e3", 1000), ("1e5", 100_000), ("1e6", 1_000_000)):
        out.append((f"forward.batchstats.ns_per_key.N{label}", "ns",
                    lambda size=size: batchstats(size, seed)))
    for label, spec in (("binary", "binary"), ("geometric2", "geometric:2"), ("zeta2", "zeta:2")):
        out.append((f"offspring.sample_sum.ns_per_parent.{label}", "ns",
                    lambda spec=spec: sample_sum(spec, 100_000, seed)))
    for label, reps, calls in (("1e4", 10_000, 20), ("1e6", 1_000_000, 1)):
        out.append((f"forward.population.ns_per_rep_gen.reps{label}", "ns",
                    lambda reps=reps, calls=calls: population(reps, calls, seed)))
    for label, spec, repeats in (("binary", "binary", 5), ("geometric50", "geometric:50", 1),
                                 ("zeta2", "zeta:2", 2)):
        out.append((f"offspring.parse_s.{label}", "s",
                    lambda spec=spec, repeats=repeats: parse_seconds(spec, repeats)))
    for n, reps in ((128, 4), (256, 2), (512, 1)):
        out.append((f"spine.typical.us_per_rep_height.n{n}", "us",
                    lambda n=n, reps=reps: spine_typical(n, reps, seed)))
    for n, paths in ((3, 2000), (32, 200), (128, 40)):
        out.append((f"conditioned.path.us_per_step.n{n}", "us",
                    lambda n=n, paths=paths: conditioned_path(n, paths, seed)))
    for n in (4, 8, 12):
        out.append((f"exactfields.pmf_oracle.ms_per_step.n{n}", "ms",
                    lambda n=n: pmf_oracle(n)))
    return out


def measure(seed: int) -> dict:
    """{"metrics": {name: {"value", "unit"}}, "missing": [...], "seconds": ...}."""
    t0 = time.perf_counter()
    metrics, missing = {}, []
    for name, unit, fn in units(seed):
        try:
            value = float(fn())
        except (AttributeError, TypeError, ValueError, NotImplementedError) as exc:
            value = 0.0
            missing.append(f"{name}: {type(exc).__name__}: {exc}")
        metrics[name] = {"value": value, "unit": unit}
    return {"metrics": metrics, "missing": missing, "seconds": time.perf_counter() - t0}
