"""Splittable random streams.

Every stochastic computation derives its generator from a 64-bit master seed,
a named stream id, and a replicate index through numpy's SeedSequence spawn
keys, so replaying any command with the same (config, seed) is byte-identical.
"""

from __future__ import annotations

import numpy as np

# Stable stream ids; new subsystems append, existing ids never change.
STREAMS = {
    "simulate": 1,
    "conditioned-sim": 2,
    "overlap": 3,
    "spine": 4,
    "spine-ball": 5,
    "conditioned-rep": 6,
    "population": 7,
    "sizebias": 8,
    "selftest": 9,
}


def substream(master_seed: int, stream: int | str, rep: int = 0) -> np.random.Generator:
    """Generator for (master seed, stream id, replicate index)."""
    if isinstance(stream, str):
        stream = STREAMS[stream]
    ss = np.random.SeedSequence(master_seed, spawn_key=(stream, rep))
    return np.random.Generator(np.random.Philox(ss))
