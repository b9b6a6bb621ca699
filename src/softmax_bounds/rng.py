"""Deterministic named random substreams.

One user-facing seed drives several independent consumers (shuffling, class
sampling, data generation, initialization). Each consumer asks for a stream
by name; the name is hashed into a spawn key so streams are independent,
stable across runs and platforms, and insensitive to the order in which they
are created.
"""

from __future__ import annotations

import hashlib

import numpy as np

from softmax_bounds.config import ConfigError


def substream(seed: int, name: str) -> np.random.Generator:
    """Return the PCG64 generator for (seed, name); the seed must be >= 0."""
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    digest = hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))
    return np.random.Generator(np.random.PCG64(ss))
