"""Seed derivation and random-generator construction.

All randomness in the package flows through two primitives:

* ``make_rng(seed)`` builds a numpy ``Generator`` backed by Philox
  ("philox4x64", counter based), so a 64-bit integer seed fully
  determines every stream.
* ``mix_seed(base_seed, r)`` derives the seed for trial ``r`` as the
  r-th output of a SplitMix64 stream started at ``base_seed``. Distinct
  trials therefore get decorrelated seeds that can be computed
  independently, in any order and in any grouping of trials.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

GENERATOR_NAME = "philox4x64"
SEED_MIXER_NAME = "splitmix64"


def splitmix64(state):
    """SplitMix64 finalizer applied to a 64-bit state."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(base_seed, r):
    """Seed for trial ``r``: output r of SplitMix64 seeded at ``base_seed``."""
    if r < 0:
        raise ValueError(f"trial index must be >= 0, got {r}")
    state = (int(base_seed) + (int(r) + 1) * _GAMMA) & _MASK64
    return splitmix64(state)


def make_rng(seed):
    """Deterministic numpy Generator (Philox) for a 64-bit integer seed."""
    return np.random.Generator(np.random.Philox(int(seed) & _MASK64))
