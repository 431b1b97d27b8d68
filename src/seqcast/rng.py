"""Seedable random number generation.

Every stochastic piece of the package (weight init, dropout masks, epoch
shuffling) draws from numpy's PCG64 bit generator.
PCG64 is a fixed, documented member of the PCG family; a given seed yields
the same stream on every platform, which is what makes checkpoints and
training runs reproducible byte for byte.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))
