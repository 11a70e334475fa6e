"""Counter-based random streams keyed by integer tuples.

Every stochastic routine in the package draws from a Philox stream keyed by
(seed, tag, ...).  That makes each routine a pure function of its arguments:
running replicates in parallel, or in a different order, cannot change any
draw.
"""

import numpy as np

from .errors import count

TAG_NOISE = 1
TAG_PROBES = 2
TAG_POWER = 3

_MASK = (1 << 64) - 1


def keyed_rng(*key: int) -> np.random.Generator:
    """Return a Generator whose stream is determined solely by ``key``, a
    tuple of integers (a ValueError otherwise)."""
    entropy = [count("stream key", k) & _MASK for k in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
