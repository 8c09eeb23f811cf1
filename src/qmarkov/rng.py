"""Deterministic random number generation.

Every stochastic operation takes an explicit RngState; there is no
module-level generator.  An RngState is one stream of uniforms from one
64-bit seed, consumed in order.  The algorithm is pinned (PCG64,
exposed as the name "pcg64" in output metadata) so that a seed fully
determines every trajectory across runs and platforms.
"""

import numpy as np

from .errors import check_int

RNG_ALGORITHM = "pcg64"

_SEED_MAX = 2**64 - 1


class RngState:
    """A PCG64 stream set by one 64-bit seed.

    The stream is PCG64 on SeedSequence(seed), each of its 64-bit outputs
    taken as one uniform over [0, 1).  Block draws produce the same
    values as the same number of successive single draws, so consumers
    may batch for speed without changing results.
    """

    __slots__ = ("seed", "_generator")

    def __init__(self, seed: int):
        self.seed = check_int("seed", seed, 0, _SEED_MAX)
        self._generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    def random(self) -> float:
        """The next uniform draw."""
        return float(self._generator.random())

    def random_block(self, count: int) -> np.ndarray:
        """The next `count` uniform draws as an array."""
        return self._generator.random(check_int("count", count, 0))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed})"
