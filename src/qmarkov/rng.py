"""Deterministic random number generation.

Every stochastic operation takes an explicit RngState; there is no
module-level generator.  An RngState is two streams from one 64-bit
seed, each consumed in order: the main stream, read as uniforms or as
raw 64-bit words, and a fallback stream of uniforms for what a raw-word
draw leaves undecided.  The algorithm is pinned (PCG64, exposed as the
name "pcg64" in output metadata) so that a seed fully determines every
trajectory across runs and platforms.
"""

import numpy as np

from .errors import check_int

RNG_ALGORITHM = "pcg64"

_SEED_MAX = 2**64 - 1


class RngState:
    """Two PCG64 streams set by one 64-bit seed.

    The main stream is PCG64 on SeedSequence(seed); each of its 64-bit
    outputs is taken either as one uniform over [0, 1) or as one raw
    word.  The fallback stream is PCG64 on SeedSequence(seed,
    spawn_key=(0,)), a child of the same seed, made on its first draw.
    Block draws produce the same values as the same number of successive
    single draws, so consumers may batch for speed without changing
    results.
    """

    __slots__ = ("seed", "_generator", "_fallback")

    def __init__(self, seed: int):
        self.seed = check_int("seed", seed, 0, _SEED_MAX)
        self._generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        self._fallback = None

    def random(self) -> float:
        """The next uniform draw."""
        return float(self._generator.random())

    def random_block(self, count: int) -> np.ndarray:
        """The next `count` uniform draws as an array."""
        return self._generator.random(check_int("count", count, 0))

    def raw_block(self, count: int) -> np.ndarray:
        """The next `count` outputs of the main stream as raw 64-bit words, an array of uint64."""
        return self._generator.bit_generator.random_raw(check_int("count", count, 0))

    def fallback_block(self, count: int) -> np.ndarray:
        """The next `count` uniform draws of the fallback stream as an array."""
        if self._fallback is None:
            self._fallback = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(0,))))
        return self._fallback.random(check_int("count", count, 0))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed})"
