"""A fixed pure-Python loop that measures how fast the machine runs right now.

On the shared 2-CPU machine where this benchmark was built, the speed of
one CPU changes by up to 1.8x in regimes lasting about 10-20 s, so the
same pass can take 1.4 s or 2.5 s. Every timed sample is therefore
paired with runs of this loop next to it, and the gated times are
reported in normalized seconds:

    sample_s * REFERENCE_S / loop_s

which is the time the sample would have taken while the loop took
REFERENCE_S. The loop is the benchmark's own code, so a change to the
program moves the normalized time exactly as it moves the raw time.

The loop is a miniature of the step kernels, run with the cyclic GC held
off. Over five seeds of stream-small, the run-to-run spread of the
normalized pass time was about 3% with it. It was 6-12% with a loop of
plain arithmetic, or with a loop that let the GC run.
"""

import gc
import time
from bisect import bisect_right

# about the loop's median time on the 2-CPU Xeon (2.1 GHz) where the
# first baseline was taken; at that speed normalized seconds are wall seconds
REFERENCE_S = 0.014


class _Record:
    __slots__ = ("step", "state")

    def __init__(self, step, state):
        self.step = step
        self.state = state


def _loop() -> int:
    # a miniature of the step kernels: float arithmetic, bisect on a
    # short cumulative row, one small object kept per step
    rows = ([0.5, 1.0], [0.3, 1.0])
    x = 0.5
    state = 0
    records = []
    for step in range(24_000):
        x = 3.9 * x * (1.0 - x)
        state = min(bisect_right(rows[state], x), 1)
        records.append(_Record(step, state))
    return len(records)


def loop_s() -> float:
    """Seconds the calibration loop takes now.

    The cyclic GC is held off: its cost depends on the size of the
    program's heap, not on the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalized(sample_s: float, loop_times: list) -> float:
    """sample_s in normalized seconds, given loop times taken around it."""
    return sample_s * REFERENCE_S / (sum(loop_times) / len(loop_times))
