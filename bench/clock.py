"""A fixed reference kernel and the host-speed normalisation built on it.

The host's speed drifts: the same pure-Python loop timed in one-second
windows can vary by more than half within a minute, and CPU time drifts with
it. The benchmark therefore times this kernel between operations and scales
every measured time by ``NOMINAL_MS / kernel time``, so a temporarily slower
host leaves the normalised figures unchanged.

The kernel works only on integers and on objects built once at import, so it
allocates no object that the cyclic garbage collector tracks, and it runs
with the collector paused. A program that grows a large heap therefore cannot
slow the kernel and so make its own normalised times look smaller.
"""

from __future__ import annotations

import gc
import statistics
import time

# Typical kernel time on the reference host (2 shared vCPUs, Python 3.11,
# where the README's figures come from). Normalised times read as times on
# that host.
NOMINAL_MS = 0.45
LOOPS = 1000
SAMPLE_EVERY_S = 0.05  # least spacing of kernel samples during a run
REPEATS = 3            # kernel calls per sample; the sample is their median

class _Cell:
    __slots__ = ("x", "y")

    def __init__(self):
        self.x, self.y = 3, 5

    def step(self, k: int) -> int:
        return self.x * k + self.y


_CELL = _Cell()
_TUPLES = [tuple(range(i % 7, i % 7 + 5)) for i in range(256)]


def kernel(loops: int = LOOPS) -> int:
    """Method calls, attribute reads, tuple hashing and integer arithmetic,
    the interpreter work the pipeline is made of, on pre-built objects."""
    cell, tuples = _CELL, _TUPLES
    acc = 0
    for i in range(loops):
        acc += cell.step(i) + cell.y
        acc ^= hash(tuples[i & 255])
        if acc > 0xFFFFFFFF:
            acc &= 0xFFFF
    return acc


def kernel_ms() -> float:
    """Median of REPEATS timed kernel calls, with the collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append((time.perf_counter() - t0) * 1e3)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


class Normaliser:
    """Kernel samples taken along a run. Each timed interval is scaled by
    the mean kernel time of the samples just before and just after it."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = 0.0
        self.sample()

    def sample(self) -> int:
        self.samples.append(kernel_ms())
        self.last = time.perf_counter()
        return len(self.samples) - 1

    def maybe_sample(self) -> int:
        """Take a sample when SAMPLE_EVERY_S has passed; return the index of
        the latest sample, which opens the segment of the next interval."""
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def factor(self, segment: int) -> float:
        """NOMINAL_MS over the kernel time around the given segment; the
        closing sample is the next one, or the segment's own if none."""
        after = self.samples[min(segment + 1, len(self.samples) - 1)]
        return NOMINAL_MS / ((self.samples[segment] + after) / 2)


if __name__ == "__main__":
    end = time.perf_counter() + 20
    vals = []
    while time.perf_counter() < end:
        vals.append(kernel_ms())
    q = statistics.quantiles(vals, n=4)
    print(f"kernel: median {statistics.median(vals):.4f} ms, "
          f"quartiles {q[0]:.4f} / {q[2]:.4f} ms, nominal {NOMINAL_MS} ms")
