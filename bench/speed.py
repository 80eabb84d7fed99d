"""Machine speed, measured with a fixed reference kernel between ops.

The host this benchmark runs on is shared: its speed drifts by up to a
factor of two over tens of seconds, and a whole run can fall in a slow or
a fast stretch.  So the run times a fixed pure-Python kernel, which does
not import fiberkit, every ``EVERY`` seconds between ops, and scales every
op's time by ``NOMINAL_S`` over the kernel time measured around it.  A
scaled time is the time the op would take on a machine on which the
kernel takes exactly ``NOMINAL_S``; a change to fiberkit moves it as much
as it moves the raw time, and the drift of the host mostly cancels.

The kernel mixes what fiberkit spends its time on: free reduction of
integer words on a list stack, polynomial products in dicts, cyclic
rotations of tuples, small bit-mask closures and string formatting.  It
allocates few objects that the garbage collector tracks, so a collection
rarely lands inside it.
"""

from __future__ import annotations

import statistics
from array import array
from bisect import bisect_right
from time import perf_counter

NOMINAL_S = 0.001   # kernel time of the reference machine
EVERY = 0.1         # seconds of run between two kernel samples
SPAN = 3            # samples on each side that set an op's factor

_WORD = tuple((i * 7919) % 7 - 3 for i in range(6000))
_ROTATE = tuple((i * 31) % 5 - 2 for i in range(60))
_FACTORS = ((0, 1), (3, -1), (5, 1), (7, -1))


def kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    stack = []
    for x in _WORD:
        if stack and stack[-1] == -x:
            stack.pop()
        elif x:
            stack.append(x)
    poly = {0: 1, 1: -1, 2: 1}
    for _ in range(5):
        product = {}
        for a, u in poly.items():
            for b, v in _FACTORS:
                product[a + b] = product.get(a + b, 0) + u * v
        poly = product
    word = _ROTATE
    least = min(word[i:] + word[:i] for i in range(len(word)))
    known = 0b1
    for _ in range(150):
        for mask in range(1, 33):
            if known & mask == mask:
                known |= mask << 1
    text = " + ".join(f"{c}*t^{e}" for e, c in sorted(poly.items()) if c)
    return len(stack) + len(poly) + least[0] + known.bit_count() + len(text)


def sample() -> float:
    """Seconds one kernel run takes: the least of three back-to-back runs,
    so an interrupt in one of them does not count."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def scaled_seconds(seconds: float, samples: list[float]) -> float:
    """``seconds`` of work done amid kernel ``samples``, scaled to the
    reference machine."""
    return seconds * NOMINAL_S / statistics.median(samples)


class Speed:
    """Kernel samples taken during a run, each with the number of ops
    completed when it was taken."""

    def __init__(self):
        for _ in range(20):  # warm the kernel's code and data up
            kernel()
        self.samples = array("d")
        self.positions = array("q")
        self.due = 0.0

    def maybe_sample(self, done_ops: int):
        """Take a sample if ``EVERY`` seconds passed since the last one."""
        if perf_counter() >= self.due:
            self.take(done_ops)

    def take(self, done_ops: int):
        """Take a sample now, after op ``done_ops - 1``."""
        self.samples.append(sample())
        self.positions.append(done_ops)
        self.due = perf_counter() + EVERY

    def scale(self, latencies, first: int = 0) -> array:
        """The times of ops ``first``, ``first + 1``, ... scaled to the
        reference machine: an op is scaled by the median of the ``SPAN``
        samples taken before it and the ``SPAN`` taken after it."""
        scaled = array("d", latencies)
        n = len(self.samples)
        k = max(bisect_right(self.positions, first) - 1, 0)
        i = 0
        while i < len(scaled) and k < n:
            end = self.positions[k + 1] - first if k + 1 < n else len(scaled)
            factor = NOMINAL_S / statistics.median(self.samples[max(0, k + 1 - SPAN):k + 1 + SPAN])
            for j in range(i, min(end, len(scaled))):
                scaled[j] *= factor
            i = max(i, end)
            k += 1
        return scaled
