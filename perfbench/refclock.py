"""Reference clock: times in seconds at a fixed speed of this interpreter.

On a shared machine (such as the 2-vCPU Xeon VM the baseline was
recorded on) the speed one thread gets drifts by 20% and more over
minutes, and flips to nearly twice as fast in bursts of a few seconds.
That drift moves every pure-Python computation alike, so the benchmark
samples the speed with a fixed reference kernel (exact Gauss-Jordan
elimination of one 12x12 rational matrix, the same kind of work frobdiag
does): right before a timed interval, right after it, and every
``PROBE_S`` seconds during it, from a ``SIGALRM`` handler.  The time the
handler takes is left out of the interval.  A measured interval is then
reported as

    seconds * REFERENCE_S / (mean of the kernel times around and in it)

that is, in seconds at the speed at which the kernel takes
``REFERENCE_S``.  No change to the package moves the kernel, so a change
that makes a case twice as fast halves its reference time, while the
machine's drift cancels.  Kernel runs only before and after an interval
do not track a speed flip in the middle of a multi-second case; the
samples inside it do.  The raw seconds are kept in each run's meta
record.
"""

from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

SIZE = 12
# The kernel's median time on the 2-vCPU Xeon VM, CPython 3.11.7, where
# the baseline in results/ was recorded.  Changing it rescales every
# reference time, so it stays fixed.
REFERENCE_S = 0.022
PROBE_S = 0.3

_rng = random.Random(20070921)
_MATRIX = tuple(tuple(Fraction(_rng.randint(-4, 4), _rng.randint(1, 4))
                      for _ in range(SIZE)) for _ in range(SIZE))


def kernel() -> float:
    """Run the reference kernel once; return its duration in seconds."""
    start = perf_counter()
    rows = [list(row) + [Fraction(int(i == j)) for j in range(SIZE)]
            for i, row in enumerate(_MATRIX)]
    for c in range(SIZE):
        p = next((i for i in range(c, SIZE) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for i in range(SIZE):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return perf_counter() - start


class Probe:
    """Kernel samples taken while an interval is being timed.

    :meth:`clock` is ``perf_counter`` minus the time spent in the
    handler, so intervals (and trace spans) timed with it leave the
    probe's own work out.
    """

    def __init__(self) -> None:
        self.kernels: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.kernels.append(kernel())
        self.spent += perf_counter() - start

    @contextmanager
    def armed(self):
        """Sample the kernel every ``PROBE_S`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def to_reference(seconds: float, kernels: list[float]) -> float:
    """Seconds at reference speed, from the kernel times in and around them."""
    return seconds * REFERENCE_S * len(kernels) / sum(kernels)
