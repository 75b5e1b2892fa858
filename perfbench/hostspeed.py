"""The host's speed, measured with a fixed pure-Python loop.

On the 2-vCPU virtual machine this benchmark was built on, the same loop
runs up to 1.6x slower at some times than at others, in stretches of seconds
to minutes, and the sweeps and queries slow down with it.  With nothing
changed, the median wall time of ten runs moved by up to 18% from one set
of runs to another ten minutes later, and the median cold start by 35%.  So
every end-to-end time the benchmark reports is divided by the host factor
measured over the same stretch, on the same CPU: it is the time the work
would take at the reference speed.

The host factor is the loop's time per iteration over REFERENCE_S_PER_ITERATION
(40 ns, the loop's speed on that machine in its fast stretches).  The raw
times are kept in each run's record.
"""

from __future__ import annotations

import signal
from time import perf_counter

REFERENCE_S_PER_ITERATION = 40e-9
PROBE_PERIOD_S = 0.05
PROBE_ITERATIONS = 3000


def loop(iterations: int) -> float:
    """Seconds the fixed loop takes for ``iterations`` iterations."""
    start = perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return perf_counter() - start


def factor(seconds: float, iterations: int) -> float:
    """How many times slower than the reference the loop ran."""
    return seconds / (iterations * REFERENCE_S_PER_ITERATION)


class Probe:
    """Runs the loop briefly every PROBE_PERIOD_S while the ``with`` body runs.

    The loop runs in a SIGALRM handler, so on the thread, and the CPU, doing
    the work.  It costs about 0.4% of the time it measures.
    """

    def __init__(self):
        self.times: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        self.times.append(loop(PROBE_ITERATIONS))

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:
            self._tick()

    def factor(self) -> float:
        """The mean host factor while the body ran."""
        return factor(sum(self.times) / len(self.times), PROBE_ITERATIONS)
