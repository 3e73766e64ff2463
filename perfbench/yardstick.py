"""A yardstick for the speed of the host: a fixed slice of pure Python.

On a shared host a vCPU runs the same code up to 1.6 times slower in some
spells than in others (a neighbour on the same core, most likely); the spells
change within seconds, the share of slow ones drifts over minutes, and the two
vCPUs of one machine do not move together. So CPU and wall times of the same
code spread by 10-40% between runs. Slices of a fixed computation run in the
same process, interleaved with the measured work, go through the same spells;
the work's CPU time over the slices' mean CPU time spreads by a few percent.

A slice calls nothing of chromaspec, so no change to the program moves it. It
is pure Python, as most of chromaspec's work is: the smallest 10-bit adjacency
code over all vertex orders of 100 fixed 5-vertex graphs. NOMINAL_S turns a
cost in slices back into seconds; it is a round figure near the CPU time of a
slice on the 2-vCPU host where the benchmark was set up, where the median
slice of a run took 0.020-0.036 s (0.028 s over 80 runs).
"""

from __future__ import annotations

import itertools
import random
import resource
import signal
from contextlib import contextmanager
from time import perf_counter, process_time

NOMINAL_S = 0.025


def cpu_seconds() -> float:
    """CPU seconds used by this process and its waited-for children: time the
    process spends waiting for a vCPU, taken by the hypervisor or by other
    processes, does not count."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


class Yardstick:
    """Slices of the fixed computation and their CPU times.

    Inside ``sampling()`` a profiling timer interrupts the measured work every
    INTERVAL CPU seconds, also in the middle of a long command, to run one
    slice, so the slices are spread over the work as evenly as its spells.
    """

    INTERVAL = 0.25  # CPU seconds between slices: slices take about a tenth

    def __init__(self) -> None:
        rng = random.Random(7)
        self.graphs = [[[0] * 5 for _ in range(5)] for _ in range(100)]
        for adj in self.graphs:
            for v, w in itertools.combinations(range(5), 2):
                adj[v][w] = adj[w][v] = int(rng.random() < 0.5)
        self.orders = list(itertools.permutations(range(5)))
        self.slices: list[float] = []  # CPU seconds of each timed slice
        self.spent_wall = self.spent_cpu = 0.0  # seconds spent in timed slices
        self._busy = False

    def slice(self) -> int:
        total = 0
        for adj in self.graphs:
            best = 1 << 10
            for p in self.orders:
                code = 0
                for i in range(5):
                    row = adj[p[i]]
                    for j in range(i + 1, 5):
                        code = 2 * code + row[p[j]]
                best = min(best, code)
            total += best
        return total

    def sample(self, *_) -> None:
        """Run and time one slice; also the SIGPROF handler."""
        if self._busy:  # the timer fired while a slice ran
            return
        self._busy = True
        wall, cpu = perf_counter(), cpu_seconds()
        self.slice()
        cpu = cpu_seconds() - cpu
        self.slices.append(cpu)
        self.spent_cpu += cpu
        self.spent_wall += perf_counter() - wall
        self._busy = False

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


def nominal_seconds(cpu: float, slices: list[float]) -> float:
    """cpu seconds, measured beside slices of these CPU times, scaled to a
    host on which a slice takes NOMINAL_S."""
    return cpu / (sum(slices) / len(slices)) * NOMINAL_S
