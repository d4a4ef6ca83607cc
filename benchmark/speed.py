"""How fast the benchmark's CPU runs Python while a sample runs.

On a shared host one CPU can run the same Python code at speeds about 1.4x
apart, switching every few seconds, and the two CPUs of a 2-vCPU machine
switch independently of each other.  Raw wall and CPU times then measure the
host as much as the program.  So the benchmark pins itself and its children
to one CPU and, while a child runs, times on that same CPU one of a few
fixed jobs every TICK_S.  The jobs are the benchmark's own code and call no
lgrnok function, so a change to the program cannot change them; each
exercises another part of the interpreter (integer arithmetic, tuples and
dicts, sets of cells, Fraction arithmetic), because a slow phase does not
slow all of them alike.  A sample's times are scaled to the speed at which
the jobs together take REFERENCE_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Seconds between two jobs, and the speed the times are scaled to: the
# four jobs together take REFERENCE_S.  Each job takes about a millisecond,
# so the meter has about 6% of the CPU.
TICK_S = 0.015
REFERENCE_S = 0.005

_SHAPES = ((5, 4, 4, 2, 1), (4, 4, 3, 1), (6, 5, 3, 3, 2, 1), (3, 3, 2), (5, 5, 5, 1))


def _arithmetic() -> int:
    total = 0
    for i in range(15_000):
        total += i * i
    return total


def _pair(x: int, y: int) -> tuple[int, int]:
    return (x, y)


def _tuples_and_dicts() -> dict:
    counts: dict = {}
    for i in range(1_500):
        key = _pair(i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
        sorted((i % 7, i % 5, i % 3))
    return counts


def _boxes(shape):
    for row, width in enumerate(shape, start=1):
        for column in range(1, width + 1):
            yield (row, column)


def _cell_sets() -> int:
    longest = 0
    for _ in range(4):
        for outer in _SHAPES:
            for inner in _SHAPES:
                region = frozenset(set(_boxes(outer)) - set(_boxes(inner)))
                for (row, column) in region:
                    run = 1
                    while (row + run, column + run) in region:
                        run += 1
                    longest = max(longest, run)
    return longest


def _fractions() -> list:
    for _ in range(3):
        rows = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
        for i in range(5):
            for k in range(5):
                if k != i:
                    factor = rows[k][i] / rows[i][i]
                    rows[k] = [a - factor * b for a, b in zip(rows[k], rows[i])]
    return rows


JOBS = (_arithmetic, _tuples_and_dicts, _cell_sets, _fractions)


class SpeedMeter:
    """Times the jobs in turn, one per tick, for the length of a sample."""

    def __init__(self) -> None:
        self.times: list[list[float]] = [[] for _ in JOBS]
        self._next = 0

    def tick(self) -> None:
        job = self._next
        start = time.perf_counter()
        JOBS[job]()
        self.times[job].append(time.perf_counter() - start)
        self._next = (job + 1) % len(JOBS)

    def finish(self) -> None:
        """Time each job the sample ended before, right after it."""
        while any(not times for times in self.times):
            self.tick()

    def scale(self) -> float:
        """Reference seconds per second measured: REFERENCE_S over the
        summed mean times of the jobs."""
        return REFERENCE_S / sum(sum(times) / len(times) for times in self.times)
