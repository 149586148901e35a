"""The CPU speed a pass ran at, sampled while it runs.

On a shared machine the speed of one core flips between states that differ
by 1.5x or more, every few tens of milliseconds, and the share of time spent
in the slow state drifts over minutes. A pass timed in seconds then reads
what the neighbours were doing. The sampler interrupts the pass every
`INTERVAL_S` with SIGALRM and times a fixed piece of exact arithmetic that
does not use pplab, `reference_work`. Its speed is `NOMINAL_S` over the time
it took, 1.0 at the nominal speed. `Sampler.scaled` turns a measured window
into the seconds it would have taken at the nominal speed: the window less
the time spent sampling in it, times the mean speed sampled in it.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# Wall-clock time between samples; each sample takes about NOMINAL_S.
INTERVAL_S = 0.02

# The time `reference_work` takes at the nominal speed: its fastest time on a
# 2-vCPU x86-64 VM running CPython 3.11.
NOMINAL_S = 0.0006

_MATRIX = tuple(
    tuple((7 * i * i + 3 * j * j + 5 * i * j + i + 2 * j) % 19 - 9 for j in range(8))
    for i in range(8)
)


def reference_work() -> int:
    """Integer Bareiss elimination and sparse Fraction row reduction of a
    fixed 8x8 matrix: the two kinds of exact arithmetic pplab does, written
    without pplab, so that no change to pplab changes its cost."""
    n = len(_MATRIX)
    a = [list(row) for row in _MATRIX]
    prev = 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            break
        a[k], a[p] = a[p], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in _MATRIX:
        r = {c: Fraction(v, c + 1) for c, v in enumerate(row) if v}
        while r:
            c = min(r)
            if c not in pivots:
                pivots[c] = {cc: v / r[c] for cc, v in r.items()}
                break
            f = r.pop(c)
            for cc, v in pivots[c].items():
                if cc != c:
                    r[cc] = r.get(cc, 0) - f * v
                    if not r[cc]:
                        del r[cc]
    return a[n - 1][n - 1] + len(pivots)


class Sampler:
    """Samples of the speed, each kept as (start, seconds taken, speed)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_work()
        took = perf_counter() - start
        self.samples.append((start, took, NOMINAL_S / took))

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the window [start, end] would take at the nominal speed.
        A window too short to hold a sample takes the speed of the pass."""
        inside = [s for s in self.samples if start <= s[0] < end]
        speed = fmean(s[2] for s in inside or self.samples)
        return (end - start - sum(s[1] for s in inside)) * speed
