"""A fixed piece of pure-Python work that times the machine, not the library.

On a shared virtual machine the CPU's speed drifts by a fifth or more
between runs, and switches between fast and slow spells within tens of
milliseconds, with the neighbours' load; a run's op times drift with it.
While ops run, a timer signal runs this kernel every EVERY_S seconds,
between ops and in the middle of long ones, and each op's wall time (less
the samples' own time) is scaled by NOMINAL_S over the kernel's time
during the op, so that op times read as at one fixed machine speed (the
speed at which the kernel takes NOMINAL_S).  The kernel never calls the
library, so a change to the library moves the scaled times and the
machine's speed moves them far less.  It does the kinds of work the
library does: small and big integer arithmetic, Fractions, tuples, dicts
and sorting.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.00075  # the kernel's time at the reference speed: its median on a shared 2-CPU VM
EVERY_S = 0.02  # period of the samples
WINDOW_S = 0.05  # an op is scaled by the samples inside it and this near it
BEST_OF = 3

_BIG = 3**160


def kernel():
    acc, counts, words = 1, {}, []
    for i in range(300):
        t = (i % 7, i % 5, i % 3)
        counts[t] = counts.get(t, 0) + 1
        acc = (acc * _BIG + i) % (_BIG + 7)
        words.append(t + (acc & 3,))
    words.sort()
    f = Fraction(1, 3)
    for i in range(1, 40):
        f = f * Fraction(i, i + 2) + Fraction(1, i)
    return acc, len(words), f


def sample(best_of=BEST_OF):
    """The kernel's best time of `best_of` runs back to back."""
    best = float("inf")
    for _ in range(best_of):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Calibration:
    """Kernel samples taken every EVERY_S by a timer signal while the
    context is open, and the scale of an op's time.  Only one can be open
    in a process, since it owns SIGALRM."""

    def __init__(self):
        self.times, self.values = [], []
        self.spent = 0.0  # seconds the samples took

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_):
        t0 = perf_counter()
        self.values.append(sample())
        self.times.append(t0)
        self.spent += perf_counter() - t0

    def scale(self, t0, t1):
        """NOMINAL_S times the mean inverse kernel time of the samples
        taken in [t0 - WINDOW_S, t1 + WINDOW_S]: the op's work over its
        time is the machine's mean speed over it, and that speed is the
        inverse of the kernel's time."""
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        window = self.values[lo:hi] or self.values[-1:]
        return NOMINAL_S * sum(1 / v for v in window) / len(window)
