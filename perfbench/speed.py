"""The machine's current speed, sampled with a fixed reference computation.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same CLI call takes up to twice as much CPU time a few minutes later, as other
tenants load the host.  A fixed pure-Python computation that shares the
program's character (rational arithmetic, short lists, tuple-keyed dicts) and
none of its code slows down with it.  ``Sampler`` times a short slice of it
when an operation starts and ends and every ``INTERVAL_S`` seconds between,
from a signal handler that runs between the operation's bytecodes.  An
operation's CPU time times the mean of ``NOMINAL_S / slice time`` is its CPU
time at the speed where one slice takes ``NOMINAL_S``; the slices' own CPU
time is left out of the operation's.  A change to ``qqsystems`` does not
change the reference, so it moves the scaled time as much as the raw one.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import List

INTERVAL_S = 0.2
# about one slice's CPU time (s) on a 2.1 GHz Xeon vCPU; it only sets the unit
NOMINAL_S = 0.0025

_A = [Fraction(i + 1, 2 * i + 3) for i in range(32)]
_B = [Fraction(2 * i - 5, i + 7) for i in range(32)]


def reference_slice() -> dict:
    """A truncated series product and a tuple-keyed sum of its terms."""
    prod = [sum(_A[i] * _B[k - i] for i in range(k + 1))
            for k in range(len(_A))]
    terms: dict = {}
    for k, c in enumerate(prod):
        key = (k % 3, k // 3)
        terms[key] = terms.get(key, 0) + c * c
    return terms


def time_slice() -> float:
    """CPU time (s) of one reference slice."""
    start = time.process_time()
    reference_slice()
    return time.process_time() - start


class Sampler:
    """Samples the speed between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: List[float] = []  # slice CPU times (s)
        self.spent = 0.0  # CPU time (s) of the slices, to leave out
        self._previous = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        start = time.process_time()
        self.samples.append(time_slice())
        self.spent += time.process_time() - start

    def start(self) -> None:
        """Take a first slice, then one every ``INTERVAL_S`` of wall time."""
        self.samples = []
        self.spent = 0.0
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; the last slice counts in ``spent`` like the rest."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def factor(self) -> float:
        """Mean of NOMINAL_S / slice time: reference seconds per CPU second."""
        return sum(NOMINAL_S / s for s in self.samples) / len(self.samples)
