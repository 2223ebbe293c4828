"""How fast the host runs Python at each moment of a run.

On a shared host the same pure-Python work can take up to about twice
as long from one stretch of seconds to the next, and a stretch can last
longer than a run, because other tenants load the same physical cores.
To tell that apart from the program's own speed, the benchmark times a
fixed reference loop, written here and independent of gelfand, between
every two instances, and every ``TICK`` seconds while one runs (from a
SIGALRM handler, whose time is taken out of the instance's). An
instance's contention-corrected time is its wall time times
``REFERENCE_S / ref``, where ``ref`` is the median reference time
sampled from ``WINDOW`` seconds before it starts to ``WINDOW`` seconds
after it ends: the time the instance would have taken on a host that
runs the loop in ``REFERENCE_S``. The median over a window follows the
host's changes of speed, which last seconds, but not the jitter of a
single loop. A run's own fastest loop is no yardstick, since a whole
run can pass without the host ever running at full speed.

The loop mixes what the program does most: small-object method calls,
modular integer arithmetic, dict updates on tuple keys, sorting and
``Fraction`` arithmetic.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

WARMUP = 30       # loops before the first sample, so the interpreter
                  # has specialised the loop's bytecode
TICK = 0.05       # seconds between loops while an instance runs
WINDOW = 0.25     # seconds of samples on each side of an instance
# The loop's time on an uncontended core of a 2-vCPU cloud host (the
# fastest seen there, over many runs).
REFERENCE_S = 0.25e-3


class _Elt:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v
        self.p = p

    def __mul__(self, other):
        return _Elt(self.v * other.v % self.p, self.p)

    def __add__(self, other):
        return _Elt((self.v + other.v) % self.p, self.p)


_TABLE = {(i, j): (i * j + 1) % 97 for i in range(40) for j in range(40)}


def reference():
    """About half a millisecond of fixed pure-Python work."""
    acc = _Elt(1, 101)
    terms = {}
    for i in range(1, 200):
        e = _Elt(i, 101)
        acc = acc * e + e
        key = (i % 40, (i * 7) % 40)
        terms[key] = terms.get(key, 0) + _TABLE[key]
    f = Fraction(1, 3)
    for i in range(1, 20):
        f = f * Fraction(i + 1, i) - Fraction(1, i + 2)
    return acc.v, sorted(terms.items()), f


class Probe:
    """The seconds that sampling took while one instance ran."""

    def __init__(self):
        self.spent = 0.0


class HostSpeed:
    """Reference-loop samples of one run, each stamped with its time."""

    def __init__(self):
        for _ in range(WARMUP):
            reference()
        self.stamps = []     # perf_counter() at the end of each sample
        self.samples = []    # the loop's wall time, seconds

    def sample(self):
        """Time the reference loop once; its wall time in seconds."""
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.samples.append(t1 - t0)
        return t1 - t0

    @contextlib.contextmanager
    def watching(self):
        """Sample every ``TICK`` seconds while the block runs; yields
        the Probe that adds up the time this takes."""
        probe = Probe()

        def tick(signum, frame):
            t0 = time.perf_counter()
            self.sample()
            probe.spent += time.perf_counter() - t0

        old = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
        try:
            yield probe
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def ref(self, start, end):
        """Median reference time sampled from ``WINDOW`` before
        ``start`` to ``WINDOW`` after ``end``."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW)
        hi = bisect.bisect_right(self.stamps, end + WINDOW)
        return statistics.median(self.samples[lo:hi])

    def corrected(self, seconds, start, end):
        """``seconds`` of work done between ``start`` and ``end``, scaled
        to a host that runs the loop in ``REFERENCE_S``."""
        return seconds * REFERENCE_S / self.ref(start, end)
