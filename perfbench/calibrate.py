"""Host-speed calibration of the benchmark's timings.

On a shared machine the effective speed of a core drifts by up to 1.7x
within a minute, in spells of a few to some tens of seconds, as other
tenants come and go; longer runs do not average that away. So the timed
loops take a probe every PROBE_EVERY_S: one run of a fixed kernel that does
the same kind of interpreter work as the library (dict-of-tuple polynomials
reduced over GF(p) and QQ by gate.remainder, never by gproj). A measured
time is scaled to the host speed at which the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / mean(probes from just before to
                                             just after the measurement)

A slower library still reads slower; a slower spell of the host does not.
On a 2-core shared Xeon host, the raw time of repeated benchmark ops over
2 s windows varied with a coefficient of variation of 0.20; scaled this way
it varied by 0.07.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import gate

PROBE_EVERY_S = 0.1
PROBE_REPEATS = 3
# the kernel's time at the reference host speed; the scale of every
# reported time, so changing it (or the kernel) re-bases all of them
REFERENCE_S = 0.5e-3


def _grevlex(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _kernel_inputs():
    rng = random.Random("perfbench-calibration")

    def poly(nterms, max_deg, coefficient):
        d = {}
        for _ in range(nterms):
            e = [0, 0, 0]
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(3)] += 1
            d[tuple(e)] = coefficient()
        return d

    def gf():
        return rng.randrange(1, 32003)

    def qq():
        return Fraction(rng.randint(1, 9), rng.randint(1, 5))

    return [(gate.Arith(type("GF", (), {"p": 32003})), [poly(4, 2, gf) for _ in range(3)],
             [poly(12, 5, gf) for _ in range(2)]),
            (gate.Arith(object()), [poly(4, 2, qq) for _ in range(3)], [poly(8, 4, qq)])]


_INPUTS = _kernel_inputs()


def kernel():
    for ar, basis, targets in _INPUTS:
        for f in targets:
            gate.remainder(f, basis, _grevlex, ar)


def probe() -> float:
    """Seconds of one kernel run: the least of a few, since interference
    only ever adds time."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Calibrator:
    """Probes along a timed block, and scaling of the times taken in it.

    Inside `running()` a probe is taken at entry, every PROBE_EVERY_S of
    CPU time (by SIGPROF, so also in the middle of a long call) and at exit.
    A call timed in the block is scaled by the mean of the probes from the
    last one before it to the first one after it; the time the probes took
    inside the call is subtracted first (see `span`)."""

    def __init__(self):
        self.ends: list[float] = []
        self.probes: list[float] = []
        self.inside = 0.0  # seconds spent probing so far
        self._probing = False

    def _probe(self, signum=None, frame=None) -> None:
        if self._probing:  # a signal that arrived during a probe
            return
        self._probing = True
        t0 = perf_counter()
        self.probes.append(probe())
        self.ends.append(perf_counter())
        self.inside += self.ends[-1] - t0
        self._probing = False

    @contextlib.contextmanager
    def running(self):
        self._probe()
        previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self._probe()

    def mark(self) -> tuple[float, float]:
        """Take before a timed call; pass to `span` after it."""
        return perf_counter(), self.inside

    def span(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, seconds less the probing) of the call since `mark`."""
        start, inside = mark
        end = perf_counter()
        return start, end, end - start - (self.inside - inside)

    def scale(self, span: tuple[float, float, float]) -> float:
        """A span's seconds at the reference host speed. Call it after the
        `running()` block that timed the span has ended."""
        start, end, seconds = span
        j0 = bisect.bisect_right(self.ends, start) - 1
        j1 = bisect.bisect_left(self.ends, end)
        if j0 < 0 or j1 >= len(self.ends):
            raise ValueError("no probe on both sides of the timed call")
        return seconds * REFERENCE_S / statistics.fmean(self.probes[j0:j1 + 1])

    def speed(self) -> float:
        """Host speed over the probes so far, as a multiple of the reference."""
        return REFERENCE_S / statistics.median(self.probes)
