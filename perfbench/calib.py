"""Reference-speed scaling of measured times.

Op times on a shared machine swing by up to a factor of two and a half, in
phases that last from a fraction of a second to tens of seconds and shift
between runs minutes apart; a plain wall-clock figure of one run says as much
about the neighbours as about the program.  So every time the benchmark
reports is scaled to a reference speed.  ``probe`` is a fixed pure-Python
loop (exact fractions, tuple keys, small lists: the same kinds of work as
the solver).  ``Sampler`` times it a few times before and after a timed
stretch (one op, or a child's set-up) and, from a ``SIGALRM`` handler, every
``TICK_S`` during it; the stretch's own time (less the handler's) is
multiplied by ``PROBE_REF_S`` over the median probe time.  A phase that slows the program slows the probe about as much,
so the scaled time holds still while the wall-clock time swings.  Nothing of
``ifgames`` runs in the probe, so a change to the program moves the scaled
figures as much as it moves the true ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Fastest time of ``probe()`` on a 2-vCPU x86-64 virtual machine with
# CPython 3.11: with it, scaled figures read as seconds on that machine at
# full speed.
PROBE_REF_S = 50e-6
TICK_S = 0.004
BRACKET = 3  # probes just before and just after a timed call


def probe() -> Fraction:
    total, table = Fraction(0), {}
    for i in range(1, 25):
        total += Fraction(1, i % 13 + 1)
        table[(i, str(i))] = [i] * 3
    return total


def probe_s() -> float:
    """Time of one ``probe()``."""
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def scaled(seconds: float, probe_seconds: float) -> float:
    """``seconds`` at the reference speed, at a median probe time of ``probe_seconds``."""
    return seconds * PROBE_REF_S / probe_seconds


class Sampler:
    """Probe times around and, unless ``ticks`` is false, during a timed
    stretch, and the time the probes inside it took, which is not the
    stretch's own.  Traced calls are sampled only around them, so that no
    probe falls inside a span.  Used as a context manager, or started early
    with ``start`` (entering a started sampler does not restart it)."""

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.samples: list[float] = []
        self.in_handler = 0.0
        self._running = False

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe_s())
        self.in_handler += time.perf_counter() - start

    def start(self) -> Sampler:
        self.samples = [probe_s() for _ in range(BRACKET)]
        self.in_handler = 0.0
        self._running = True
        if self.ticks:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(probe_s() for _ in range(BRACKET))

    def __enter__(self) -> Sampler:
        return self if self._running else self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def own_s(self, elapsed: float) -> float:
        """The stretch's own time out of ``elapsed``, which covers it."""
        return elapsed - self.in_handler

    def scaled(self, elapsed: float) -> float:
        return scaled(self.own_s(elapsed), statistics.median(self.samples))
