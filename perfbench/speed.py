"""Machine-speed sampling for the timed units.

On a shared virtual machine the processor's speed for one process swings
by up to a factor of two within seconds, with no steal time recorded, as
neighbours load the host.  A unit's wall time then says as much about the
host as about the code.  ``Sampler`` measures that speed while a unit
runs: every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs one
fixed *burst* of work (``burst``) and times it.  The burst does not touch
the library, so no change to the library can change what it costs at a
given speed.

The unit's relative speed is ``mean(REF_BURST_S / burst time)`` over its
bursts, equally spaced in wall time: the time average of the speed
(``REF_BURST_S`` is the burst on an uncontended 2-vCPU Intel Xeon virtual
machine).  The library's code slows less with the host than the burst
does: over 189 units of the four workloads, at speeds from 0.41 to 1.11,
log wall time fell with log speed at slopes from 0.83 (``spectrum``) to
0.90 (``hypothesis``).  So ``reference_seconds`` scales a unit's time by
``speed ** ELASTICITY``.  The bursts' own time is taken out of the unit's
wall and CPU time first.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_BURST_S = 5.0e-4
ELASTICITY = 0.85
_BURST_STEPS = 200
_M = np.array([[0.0, 1.0], [-1.0, 0.0]])


def burst() -> float:
    """A fixed mix of scalar Python float arithmetic and small numpy
    operations, the two kinds of work of the library's integrators."""
    y0, y1, x, h = 1.0, 0.0, 0.0, 1e-3
    v = np.array([1.0, 0.0])
    for _ in range(_BURST_STEPS):
        k0 = y1
        k1 = -(1.0 + x) * y0
        m0 = y1 + 0.5 * h * k1
        m1 = -(1.0 + x + 0.5 * h) * (y0 + 0.5 * h * k0)
        y0 += h * m0
        y1 += h * m1
        x += h
        v = v + h * (_M @ v)
    return y0 + float(v[0])


def timed_burst() -> float:
    """Wall seconds of one burst."""
    t0 = time.perf_counter()
    burst()
    return time.perf_counter() - t0


def relative_speed(walls) -> float:
    """Time-averaged speed over bursts equally spaced in time; 1 is the
    reference speed, 0.5 half of it."""
    return statistics.fmean(REF_BURST_S / w for w in walls)


def reference_seconds(seconds: float, speed: float) -> float:
    """Seconds measured at relative ``speed``, as at the reference speed."""
    return seconds * speed ** ELASTICITY


class Sampler:
    """Times one burst every ``INTERVAL_S`` seconds while it is entered;
    ``spent_wall`` and ``spent_cpu`` are what the bursts cost in all."""

    def __init__(self):
        self.walls: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a burst that outlasts the interval is not nested
            return
        self._busy = True
        try:
            c0 = time.process_time()
            wall = timed_burst()
            self.spent_cpu += time.process_time() - c0
            self.spent_wall += wall
            self.walls.append(wall)
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self) -> float:
        """Relative speed over the sampled stretch; a stretch shorter than
        one interval is timed with one burst now."""
        return relative_speed(self.walls or [timed_burst()])
