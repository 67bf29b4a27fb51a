"""Host-speed calibration: job and set-up times in reference seconds.

The benchmark's host is a few cores of a shared machine, and its speed
drifts: the same fixed work takes up to 1.6 times longer in some stretches
than in others, and a stretch lasts from seconds to minutes. A run therefore
times a fixed piece of the benchmark's own work (`calibrate`) before and
after every job call and every set-up, and scales the wall time of what lay
between by how long that work took next to it:

    reference seconds = wall seconds * REFERENCE_S / mean(calibration before, after)

The calibration work uses Python and numpy only, never the program, so a
change to the program moves the scaled time exactly as it moves the wall
time. The work mixes the two kinds of computing the workloads do: a loop
over slotted objects with attribute reads and float arithmetic, like the
simulator's per-vehicle loop, and the batch forward and backward products of
a 40-64-64-8 network, like the Q-network's training step.
"""

from __future__ import annotations

import random
import statistics
import time

import numpy as np

# One calibration on the reference host in an average stretch; a time in
# reference seconds is the time the work would take on that host then.
REFERENCE_S = 0.16

PY_ROUNDS = 180
NP_ROUNDS = 100


class _Particle:
    __slots__ = ("position", "speed", "gap")

    def __init__(self, rng: random.Random):
        self.position = rng.random()
        self.speed = rng.random()
        self.gap = 0.0


_RNG = random.Random(7)
_PARTICLES = [_Particle(_RNG) for _ in range(2000)]
_NP = np.random.default_rng(7)
_X = _NP.normal(size=(512, 40))
_W1 = _NP.normal(size=(40, 64)) / 8.0
_W2 = _NP.normal(size=(64, 64)) / 8.0
_W3 = _NP.normal(size=(64, 8)) / 8.0


def _python_work() -> float:
    total = 0.0
    for _ in range(PY_ROUNDS):
        for p in _PARTICLES:
            if p.position > 0.5:
                p.gap = p.gap * 0.9 + p.position * p.speed
            else:
                p.gap = min(p.gap + p.speed, 1.0)
            total += p.gap
    return total


def _numpy_work() -> float:
    total = 0.0
    for _ in range(NP_ROUNDS):
        h1 = np.maximum(_X @ _W1, 0.0)
        h2 = np.maximum(h1 @ _W2, 0.0)
        q = h2 @ _W3
        g2 = (q @ _W3.T) * (h2 > 0)
        g1 = (g2 @ _W2.T) * (h1 > 0)
        total += float((h1.T @ g2).sum() + (_X.T @ g1).sum())
    return total


def calibrate() -> float:
    """Wall seconds of the fixed calibration work, done once now."""
    t0 = time.perf_counter()
    _python_work()
    _numpy_work()
    return time.perf_counter() - t0


class HostSpeed:
    """Scales wall times to reference seconds by the calibrations around them."""

    def __init__(self):
        self.calibrations: list[float] = []
        self.restart()

    def restart(self) -> None:
        """Calibrate now; the next `scaled` time starts from here."""
        self.calibrations.append(calibrate())

    def scaled(self, wall_s: float) -> float:
        """`wall_s` of work done since the last calibration, in reference
        seconds. Calibrates again, so the next timed work starts from here."""
        before = self.calibrations[-1]
        self.restart()
        return wall_s * REFERENCE_S / statistics.fmean((before, self.calibrations[-1]))
