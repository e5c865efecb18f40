"""Machine-speed calibration for the benchmark's timings.

Shared hosts change speed by up to 2x for minutes at a time; CPU time
tracks wall time through those swings, so they are not scheduling delays
and longer runs do not average them out.  The benchmark therefore runs a
fixed calibration next to every timed call and divides the call's wall time
by the calibration's slowdown against its reference time, giving the time
the call would take at the reference speed.
"""
from __future__ import annotations

import json
import random
import time

import numpy as np

# Import calibration for `setup_s`: a fresh interpreter importing the
# package's dependencies (no package code), which slows down with the host
# the way the package's own import does; and its time, in seconds, on the
# machine the baseline numbers were recorded on.
IMPORT_CALIBRATION = "import numpy, scipy.special"
IMPORT_CALIBRATION_REF_S = 0.45

# Seconds the calibration mix takes on the machine the baseline numbers
# were recorded on (2-core x86-64 VM, CPython 3.11, numpy 2.4) when it runs
# at its usual speed.  It only sets the scale of the scaled figures.
CALIBRATION_REF_S = 0.012


def calibration_seconds() -> float:
    """Time a fixed mix of the work kinds the package does, in this process.

    Shuffling and sorting a table, Python-level random draws with numpy
    scalar indexing, small complex-vector updates and JSON encoding: the
    mix slows down with the machine the way the workloads do, and it runs
    no package code, so a change to the package cannot move it.
    """
    started = time.perf_counter()
    rng = random.Random(12345)
    values = list(range(4096))
    rng.shuffle(values)
    order = np.argsort(np.asarray(values, dtype=np.int64), kind="stable")
    counts: dict[int, int] = {}
    acc = 0
    for _ in range(6000):
        j = rng.randrange(4096)
        acc += int(order[j]) if rng.random() < 0.5 else j
        counts[j & 255] = counts.get(j & 255, 0) + 1
    amplitudes = np.full(1024, 1 / 32, dtype=np.complex128)
    for _ in range(60):
        amplitudes = amplitudes.copy()
        amplitudes[:10] *= -1
        amplitudes = 2 * amplitudes.mean() - amplitudes
    json.dumps({str(k): v for k, v in counts.items()})
    return time.perf_counter() - started


class Speedometer:
    """Times calls in this process, with the calibration mix run between them.

    `timed(fn)` returns (result, wall seconds, slowdown): the slowdown is the
    mean of the calibration times just before and just after the call, over
    CALIBRATION_REF_S.
    """

    def __init__(self):
        self.last = calibration_seconds()

    def timed(self, fn):
        before = self.last
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        self.last = calibration_seconds()
        return result, wall, (before + self.last) / (2.0 * CALIBRATION_REF_S)
