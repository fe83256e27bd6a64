"""Reference kernels that track how fast the host runs Python right now.

On a shared host the same command can run 30-50% slower for seconds to
minutes at a time with the program unchanged; on the 2-CPU x86-64 guest this
benchmark was written on, the median times of identical 30-second windows
ranged over 48%.  The benchmark therefore times a fixed kernel just before
and just after every timed region and scales the region's seconds by
``REF / mean(kernel before, kernel after)``: the time the region takes on a
host where the kernel takes ``REF``.  On that guest this cut the
interquartile spread across runs from 12-24% to 2-6% for ``wall_s`` and from
21% to 5% for the set-up time.  Unscaled times are printed and saved too.

The kernel mixes what the program spends its time on: small float tuples,
function calls and ``math.hypot`` (the geometry predicates), dict stores,
integer arithmetic in the interpreter loop, and numpy generator creation
with scalar draws (the samplers).  Set-up is timed in a fresh interpreter
before numpy is loaded, so it is scaled by the pure-Python part alone.  The
kernels never call scenlab, so a change to the program cannot move the
reference.  This module imports nothing heavy, so that a set-up probe can
load it first.
"""

from __future__ import annotations

import math
import random
import time

# Median kernel times on a 2-CPU x86-64 host.
REF_KERNEL_S = 0.010
REF_PYTHON_KERNEL_S = 0.008
REPEATS = 3  # a kernel time is the median of this many runs

_RANDOM = random.Random(20250117)
_POINTS = tuple((_RANDOM.random(), _RANDOM.random()) for _ in range(2400))


def _crosses(p, q, r) -> bool:
    d = (q[0] - p[0], q[1] - p[1])
    return math.hypot(*d) > abs(d[0] * r[1] - d[1] * r[0])


def _python_part() -> None:
    table = {}
    points = _POINTS
    for i in range(len(points) - 2):
        p, q, r = points[i], points[i + 1], points[i + 2]
        if _crosses(p, q, r):
            table[(round(p[0], 2), round(q[1], 2))] = (p, q)
    acc = 0
    for i in range(24000):
        acc += i * i % 7


def _numpy_part() -> None:
    import numpy as np
    for seed in range(16):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            rng.uniform(0.0, math.pi)


def _median_seconds(parts) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for part in parts:
            part()
        times.append(time.perf_counter() - start)
    return sorted(times)[REPEATS // 2]


def kernel_seconds() -> float:
    """Seconds the full reference kernel takes now."""
    return _median_seconds((_python_part, _numpy_part))


def python_kernel_seconds() -> float:
    """Seconds the pure-Python part of the kernel takes now."""
    return _median_seconds((_python_part,))


def scale(before: float, after: float, ref: float = REF_KERNEL_S) -> float:
    """Factor taking seconds timed between two kernel runs to the reference
    host speed."""
    return 2.0 * ref / (before + after)
