"""Machine-speed calibration: a fixed pure-Python kernel timed between charts.

The sandboxes this benchmark runs in change speed by 20 % or more over
tens of seconds, because of load outside the container.  Timing a fixed
kernel next to the workload measures that speed, and every end-to-end time
is rescaled to a machine on which the kernel takes ``NOMINAL_S``:
``scaled = measured * NOMINAL_S / kernel time``.  The kernel is ordinary
dict, tuple and complex arithmetic, like the program's jets, and it does
not import the program, so an optimisation of the program leaves it
unchanged.
"""

from __future__ import annotations

import statistics
from operator import add
from time import perf_counter

#: kernel time of the reference machine the reported times are scaled to,
#: about the kernel's best time on a quiet 2-core sandbox
NOMINAL_S = 0.005

_KEYS = [(a, b, c, d) for a in range(4) for b in range(4) for c in range(3) for d in range(2)]
_LEFT = {k: complex(i, 1) for i, k in enumerate(_KEYS)}


def kernel() -> dict:
    """A sparse polynomial product of 96 by 96 terms."""
    out: dict = {}
    for ka, va in _LEFT.items():
        for kb, vb in _LEFT.items():
            key = tuple(map(add, ka, kb))
            out[key] = out.get(key, 0j) + va * vb
    return out


def sample(repeats: int = 3) -> float:
    """Median kernel time in seconds over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
