"""Machine-speed probe: a fixed pure-Python workload, timed.

On a shared host the speed of a core changes from second to second and
from minute to minute with what other tenants run; on the machine the
reference figures come from, one 48-row `emsingular run` call took
between 1.0 s and 2.1 s within three minutes.  Every timing the
benchmark reports as an end-to-end metric is therefore taken between
two probes and scaled to a core on which the probe takes REFERENCE_S:

    reported = measured * REFERENCE_S / (mean of the two probe times)

The probe shares no code with the program, so a change to the program
moves the reported figures and a change in the machine's speed does
not.  The probe does the kind of work the program does: small objects,
attribute access, float arithmetic and function calls.
"""

from __future__ import annotations

import math
import time

# probe time on an uncontended core of the reference machine (2.1 GHz
# Xeon); a constant, so figures scale the same in every run
REFERENCE_S = 0.05


class _Vec:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        self.x, self.y, self.z = x, y, z

    def __sub__(self, other: "_Vec") -> "_Vec":
        return _Vec(self.x - other.x, self.y - other.y, self.z - other.z)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


def _work() -> float:
    acc = 0.0
    y = _Vec(0.3, 0.2, 0.1)
    for k in range(40000):
        p = _Vec(math.cos(k * 1e-3), math.sin(k * 1e-3), k * 1e-4)
        acc += 1.0 / (y - p).norm()
    return acc


def probe_seconds() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
