"""Shared result container."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..geometry import Point3, Vec3


@dataclass(slots=True)
class PotentialResult:
    """Potentials at one field point.

    a is the vector potential (tesla meter), phi the scalar potential
    (volts); either may be zero for purely magnetic or purely electric
    sources.  diagnostics carries quadrature error estimates and
    evaluation counts keyed by integral name.  b is the magnetic field
    (tesla) where the evaluator forms it with the potentials, else None.

    One is built per source at every stencil point of a row, so the
    class is slotted and not frozen: a frozen dataclass sets each field
    through object.__setattr__, which costs more than some evaluators.
    """

    point: Point3
    a: Vec3
    phi: float = 0.0
    diagnostics: dict = field(default_factory=dict)
    b: Vec3 | None = None

    def a_cyl(self) -> tuple[float, float, float]:
        """(a_r, a_phi, a_z) components about the z axis."""
        c, s = math.cos(self.point.phi), math.sin(self.point.phi)
        return (self.a.x * c + self.a.y * s,
                -self.a.x * s + self.a.y * c,
                self.a.z)

