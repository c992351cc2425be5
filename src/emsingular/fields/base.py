"""Shared result container."""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field

from ..geometry import Point3, Vec3


@dataclass(slots=True)
class PotentialResult:
    """Potentials at one field point.

    a is the vector potential (tesla meter), phi the scalar potential
    (volts); either may be zero for purely magnetic or purely electric
    sources.  error bounds the error of every component of a and of
    phi (quadrature or rounding), and converged says whether the
    quadrature met its tolerance; every evaluator sets both.  error is
    NaN where the bound costs more than the potentials and is formed
    apart (a point charge's: retarded.rounding_bound).  b is the
    magnetic field (tesla) where the evaluator forms it with the
    potentials, else None.  diagnostics holds what not every kind has:
    `evaluations` (integrand nodes), `b_error` (tesla, bounding b) and,
    for a polyline, `distance` (meters, from the point to the wire).

    Every field after a is keyword-only, so no call depends on their
    order.  One is built per source at every stencil point of a row, so
    the class is slotted and not frozen: a frozen dataclass sets each
    field through object.__setattr__, which costs more than some
    evaluators.
    """

    point: Point3
    a: Vec3
    _: KW_ONLY
    phi: float = 0.0
    error: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)
    b: Vec3 | None = None

    def a_cyl(self) -> tuple[float, float, float]:
        """(a_r, a_phi, a_z) components about the z axis."""
        c, s = math.cos(self.point.phi), math.sin(self.point.phi)
        return (self.a.x * c + self.a.y * s,
                -self.a.x * s + self.a.y * c,
                self.a.z)
