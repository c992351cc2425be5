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
    quadrature met its tolerance; every evaluator sets both.  b is the
    magnetic field (tesla) where the evaluator forms it with the
    potentials, else None.  e is the electric field (volt/meter) and
    gauge the Lorenz-gauge terms (d_x a_x, d_y a_y, d_z a_z,
    eps mu d_t phi), each where the evaluator forms it in closed form
    with the potentials, else None.  diagnostics holds what not every
    kind has: `evaluations` (integrand nodes), `b_error` (tesla,
    bounding b), `a_error` (a point charge's bound on each component of
    a, where error bounds phi) and, for a polyline, a point charge and
    a dipole, `distance` (meters, from the point to the source).

    Every field after a is keyword-only, so no call depends on their
    order.  One is built per source for every row, so the class is
    slotted and not frozen: a frozen dataclass sets each
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
    e: Vec3 | None = None
    gauge: tuple[float, float, float, float] | None = None

    def a_cyl(self) -> tuple[float, float, float]:
        """(a_r, a_phi, a_z) components about the z axis."""
        c, s = math.cos(self.point.phi), math.sin(self.point.phi)
        return (self.a.x * c + self.a.y * s,
                -self.a.x * s + self.a.y * c,
                self.a.z)
