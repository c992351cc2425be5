"""Static electric potentials: point charges, dipoles, and the guided
line charge between grounded plates."""

from __future__ import annotations

import math
from typing import Callable

from .. import exterior3, kernels
from ..errors import InvalidGeometryError, OnSupportError, OutOfDomainError
from ..geometry import Point3, Vec3
from ..quad import QuadConfig, sum_series
from ..sources import DipoleSource
from .base import PotentialResult
from .medium import VACUUM, MediumConstants


def point_charge_potential(q: float, at: Point3, y: Point3,
                           medium: MediumConstants = VACUUM) -> PotentialResult:
    """Coulomb potential q / (4 pi eps d)."""
    phi = (q / medium.eps) * kernels.free_kernel(y, at)
    return PotentialResult(y, Vec3(0.0, 0.0, 0.0), phi)


def dipole_potential(dip: DipoleSource, y: Point3,
                     medium: MediumConstants = VACUUM) -> PotentialResult:
    """Ideal dipole: phi = m . (y - x0) / (4 pi eps |y - x0|^3)."""
    sep = y - dip.location
    d = sep.norm()
    kernels.free_kernel(y, dip.location)  # shared coincidence guard
    phi = dip.moment.dot(sep) / (4.0 * math.pi * medium.eps * d ** 3)
    return PotentialResult(y, Vec3(0.0, 0.0, 0.0), phi)


def plate_wire_potential(z0: float, lam: float, plate_gap: float, y: Point3,
                         cfg: QuadConfig | None = None,
                         medium: MediumConstants = VACUUM) -> PotentialResult:
    """Line charge between grounded plates z = 0 and z = plate_gap.

    The wire runs parallel to the y axis through (x = 0, z = z0), with
    charge lam per unit length.  Separating in the plate coordinate:

        phi = (lam / pi eps) * sum_n (1/n) sin(n pi z0 / L)
              * sin(n pi z / L) * exp(-n pi |x| / L)

    Series evaluation, stopping on a run of negligible terms; the run
    length is 4 because sin(n pi z / L) can vanish for three
    consecutive n but not four.  On the wire plane x = 0 the series is
    summed in the Abel sense, which has the closed form

        (lam / 4 pi eps) * ln of sin^2((b+c)/2) / sin^2((b-c)/2),

    b = pi z / L, c = pi z0 / L.
    """
    L = plate_gap
    if L <= 0.0:
        raise InvalidGeometryError("plate gap must be positive")
    if not (0.0 < z0 < L):
        raise InvalidGeometryError("wire height z0 must lie strictly "
                                   "between the plates")
    z = y.z
    if not (0.0 <= z <= L):
        raise OutOfDomainError(
            "z = %g outside the plate gap [0, %g]" % (z, L))
    cfg = cfg or QuadConfig()
    x = abs(y.x)
    b = math.pi * z / L
    c = math.pi * z0 / L

    if z == 0.0 or z == L:
        return PotentialResult(y, Vec3(0.0, 0.0, 0.0), 0.0,
                               {"terms": 0, "converged": True})

    pref = lam / (math.pi * medium.eps)
    if x == 0.0:
        if abs(z - z0) < kernels.coincident_floor(y, Point3(0.0, 0.0, z0)):
            raise OnSupportError("field point lies on the wire")
        num = abs(math.sin(0.5 * (b + c)))
        den = abs(math.sin(0.5 * (b - c)))
        phi = pref * 0.5 * math.log(num / den)
        return PotentialResult(y, Vec3(0.0, 0.0, 0.0), phi,
                               {"terms": 0, "converged": True,
                                "closed_form": True})

    q = math.exp(-math.pi * x / L)

    def term(n: int) -> float:
        return (q ** n / n) * math.sin(n * c) * math.sin(n * b)

    res = sum_series(term, cfg, consecutive=4)
    phi = pref * res.value
    # The last terms understate a slow tail (q near 1): each term is at
    # most q^n / n, so the terms after the N-th sum to at most
    # q^(N+1) / ((N+1)(1-q)).
    n = res.evaluations + 1
    tail = q ** n / (n * -math.expm1(-math.pi * x / L))
    return PotentialResult(y, Vec3(0.0, 0.0, 0.0), phi, {
        "terms": res.evaluations,
        "series_error": abs(pref) * max(res.error_estimate, tail),
        "converged": res.converged,
    })


def plate_wire_closed(z0: float, lam: float, plate_gap: float, y: Point3,
                      medium: MediumConstants = VACUUM) -> float:
    """Closed logarithmic form of the plate wire potential (any x).

    Independent route used for cross-checks:
    sum q^n/n sin(nb) sin(nc) = (1/4) ln of
    (1 - 2q cos(b+c) + q^2) / (1 - 2q cos(b-c) + q^2).
    """
    L = plate_gap
    b = math.pi * y.z / L
    c = math.pi * z0 / L
    q = math.exp(-math.pi * abs(y.x) / L)
    num = 1.0 - 2.0 * q * math.cos(b + c) + q * q
    den = 1.0 - 2.0 * q * math.cos(b - c) + q * q
    if den == 0.0:
        raise OnSupportError("field point lies on the wire")
    return lam / (math.pi * medium.eps) * 0.25 * math.log(num / den)


def derive_e(phi: Callable[[Point3], float],
             h: float | None = None) -> Callable[[Point3], Vec3]:
    """Static E evaluator from a scalar-potential evaluator.

    E is minus the gradient, computed as the exterior derivative of the
    0-form read back as a vector."""
    form = exterior3.FormField.scalar(lambda p, t: phi(p))

    def e_at(point: Point3) -> Vec3:
        one = exterior3.d_numeric(form, point, 0.0, h)
        return Vec3(-one[(0,)], -one[(1,)], -one[(2,)])

    return e_at
