"""Static electric potentials: dipoles and the guided line charge
between grounded plates.  Point charges, static or moving, are
fields.retarded's.

The line charge's image series is summed in closed form, one logarithm
for every field point.  Both evaluators return a rounding-level error
bound on phi as the result's error and, when asked, their electric
field -grad phi in closed form from the same quantities.  Their a is 0,
so their Lorenz-gauge terms are 0 and they form none."""

from __future__ import annotations

import math

from .. import kernels
from ..errors import InvalidGeometryError, OnSupportError, OutOfDomainError
from ..geometry import Point3, Vec3, norm3
# the benchmark's tracer (perfbench/tracer.py) patches this name here
from ..quad import sum_series  # noqa: F401
from ..sources import DipoleSource
from .base import PotentialResult
from .medium import VACUUM, MediumConstants

EPS = 2.0 ** -52


def dipole_potential(dip: DipoleSource, y: Point3,
                     medium: MediumConstants = VACUUM,
                     want_e: bool = False) -> PotentialResult:
    """Ideal dipole: phi = m . (y - x0) / (4 pi eps |y - x0|^3), and,
    when want_e is set, its field as res.e (else None):

        e = (3 (m . u) u - m) / (4 pi eps d^3),   u = (y - x0) / d.

    Written out in floats, one separation for the free kernel's
    coincidence floor and for the value; its norm d is
    res.diagnostics["distance"] (meters).

    Rounding (u = EPS / 2, libm within 2u): s = y - x0 is within u of
    y - x0 in each component.  m . s, three products and two sums, is
    then within 4u of the exact m . (y - x0) times A = sum_i |m_i s_i|,
    not |m . s|, which cancels near the equatorial plane.  d = |s| is
    within 2.5u of itself from the sum of squares and the root, and u
    more from s, so d^3 is within 12.5u of |y - x0|^3, pow included;
    4 pi (pi rounds by 0.36u), the two products and the quotient add
    3.4u:

        |dphi| <= EPS * (2.5 A + 8.5 |m . s|) / (4 pi eps d^3),

    first order, with the slack of the rounded-up coefficients covering
    the rest.  Where d^3 overflows, phi is 0, and the error is at most
    |phi| <= |m|_1 / (4 pi eps d^2), which is doubled to cover its own
    roundings.  The bound holds wherever no product underflows.
    """
    at, m = dip.location, dip.moment
    sx, sy, sz = y.x - at.x, y.y - at.y, y.z - at.z
    d = norm3(sx, sy, sz)
    if d < kernels.norm_floor(y.norm(), at.norm()):
        raise kernels.coincident(y, at)
    try:
        d3 = d ** 3
    except OverflowError:       # d above ~5.6e102 m
        d3 = math.inf
    px, py, pz = m.x * sx, m.y * sy, m.z * sz
    num = px + py + pz
    den = 4.0 * math.pi * medium.eps * d3
    if d3 < math.inf:
        size = abs(px) + abs(py) + abs(pz)
        err = EPS * (2.5 * size + 8.5 * abs(num)) / den
    else:
        err = (2.0 * (abs(m.x) + abs(m.y) + abs(m.z))
               / (4.0 * math.pi * medium.eps * d) / d)
    e = None
    if want_e:
        ux, uy, uz = sx / d, sy / d, sz / d
        mu3 = 3.0 * (num / d)
        e = Vec3((mu3 * ux - m.x) / den, (mu3 * uy - m.y) / den,
                 (mu3 * uz - m.z) / den)
    return PotentialResult(y, Vec3(0.0, 0.0, 0.0), phi=num / den, error=err,
                           converged=True, diagnostics={"distance": d}, e=e)


def plate_wire_potential(z0: float, lam: float, plate_gap: float, y: Point3,
                         medium: MediumConstants = VACUUM,
                         want_e: bool = False) -> PotentialResult:
    """Line charge between grounded plates z = 0 and z = plate_gap = L.

    The wire runs parallel to the y axis through (x = 0, z = z0), with
    charge lam per unit length.  Its image series, separated in the
    plate coordinate,

        phi = (lam / pi eps) * sum_n (1/n) sin(n b) sin(n c) q^n,

    b = k z, c = k z0, k = pi / L, q = exp(-k |x|), sums to (1/4) ln(N / D),
    N = 1 - 2q cos(b + c) + q^2 and D = 1 - 2q cos(b - c) + q^2; on the
    wire plane (q = 1) that is Abel's sum.  With N - D = 4 q sin b sin c,

        phi = (lam / 4 pi eps) * log1p(4 q sin b sin c / D),
        D   = (1 - q)^2 + 4 q sin^2(k (z - z0) / 2),

    one form for every x, continuous across x = 0.  Nothing cancels: D
    adds two nonnegative terms, 1 - q is -expm1(-k |x|), and z - z0 and
    the distance min(z, L - z) to the nearer plate (exact by Sterbenz;
    its sine is sin b, likewise sin c) are formed before they are
    scaled.  On the plates phi is exactly 0.

    Rounding (u = EPS / 2, libm within 2u): t = k |x| is formed within
    3u, so q is within (3t + 2)u and 1 - q within 5u, since
    t e^-t / (1 - e^-t) <= 1.  Each sine argument is within 4u and lies
    in [-pi/2, pi/2], where the sine's condition theta cot theta is at
    most 1, so each sine is within 6u.  That puts N - D within
    (3t + 16)u and D within (3t + 17)u, their ratio r >= 0 within
    (6t + 34)u, and log1p(r) within (6t + 36)u of itself, because
    r / (1 + r) <= log1p(r).  The prefactor and the last product add 4u:
    |dphi| <= EPS * (20 + 3t) * |phi|.  No term grows near the wire or
    near a plate, since both differences are formed before scaling;
    the bound holds wherever q and the sines stay above underflow.

    When want_e is set, res.e is -grad phi, differentiated through
    r = A / D, A = 4 q sin b sin c, so that d phi = (lam / 4 pi eps)
    (D dA - A dD) / (D (A + D)), with A + D = N.  Across the plates

        d phi / dx = -(lam / 4 pi eps) k sgn(x) A (1 - q)(1 + q) / (D N),

    a product of nonnegative terms, 0 at x = 0.  Along them, with
    D dA - A dD reduced by sin(b - theta) = -sin(k (z + z0) / 2),
    theta = k (z - z0) / 2,

        d phi / dz = (lam / 4 pi eps) k 4 q sin c
                     ((1 - q)^2 cos b - 4 q sin theta sin(k (z + z0) / 2))
                     / (D N).

    On the wire plane the first term is 0, so nothing cancels there; near
    the wire the second dominates, and at a plate A = 0 and the bracket
    is D.  cos b is formed as sin(k (L/2 - z)) and z + z0 above L as
    (L - z) + (L - z0), so each sine has an argument accurate to its own
    size.  On the plates phi is 0 and e is normal to them.
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
    on_plate = z == 0.0 or z == L
    dz = z - z0
    # the floor of y and (0, 0, z0), whose norm sqrt(z0 * z0) is |z0|
    if (not on_plate
            and math.hypot(y.x, dz) < kernels.norm_floor(y.norm(), abs(z0))):
        raise OnSupportError("field point lies on the wire")
    k = math.pi / L
    t = k * abs(y.x)
    q = math.exp(-t)
    m = -math.expm1(-t)
    h = math.sin(0.5 * k * dz)
    sin_c = math.sin(k * min(z0, L - z0))
    num = 4.0 * q * math.sin(k * min(z, L - z)) * sin_c
    den = m * m + 4.0 * q * h * h
    pref = lam / (4.0 * math.pi * medium.eps)
    phi = err = 0.0
    if not on_plate:
        phi = pref * math.log1p(num / den)
        # phi = 0 is exact also where t overflows to inf
        err = EPS * (20.0 + 3.0 * t) * abs(phi) if phi else 0.0
    e = None
    if want_e:
        zs = z + z0 if z + z0 <= L else (L - z) + (L - z0)
        g = pref * k / (den * (num + den))
        bracket = 4.0 * q * sin_c * (math.sin(k * (0.5 * L - z)) * m * m
                                     - 4.0 * q * h * math.sin(0.5 * k * zs))
        e = Vec3(math.copysign(num * m * (1.0 + q), y.x) * g, 0.0,
                 -bracket * g)
    return PotentialResult(y, Vec3(0.0, 0.0, 0.0), phi=phi, error=err,
                           converged=True, e=e)
