"""Scalar Green kernels: free space, frequency domain, grounded slab.

All field evaluators reduce to quadratures of one scalar two-point
function; the kernels here are those functions.  Conventions:

* free space        f(X, Y) = 1 / (4 pi |x - y|)
* frequency domain  f(X, Y; omega) = exp(-i omega |x-y| / c) / (4 pi |x-y|)
* time domain       the delay |x - y| / c, solved for the emission time
                    in fields.retarded
* grounded slab     eigenfunction series reduced to the working form

      G(X, Y) = (1/(pi L)) sum_n sin(n pi z / L) sin(n pi z' / L)
                                K0(n pi rho / L),    rho = |(x,y)-(x',y')|

  which vanishes on z = 0 and z = L and tends to the free kernel minus
  its first image when L >> |x - y|.

Coincident evaluations are refused below a relative floor rather than
returning garbage; see coincident_floor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import _core
from .errors import CoincidentPointsError, ConvergenceError, OutOfDomainError
from .geometry import Point3

bessel_k0 = _core.bessel_k0


def coincident_floor(x: Point3, y: Point3) -> float:
    return norm_floor(x.norm(), y.norm())


def norm_floor(norm_x: float, norm_y: float) -> float:
    """coincident_floor of two points, from their norms |x| and |y|."""
    return 1e-12 * (1.0 + norm_x + norm_y)


def coincident(x: Point3, y: Point3) -> CoincidentPointsError:
    """The refusal of two points closer than the floor."""
    return CoincidentPointsError(
        "field and source points coincide within the floor: %r, %r" % (x, y))


def separation(x: Point3, y: Point3) -> float:
    """|x - y|, raising CoincidentPointsError below the floor."""
    d = (x - y).norm()
    if d < coincident_floor(x, y):
        raise coincident(x, y)
    return d


def free_kernel(x: Point3, y: Point3) -> float:
    """Free-space static kernel 1/(4 pi |x - y|); symmetric and harmonic."""
    return 1.0 / (4.0 * math.pi * separation(x, y))


def helmholtz_kernel(x: Point3, y: Point3, omega: float, c: float) -> complex:
    """Frequency-domain kernel exp(-i omega |x-y|/c) / (4 pi |x-y|).

    Reduces to the static kernel at omega = 0; the magnitude is always
    the static kernel and the phase winds once per wavelength.
    """
    d = separation(x, y)
    if c <= 0.0:
        raise ValueError("signal speed must be positive")
    return cmath.exp(-1j * omega * d / c) / (4.0 * math.pi * d)


@dataclass(frozen=True)
class PlateGreen:
    """Grounded parallel-plate (slab 0 < z < L) Dirichlet kernel.

    tol is the absolute truncation tolerance on the series value;
    n_max caps the number of terms (ConvergenceError beyond).
    """

    L: float
    tol: float = 1e-12
    n_max: int = 100000

    def __post_init__(self):
        if self.L <= 0.0:
            raise ValueError("slab height L must be positive")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


def plate_green(x: Point3, y: Point3, cfg: PlateGreen) -> float:
    """Evaluate the slab kernel at a pair of points.

    Both z-coordinates must lie in [0, L] (values on the plates are
    exactly zero).  The transverse separation rho must be positive: the
    series diverges termwise as rho -> 0, so coincident transverse
    positions raise ConvergenceError (z different) or
    CoincidentPointsError (points equal within floor).
    """
    L = cfg.L
    for z in (x.z, y.z):
        if z < 0.0 or z > L:
            raise OutOfDomainError(
                "z = %r outside the slab [0, %r]" % (z, L)
            )
    separation(x, y)  # raises on coincident points
    rho = math.hypot(x.x - y.x, x.y - y.y)
    if rho < coincident_floor(x, y):
        raise ConvergenceError(
            "slab kernel series does not converge termwise at zero "
            "transverse separation (rho = %r)" % (rho,)
        )
    value, tail, n_terms, ok = _core.plate_green_sum(
        rho, x.z, y.z, L, cfg.tol, cfg.n_max
    )
    if not ok:
        raise ConvergenceError(
            "slab kernel series hit n_max = %d before tolerance %g "
            "(rho/L = %g)" % (cfg.n_max, cfg.tol, rho / L)
        )
    return value

