"""Points and vectors in Euclidean R^3.

Deliberately tiny: immutable triples with the handful of operations the
rest of the package needs.  Cylindrical accessors (r, phi) are provided
because every axisymmetric evaluator works in those coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_INF = math.inf


def norm3(x: float, y: float, z: float) -> float:
    """sqrt(x^2 + y^2 + z^2), the sum of squares formed left to right.

    Where that sum overflows, math.hypot gives the finite norm instead,
    so no finite result moves a bit."""
    s = x * x + y * y + z * z
    return math.sqrt(s) if s != _INF else math.hypot(x, y, z)


@dataclass(frozen=True, slots=True)
class Vec3:
    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec3":
        return Vec3(self.x / s, self.y / s, self.z / s)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm(self) -> float:
        return norm3(self.x, self.y, self.z)

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return self / n

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True, slots=True)
class Point3:
    x: float
    y: float
    z: float

    @property
    def r(self) -> float:
        """Cylindrical radius sqrt(x^2 + y^2)."""
        return math.hypot(self.x, self.y)

    @property
    def phi(self) -> float:
        """Cylindrical azimuth in (-pi, pi]."""
        return math.atan2(self.y, self.x)

    def __add__(self, v: Vec3) -> "Point3":
        return Point3(self.x + v.x, self.y + v.y, self.z + v.z)

    def __sub__(self, other: "Point3") -> Vec3:
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def shifted(self, axis: int, h: float) -> "Point3":
        """Copy with coordinate `axis` (0, 1 or 2) moved by h."""
        c = [self.x, self.y, self.z]
        c[axis] += h
        return Point3(c[0], c[1], c[2])

    def norm(self) -> float:
        return norm3(self.x, self.y, self.z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


ORIGIN = Point3(0.0, 0.0, 0.0)

EX = Vec3(1.0, 0.0, 0.0)
EY = Vec3(0.0, 1.0, 0.0)
EZ = Vec3(0.0, 0.0, 1.0)


def cyl_to_cart(a_r: float, a_phi: float, a_z: float, phi: float) -> Vec3:
    """Vector with physical cylindrical components (a_r, a_phi, a_z) at azimuth phi."""
    c, s = math.cos(phi), math.sin(phi)
    return Vec3(a_r * c - a_phi * s, a_r * s + a_phi * c, a_z)


def cylinder_band_distance(a: float, z_lo: float, z_hi: float,
                           y: Point3) -> float:
    """Distance from y to the band r = a, z_lo <= z <= z_hi of the
    cylinder about the z axis."""
    r, z = y.r, y.z
    if z_lo <= z <= z_hi:
        return abs(r - a)
    dz = z - z_hi if z > z_hi else z_lo - z
    return math.hypot(r - a, dz)

