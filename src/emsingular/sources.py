"""Singular source descriptions: curves, sheets, points, dipoles.

A source is its geometry (a chart), a transverse foliation whose Leray
measure weights the delta layer, a direction field W for the flow, and
one scalar density.  The physical line current is the contraction

    current(s) = I0 * (i_W omega_f)(s)        [amps]

and the sheet current density the vector

    K(s, r) = kappa0 * weight(s, r) * W(s, r)  [amps / m]

with crossing density K . (u x n) across a unit tangent u.

Orientation policy: Leray weights are computed against the standard
volume dx^dy^dz (see SIGN_CONVENTIONS.md); constructors then solve for
I0 so that positive nominal current flows toward increasing chart
parameter.  Physics is therefore independent of the orientation bookkeeping.

Foliations must be orthogonal frames; non-orthogonal gradient sets raise
DegenerateFoliationError (out of scope by design).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import DegenerateFoliationError, InvalidGeometryError
from .geometry import EZ, Point3, Vec3

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class LerayData:
    """Leray measure at one point of a leaf.

    weight is 1 / prod |grad f_j|; orientation is the unit tangent of
    the leaf curve (codimension 2) or the unit normal of the leaf
    surface (codimension 1), signed so each gradient points toward
    increasing f_j.
    """

    weight: float
    orientation: Vec3
    codim: int


def leray_weight_orthogonal(gradients: list[Vec3]) -> LerayData:
    """Leray weight and orientation from orthogonal foliation gradients.

    For k constraints in R^3 the Leray form on the leaf is
    star(df_1 ^ ... ^ df_k) / prod |df_j|^2; for an orthogonal frame this
    is weight * (dual of the orientation vector), weight = 1/prod |df_j|.
    Supports k = 1 (surface leaf) and k = 2 (curve leaf).
    """
    k = len(gradients)
    if k not in (1, 2):
        raise ValueError("need 1 or 2 foliation gradients, got %d" % k)
    norms = [g.norm() for g in gradients]
    for g, n in zip(gradients, norms):
        if n == 0.0 or not math.isfinite(n):
            raise DegenerateFoliationError("zero or non-finite gradient %r" % (g,))
    if k == 1:
        return LerayData(1.0 / norms[0], gradients[0] / norms[0], 1)
    n1 = gradients[0] / norms[0]
    n2 = gradients[1] / norms[1]
    if abs(n1.dot(n2)) > ORTHO_TOL:
        raise DegenerateFoliationError(
            "foliation gradients not orthogonal (cos = %g); only "
            "orthogonal foliations are supported" % n1.dot(n2)
        )
    return LerayData(1.0 / (norms[0] * norms[1]), n1.cross(n2), 2)


# ---------------------------------------------------------------------------
# curve sources


@dataclass(frozen=True)
class CurveSource:
    """Current-carrying curve.

    point/tangent parametrize the chart; leray gives LerayData at s;
    w_field is the direction field W (tangent to the curve); i0 the
    density in the layer representation.  kind/params describe the
    constructor for consumers that specialize (the CLI, evaluators).
    """

    point: Callable[[float], Point3]
    tangent: Callable[[float], Vec3]
    leray: Callable[[float], LerayData]
    w_field: Callable[[float], Vec3]
    i0: float
    chart: tuple[float, float]
    closed: bool
    kind: str = "curve"
    params: dict = field(default_factory=dict)

    def contraction(self, s: float) -> float:
        """(i_W omega_f)(s): the Leray 1-form applied to W."""
        ld = self.leray(s)
        return ld.weight * ld.orientation.dot(self.w_field(s))

    def chart_weight(self, s: float) -> float:
        """omega_f applied to the chart tangent d/ds."""
        ld = self.leray(s)
        return ld.weight * ld.orientation.dot(self.tangent(s))


def line_current(src: CurveSource, s: float) -> float:
    """Physical current (amps) through the curve at chart parameter s."""
    return src.i0 * src.contraction(s)


def circular_loop(radius: float, current: float,
                  center_z: float = 0.0) -> CurveSource:
    """Horizontal circle r = radius in the plane z = center_z.

    Chart is the azimuth phi in [0, 2pi); foliation (r - radius,
    z - center_z); W = (1/r^2) d/dphi.  I0 solves the current-positivity
    convention (current flows toward increasing phi).
    """
    if radius <= 0.0:
        raise InvalidGeometryError("loop radius must be positive")
    a = radius

    def point(s: float) -> Point3:
        return Point3(a * math.cos(s), a * math.sin(s), center_z)

    def tangent(s: float) -> Vec3:
        return Vec3(-a * math.sin(s), a * math.cos(s), 0.0)

    def leray(s: float) -> LerayData:
        # gradients of (r - a, z - center_z) on the curve
        return leray_weight_orthogonal(
            [Vec3(math.cos(s), math.sin(s), 0.0), EZ]
        )

    def w_field(s: float) -> Vec3:
        return Vec3(-math.sin(s) / a, math.cos(s) / a, 0.0)

    src = CurveSource(point, tangent, leray, w_field, 0.0, (0.0, 2 * math.pi),
                      True, "loop",
                      {"radius": a, "current": current, "center_z": center_z})
    return _calibrate(src, current)


def helix_curve(radius: float, pitch: float, length: float, current: float,
                sigma0: float = 0.0) -> CurveSource:
    """Helix of arc length `length` starting at chart parameter sigma0.

    pitch is the axial fraction p in (0, 1): the curve is
    (a cos(P s), a sin(P s), p s) with P = sqrt(1 - p^2)/a, unit speed.
    Foliation (r - a, z - (p/P) phi); W is the unit tangent.
    """
    _check_pitch(pitch, allow_zero=False)
    if radius <= 0.0 or length <= 0.0:
        raise InvalidGeometryError("radius and length must be positive")
    a, p = radius, pitch
    P = math.sqrt(1.0 - p * p) / a

    def point(s: float) -> Point3:
        return Point3(a * math.cos(P * s), a * math.sin(P * s), p * s)

    def tangent(s: float) -> Vec3:
        return Vec3(-a * P * math.sin(P * s), a * P * math.cos(P * s), p)

    def leray(s: float) -> LerayData:
        u = P * s
        rhat = Vec3(math.cos(u), math.sin(u), 0.0)
        phihat = Vec3(-math.sin(u), math.cos(u), 0.0)
        # grad(z - (p/P) phi) = ez - (p/(P a)) phihat on the curve
        g2 = EZ - (p / (P * a)) * phihat
        return leray_weight_orthogonal([rhat, g2])

    def w_field(s: float) -> Vec3:
        # unit tangent: p ez + (a P) phihat
        u = P * s
        return Vec3(-a * P * math.sin(u), a * P * math.cos(u), p)

    src = CurveSource(point, tangent, leray, w_field, 0.0,
                      (sigma0, sigma0 + length), False, "helix",
                      {"radius": a, "pitch": p, "length": length,
                       "current": current, "sigma0": sigma0})
    return _calibrate(src, current)


def polyline(points: list[Point3], current: float,
             closed: bool = False) -> CurveSource:
    """Piecewise-linear wire through the given vertices.

    Chart parameter s in [0, n_segments); s = k + u walks segment k.
    The Leray data is given directly (unit tangent, weight 1) since a
    polyline has no global foliation; contraction is 1 so I0 = current.
    params["vertices"] is the vertex chain, closed by its first vertex
    when `closed`.
    """
    pts = list(points)
    if closed:
        pts = pts + [pts[0]]
    if len(pts) < 2:
        raise InvalidGeometryError("polyline needs at least two points")
    nseg = len(pts) - 1
    segs = []
    for p0, p1 in zip(pts[:-1], pts[1:]):
        d = p1 - p0
        if d.norm() == 0.0:
            raise InvalidGeometryError("zero-length polyline segment")
        segs.append((p0, d))

    def _seg(s: float) -> tuple[int, float]:
        k = min(int(s), nseg - 1)
        return k, s - k

    def point(s: float) -> Point3:
        k, u = _seg(s)
        p0, d = segs[k]
        return p0 + u * d

    def tangent(s: float) -> Vec3:
        k, _ = _seg(s)
        return segs[k][1]

    def leray(s: float) -> LerayData:
        k, _ = _seg(s)
        return LerayData(1.0, segs[k][1].normalized(), 2)

    def w_field(s: float) -> Vec3:
        k, _ = _seg(s)
        return segs[k][1].normalized()

    return CurveSource(point, tangent, leray, w_field, current,
                       (0.0, float(nseg)), closed, "polyline",
                       {"current": current, "n_segments": nseg,
                        "vertices": tuple(pts)})


def _calibrate(src: CurveSource, current: float) -> CurveSource:
    """Solve I0 so line_current(s) equals `current` flowing toward
    increasing chart parameter.  The contraction i_W omega_f already
    carries every orientation sign, so i0 = current / contraction."""
    s_mid = 0.5 * (src.chart[0] + src.chart[1])
    c = src.contraction(s_mid)
    if c == 0.0:
        raise DegenerateFoliationError("W annihilates the Leray form")
    i0 = current / c
    return CurveSource(src.point, src.tangent, src.leray, src.w_field, i0,
                       src.chart, src.closed, src.kind, src.params)


# ---------------------------------------------------------------------------
# surface sources


@dataclass(frozen=True)
class SurfaceSource:
    """Current sheet with chart (s, r) on a rectangle."""

    point: Callable[[float, float], Point3]
    tangent_s: Callable[[float, float], Vec3]
    tangent_r: Callable[[float, float], Vec3]
    leray: Callable[[float, float], LerayData]
    w_field: Callable[[float, float], Vec3]
    kappa0: float
    chart: tuple[tuple[float, float], tuple[float, float]]
    kind: str = "sheet"
    params: dict = field(default_factory=dict)


def surface_current(src: SurfaceSource, s: float, r: float) -> Vec3:
    """Sheet current density vector K (amps per meter) at chart (s, r).

    K = kappa0 * weight * W; the current crossing a unit-length curve
    with unit tangent u on the sheet is K . (u x n), n the leaf normal
    (see crossing_density).
    """
    ld = src.leray(s, r)
    return src.kappa0 * ld.weight * src.w_field(s, r)


def crossing_density(src: SurfaceSource, s: float, r: float,
                     u: Vec3) -> float:
    """Current per unit length crossing direction u on the sheet (amps/m)."""
    ld = src.leray(s, r)
    k = surface_current(src, s, r)
    return k.dot(u.cross(ld.orientation))


def solenoid_sheet(radius: float, pitch: float, length: float,
                   kappa0: float) -> SurfaceSource:
    """Cylinder r = radius, 0 <= z <= length, wound at axial fraction p.

    Chart (s, r) = (azimuth, axial coordinate); foliation r - radius;
    W = p d/dz + P d/dphi (unit tangent of the winding),
    P = sqrt(1 - p^2)/radius.  pitch = 0 is the purely azimuthal sheet.
    """
    _check_pitch(pitch, allow_zero=True)
    if radius <= 0.0 or length <= 0.0:
        raise InvalidGeometryError("radius and length must be positive")
    a, p = radius, pitch
    P = math.sqrt(1.0 - p * p) / a

    def point(s: float, r: float) -> Point3:
        return Point3(a * math.cos(s), a * math.sin(s), r)

    def tangent_s(s: float, r: float) -> Vec3:
        return Vec3(-a * math.sin(s), a * math.cos(s), 0.0)

    def tangent_r(s: float, r: float) -> Vec3:
        return EZ

    def leray(s: float, r: float) -> LerayData:
        return leray_weight_orthogonal([Vec3(math.cos(s), math.sin(s), 0.0)])

    def w_field(s: float, r: float) -> Vec3:
        return Vec3(-a * P * math.sin(s), a * P * math.cos(s), p)

    return SurfaceSource(point, tangent_s, tangent_r, leray, w_field, kappa0,
                         ((0.0, 2 * math.pi), (0.0, length)), "solenoid",
                         {"radius": a, "pitch": p, "length": length,
                          "kappa0": kappa0})


# ---------------------------------------------------------------------------
# point sources


@dataclass(frozen=True)
class PointSource:
    """Point charge q on the straight trajectory x(t) = x0 + t v."""

    q: float
    x0: Point3
    v: Vec3

    def position(self, t: float) -> Point3:
        return self.x0 + t * self.v

    def velocity(self, t: float) -> Vec3:
        return self.v


def static_point_charge(q: float, at: Point3) -> PointSource:
    return PointSource(q, at, Vec3(0.0, 0.0, 0.0))


def uniform_point_charge(q: float, x0: Point3, v: Vec3) -> PointSource:
    """Charge moving with constant velocity: x(t) = x0 + v t."""
    return PointSource(q, x0, v)


@dataclass(frozen=True)
class DipoleSource:
    """Ideal point dipole: location and moment vector (C m)."""

    location: Point3
    moment: Vec3


def _check_pitch(p: float, allow_zero: bool) -> None:
    lo_ok = (p >= 0.0) if allow_zero else (p > 0.0)
    if not (lo_ok and p < 1.0):
        raise InvalidGeometryError(
            "pitch fraction must lie in %s, got %r"
            % ("[0, 1)" if allow_zero else "(0, 1)", p)
        )
