"""Static magnetic vector potentials, their B fields, and H.

Specialized evaluators (loop, helix, solenoid sheet) reduce the layer
integral to one-dimensional quadratures in the source chart and run
them through the numerical core (`_core`).  Each returns b with a: d
acts on the kernel, so b = # d a is the layer integral of the
differentiated kernel, the Biot-Savart integral of t x (y - x) / R^3,
which the core integrates on the potential's own nodes.  The generic
curve evaluator sums a polyline in closed form, one logarithm per
straight segment for a and one Biot-Savart term for b, since a
segment's Leray weight and direction are constant.  Any other
CurveSource takes the adaptive chart quadrature for a alone: slower,
but it shares no code with the specialized evaluators, so tests use it
as a cross-check.  derive_b, the curl of a by the exterior3 stencil,
stays as the independent route.

All results are exterior to the source; evaluation on or numerically
against the support raises OnSupportError.  The source geometry decides
that proximity guard: the exact distance for a loop, a solenoid sheet
and a polyline, whose segments' distances come from the same geometry
pass that sums its closed form; for a helix the distance to the band of
the cylinder that carries it, with a sampled scan of the wire only when
the point is that close to the band.  Other curves are scanned.
"""

from __future__ import annotations

import math
from typing import Callable

from .. import exterior3, kernels
from .._core import helix_integrals, loop_phi_integral, solenoid_integrals
from ..errors import InvalidGeometryError, OnSupportError
from ..geometry import Point3, Vec3, cyl_to_cart, cylinder_band_distance
from ..quad import QuadConfig, integrate_adaptive
from ..sources import CurveSource
from .base import PotentialResult
from .medium import VACUUM, MediumConstants

FOUR_PI = 4.0 * math.pi
EPS = 2.0 ** -52
# rounding bound of the polyline closed form per segment, in units of
# EPS; see _polyline_potential
SEGMENT_ERROR_C = 16.0


def _support_floor(scale: float) -> float:
    return 1e-8 * max(scale, 1.0)


def loop_potential(radius: float, current: float, y: Point3,
                   cfg: QuadConfig | None = None, center_z: float = 0.0,
                   medium: MediumConstants = VACUUM,
                   want_b: bool = True) -> PotentialResult:
    """Vector potential and field of a circular loop about the z axis.

    By symmetry only a_phi, b_r and b_z survive:

        a_phi(r, z) = (mu I radius / 4 pi)
                      * int_0^{2pi} cos(psi) dpsi / dist(psi)
        b_r(r, z)   = (mu I radius / 4 pi)
                      * int_0^{2pi} z cos(psi) dpsi / dist(psi)^3
        b_z(r, z)   = (mu I radius / 4 pi)
                      * int_0^{2pi} (radius - r cos psi) dpsi / dist(psi)^3

    with dist the chord from the field point to the loop point at
    azimuth offset psi, z taken from the loop's plane.  Without want_b
    only a_phi is integrated, and b is None.
    """
    if radius <= 0.0:
        raise InvalidGeometryError("loop radius must be positive")
    cfg = cfg or QuadConfig()
    a = radius
    r, z = y.r, y.z - center_z
    d = math.hypot(r - a, z)
    if d < _support_floor(a):
        raise OnSupportError("field point lies on the loop (distance %g)" % d)
    val, j_r, j_z, err, b_err, evals, ok = loop_phi_integral(
        r, z, a, cfg.abs_tol, cfg.rel_tol, cfg.max_subdivisions, want_b)
    pref = medium.mu * current * a / FOUR_PI
    vec = cyl_to_cart(0.0, pref * val, 0.0, y.phi)
    b = cyl_to_cart(pref * j_r, 0.0, pref * j_z, y.phi) if want_b else None
    return _chart_result(y, vec, b, pref, err, b_err, evals, ok)


def _chart_result(y: Point3, vec: Vec3, b: Vec3 | None, pref: float,
                  err: float, b_err: float | None, evals: int,
                  ok: int) -> PotentialResult:
    """The result of a chart quadrature, its errors scaled by |pref|;
    b_error only with b."""
    diagnostics = {"evaluations": evals}
    if b is not None:
        diagnostics["b_error"] = abs(pref) * b_err
    return PotentialResult(y, vec, error=abs(pref) * err, converged=bool(ok),
                           diagnostics=diagnostics, b=b)


def helix_potential(radius: float, pitch: float, length: float,
                    current: float, y: Point3,
                    cfg: QuadConfig | None = None, sigma0: float = 0.0,
                    medium: MediumConstants = VACUUM,
                    want_b: bool = True) -> PotentialResult:
    """Vector potential and field of a unit-speed helical wire.

    The wire is (radius cos(P s), radius sin(P s), pitch s) for s in
    [sigma0, sigma0 + length], P = sqrt(1 - pitch^2)/radius.  In the
    field point's cylindrical frame:

        a_r   = -(mu I radius P / 4 pi) * int sin(P s - phi) / R ds
        a_phi = +(mu I radius P / 4 pi) * int cos(P s - phi) / R ds
        a_z   = +(mu I pitch / 4 pi)    * int ds / R
        b     = +(mu I / 4 pi)          * int t x (y - x) / R^3 ds

    with R the chordal distance from the field point y to the wire
    point x and t the unit tangent; helix_integrals gives the
    components of b.  Without want_b they are not integrated, and b is
    None.
    """
    if not (0.0 < pitch < 1.0):
        raise InvalidGeometryError("pitch fraction must lie in (0, 1)")
    if radius <= 0.0 or length <= 0.0:
        raise InvalidGeometryError("radius and length must be positive")
    cfg = cfg or QuadConfig()
    a, p = radius, pitch
    big_p = math.sqrt(1.0 - p * p) / a
    floor = _support_floor(a)
    _refuse_on_support(helix_distance(a, p, length, sigma0, y, floor), floor)
    i_sin, i_cos, i_one, j_r, j_phi, j_z, err, b_err, evals, ok = \
        helix_integrals(y.r, y.phi, y.z, a, p, big_p, sigma0,
                        sigma0 + length, cfg.abs_tol, cfg.rel_tol,
                        cfg.max_subdivisions, want_b)
    pref = medium.mu * current / FOUR_PI
    a_r = -pref * a * big_p * i_sin
    a_phi = pref * a * big_p * i_cos
    a_z = pref * p * i_one
    vec = cyl_to_cart(a_r, a_phi, a_z, y.phi)
    b = (cyl_to_cart(pref * j_r, pref * j_phi, pref * j_z, y.phi)
         if want_b else None)
    return _chart_result(y, vec, b, pref, err, b_err, evals, ok)


def solenoid_potential(radius: float, pitch: float, length: float,
                       kappa0: float, y: Point3,
                       cfg: QuadConfig | None = None,
                       medium: MediumConstants = VACUUM,
                       want_b: bool = True) -> PotentialResult:
    """Vector potential and field of the helical current sheet on a
    finite cylinder.

    The axial chart integrals have closed forms, leaving a single
    azimuthal quadrature.  a_r and b's odd parts vanish identically by
    the odd symmetry of sin(u) du.

        a_phi = (mu kappa0 radius^2 P / 4 pi) * int_0^{2pi} F(u) cos u du
        a_z   = (mu kappa0 radius pitch / 4 pi) * int_0^{2pi} F(u) du
        b_r   = (mu kappa0 radius^2 P / 4 pi) * int_0^{2pi} H(u) cos u du
        b_phi = (mu kappa0 radius pitch / 4 pi)
                * int_0^{2pi} (r - radius cos u) G(u) du
        b_z   = (mu kappa0 radius^2 P / 4 pi)
                * int_0^{2pi} (radius - r cos u) G(u) du

    where F(u) = asinh(z / sqrt(c1)) - asinh((z - length) / sqrt(c1)),
    c1 = r^2 + radius^2 - 2 r radius cos u, and G and H are the axial
    integrals of 1/R^3 and (z - z')/R^3 (see solenoid_integrals).
    Without want_b only a is integrated, and b is None.
    """
    if not (0.0 <= pitch < 1.0):
        raise InvalidGeometryError("pitch fraction must lie in [0, 1)")
    if radius <= 0.0 or length <= 0.0:
        raise InvalidGeometryError("radius and length must be positive")
    cfg = cfg or QuadConfig()
    a, p = radius, pitch
    big_p = math.sqrt(1.0 - p * p) / a
    r, z = y.r, y.z
    d = cylinder_band_distance(a, 0.0, length, y)
    if d < _support_floor(a):
        raise OnSupportError("field point lies on the sheet (distance %g)" % d)
    i_cos, i_one, j_r, j_phi, j_z, err, b_err, evals, ok = \
        solenoid_integrals(r, z, a, length, cfg.abs_tol, cfg.rel_tol,
                           cfg.max_subdivisions, want_b)
    pref = medium.mu * kappa0 * a / FOUR_PI
    a_phi = pref * a * big_p * i_cos
    a_z = pref * p * i_one
    vec = cyl_to_cart(0.0, a_phi, a_z, y.phi)
    b = (cyl_to_cart(pref * a * big_p * j_r, pref * p * j_phi,
                     pref * a * big_p * j_z, y.phi) if want_b else None)
    return _chart_result(y, vec, b, pref, err, b_err, evals, ok)


def curve_potential(src: CurveSource, y: Point3,
                    cfg: QuadConfig | None = None,
                    medium: MediumConstants = VACUUM,
                    want_b: bool = False) -> PotentialResult:
    """Vector potential of a generic CurveSource.

    Integrates mu * i0 * kernel(y, x(s)) * W(s) * omega_f(d/ds) over the
    chart.  A polyline takes the closed form of each straight segment
    (_polyline_potential), which also gives its exact distance to y;
    with want_b it also sums each segment's Biot-Savart field.  Any
    other curve takes the adaptive chart quadrature for a alone (b is
    None), and its distance is scanned (min_distance_to_curve).
    """
    cfg = cfg or QuadConfig()
    if src.kind == "polyline":
        chain = src.params["vertices"]
        return _polyline_potential(chain, src.i0, y,
                                   _curve_floor(chain[0], chain[-1]),
                                   medium, want_b)
    s0, s1 = src.chart
    _refuse_on_support(min_distance_to_curve(src.point, s0, s1, y),
                       _curve_floor(src.point(s0), src.point(s1)))
    comps = [0.0, 0.0, 0.0]
    err = 0.0
    evals = 0
    ok = True
    for ax in range(3):
        def integrand(s: float, ax: int = ax) -> float:
            f = kernels.free_kernel(y, src.point(s))
            w = src.w_field(s).as_tuple()[ax]
            return f * w * src.chart_weight(s)

        res = integrate_adaptive(integrand, s0, s1, cfg)
        comps[ax] = res.value
        err += res.error_estimate
        evals += res.evaluations
        ok = ok and res.converged
    pref = medium.mu * src.i0
    vec = pref * Vec3(*comps)
    return PotentialResult(y, vec, error=abs(pref) * err, converged=ok,
                           diagnostics={"evaluations": evals})


def _curve_floor(start: Point3, end: Point3) -> float:
    """The support floor of a curve, scaled by its end points."""
    return _support_floor(max(abs(v) for pt in (start, end)
                              for v in pt.as_tuple()))


def _polyline_potential(chain: tuple[Point3, ...], i0: float, y: Point3,
                        floor: float, medium: MediumConstants,
                        want_b: bool) -> PotentialResult:
    """(mu i0 / 4 pi) * sum_k v_k u_k over the straight segments of the
    vertex chain, with v_k = int ds / |y - x(s)| along segment k and u_k
    its direction; with want_b also the Biot-Savart field
    b = (mu i0 / 4 pi) * sum_k int u_k x (y - x(s)) / |y - x(s)|^3 ds.

    Each segment's geometry comes once from _segment_geometry, and a
    point nearer to the segment than `floor` is refused before anything
    divides by d.  The least d, the distance from y to the polyline, is
    diagnostics["distance"], which the field map's derivative guard
    reads.  With L, l0, l1, R0, R1, d and c as there:

    v = asinh(-l1 / d) + asinh(l0 / d) between the ends.  Beyond p0
    (l0 <= 0) v = ln((R1 - l1) / (R0 - l0)), beyond p1 (l1 >= 0)
    v = ln((R0 + l0) / (R1 + l1)): each branch adds like-signed terms.

    u x (y - x(s)) = c for every s, and int ds / R^3 = K.  Between the
    ends K = (l0 / R0 - l1 / R1) / |c|^2, a sum of like signs.  Beyond
    them l0 and l1 share a sign, and K = L (l0 + l1) / (R0 R1 (l0 R1 +
    l1 R0)), which adds like signs and does not divide by d: on the
    line's extension c is 0, and so is the field.

    Rounding: each R_i and projection is within a few ulps of R_i, so
    a log ratio is off by at most ~15 u (u = EPS / 2) plus the
    logarithm's own ulp; that includes the ulp of a ratio near 1 far
    along the extension, an absolute error.  Between the ends, d comes
    from the nearer end by a cross product, within ~5 u * min(R0, R1),
    and the asinh pair multiplies that by at most 2 / d: the problem
    itself is that ill-conditioned near a segment.  kappa = min(R0,
    R1) / d there (0 beyond the ends), so |dv| <= EPS * (8 + |v| +
    5 kappa), and forming pref * sum v_k u_k adds ~4 EPS |v_k|.  error
    bounds the rounding of every component of a:
    |mu i0 / 4 pi| * SEGMENT_ERROR_C * EPS * sum_k (1 + |v_k| + kappa_k).
    """
    xs, ys, zs = [], [], []
    bxs, bys, bzs = [], [], []
    size = 0.0
    nearest = math.inf
    for p0, p1 in zip(chain[:-1], chain[1:]):
        (d, length, ux, uy, uz, r0, r1, l0, l1,
         cx, cy, cz) = _segment_geometry(y, p0, p1)
        _refuse_on_support(d, floor)
        if d < nearest:
            nearest = d
        if l0 <= 0.0 or l1 >= 0.0:
            if l0 <= 0.0:
                v = math.log((r1 - l1) / (r0 - l0))
            else:
                v = math.log((r0 + l0) / (r1 + l1))
            kappa = 0.0
            if want_b:
                k = length * (l0 + l1) / (r0 * r1 * (l0 * r1 + l1 * r0))
        else:
            v = math.asinh(-l1 / d) + math.asinh(l0 / d)
            kappa = min(r0, r1) / d
            if want_b:
                k = (l0 / r0 - l1 / r1) / (cx * cx + cy * cy + cz * cz)
        xs.append(v * ux)
        ys.append(v * uy)
        zs.append(v * uz)
        size += 1.0 + abs(v) + kappa
        if want_b:
            bxs.append(cx * k)
            bys.append(cy * k)
            bzs.append(cz * k)
    pref = medium.mu * i0 / FOUR_PI
    vec = Vec3(pref * math.fsum(xs), pref * math.fsum(ys),
               pref * math.fsum(zs))
    b = None
    if want_b:
        b = Vec3(pref * math.fsum(bxs), pref * math.fsum(bys),
                 pref * math.fsum(bzs))
    return PotentialResult(y, vec,
                           error=abs(pref) * SEGMENT_ERROR_C * EPS * size,
                           converged=True,
                           diagnostics={"evaluations": 0,
                                        "distance": nearest}, b=b)


def _segment_geometry(y: Point3, p0: Point3, p1: Point3) -> tuple:
    """(d, L, ux, uy, uz, R0, R1, l0, l1, cx, cy, cz) for y and the
    straight segment from p0 to p1, formed once for the guard, the
    potential and the field.

    u is the unit direction and L the length; R0 = |y - p0|,
    R1 = |y - p1|; l0 = (y - p0) . u and l1 = (y - p1) . u, each
    projected from its own end; c = u x (y - p) with p the nearer end.
    d is the distance from y to the segment: R0 beyond p0 (l0 <= 0),
    R1 beyond p1 (l1 >= 0), and between the ends |c|, the distance
    from the line.  No logarithm is formed here.
    """
    dx, dy, dz = p1.x - p0.x, p1.y - p0.y, p1.z - p0.z
    length = math.hypot(dx, dy, dz)
    ux, uy, uz = dx / length, dy / length, dz / length
    ax, ay, az = y.x - p0.x, y.y - p0.y, y.z - p0.z
    bx, by, bz = y.x - p1.x, y.y - p1.y, y.z - p1.z
    r0 = math.hypot(ax, ay, az)
    r1 = math.hypot(bx, by, bz)
    l0 = ax * ux + ay * uy + az * uz
    l1 = bx * ux + by * uy + bz * uz
    if r1 < r0:
        ax, ay, az = bx, by, bz
    cx, cy, cz = uy * az - uz * ay, uz * ax - ux * az, ux * ay - uy * ax
    if l0 <= 0.0:
        d = r0
    elif l1 >= 0.0:
        d = r1
    else:
        d = math.hypot(cx, cy, cz)
    return d, length, ux, uy, uz, r0, r1, l0, l1, cx, cy, cz


# ---------------------------------------------------------------------------
# derived fields


def derive_b(a_field: Callable[[Point3], Vec3],
             h: float | None = None) -> Callable[[Point3], Vec3]:
    """B evaluator from a vector-potential evaluator.

    The potential is read as a 1-form and B as the Hodge dual of its
    exterior derivative, so the sign conventions live in one place
    (the exterior calculus tables) rather than in a hand-written curl.
    """
    form = exterior3.FormField.one_form(
        lambda p, t: a_field(p).x,
        lambda p, t: a_field(p).y,
        lambda p, t: a_field(p).z,
    )

    def b_at(point: Point3) -> Vec3:
        two = exterior3.d_numeric(form, point, 0.0, h)
        dual = exterior3.hodge_numeric(two)
        return Vec3(dual[(0,)], dual[(1,)], dual[(2,)])

    return b_at


def magnetic_h(b_field: Callable[[Point3], Vec3],
               medium: MediumConstants = VACUUM) -> Callable[[Point3], Vec3]:
    """H = B / mu for a linear medium."""
    return lambda p: b_field(p) / medium.mu


# ---------------------------------------------------------------------------
# circuits and the circulation check


class Circuit:
    """Closed oriented curve for circulation integrals.

    point(t) for t in chart = (t0, t1), tangent(t) its derivative.
    links counts signed crossings of the source through any spanning
    surface; it is bookkeeping supplied by the caller, not computed.
    """

    def __init__(self, point: Callable[[float], Point3],
                 tangent: Callable[[float], Vec3],
                 chart: tuple[float, float], links: int = 0):
        self.point = point
        self.tangent = tangent
        self.chart = chart
        self.links = links


def circle_circuit(center: Point3, normal: Vec3, radius: float,
                   links: int = 0) -> Circuit:
    """Circle of given radius about `center` in the plane normal to
    `normal`, oriented by the right-hand rule around the normal."""
    n = normal.normalized()
    # any unit vector orthogonal to n
    trial = Vec3(1.0, 0.0, 0.0) if abs(n.x) < 0.9 else Vec3(0.0, 1.0, 0.0)
    u = (trial - n.dot(trial) * n).normalized()
    v = n.cross(u)

    def point(t: float) -> Point3:
        w = radius * (math.cos(t) * u + math.sin(t) * v)
        return Point3(center.x + w.x, center.y + w.y, center.z + w.z)

    def tangent(t: float) -> Vec3:
        return radius * (-math.sin(t) * u + math.cos(t) * v)

    return Circuit(point, tangent, (0.0, 2.0 * math.pi), links)


def circulation(circuit: Circuit, h_field: Callable[[Point3], Vec3],
                cfg: QuadConfig | None = None) -> float:
    """Line integral of H along the circuit (amps)."""
    cfg = cfg or QuadConfig(abs_tol=1e-10, rel_tol=1e-8)

    def integrand(t: float) -> float:
        return h_field(circuit.point(t)).dot(circuit.tangent(t))

    return integrate_adaptive(integrand, *circuit.chart, cfg).value


def ampere_residual(circuit: Circuit, h_field: Callable[[Point3], Vec3],
                    current: float,
                    cfg: QuadConfig | None = None) -> tuple[float, float]:
    """(circulation, circulation - links * current) for the circuit."""
    circ = circulation(circuit, h_field, cfg)
    return circ, circ - circuit.links * current


# ---------------------------------------------------------------------------


def min_distance_to_curve(point_of: Callable[[float], Point3],
                          s0: float, s1: float, y: Point3,
                          samples: int = 512) -> float:
    """Approximate min |y - curve| by coarse sampling plus a ternary
    refinement around the best sample.  Adequate as a proximity guard
    (the quadrature itself degrades loudly well before the kernel
    singularity is actually reached)."""
    if s1 <= s0:
        raise InvalidGeometryError("empty chart (%g, %g)" % (s0, s1))
    ds = (s1 - s0) / samples
    best_k, best_d2 = 0, float("inf")
    for k in range(samples + 1):
        p = point_of(s0 + k * ds)
        d2 = (y - p).dot(y - p)
        if d2 < best_d2:
            best_k, best_d2 = k, d2
    lo = max(s0, s0 + (best_k - 1) * ds)
    hi = min(s1, s0 + (best_k + 1) * ds)
    for _ in range(40):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        p1, p2 = point_of(m1), point_of(m2)
        if (y - p1).dot(y - p1) < (y - p2).dot(y - p2):
            hi = m2
        else:
            lo = m1
    p = point_of(0.5 * (lo + hi))
    return min((y - p).norm(), math.sqrt(best_d2))


def helix_distance(radius: float, pitch: float, length: float,
                   sigma0: float, y: Point3, within: float) -> float:
    """Distance from y to the helical wire of helix_potential, where it
    is below `within`; elsewhere a lower bound on it of at least `within`.

    The wire lies on the band r = radius, pitch * sigma0 <= z <=
    pitch * (sigma0 + length), so the band distance bounds the wire
    distance from below.  The sampled scan runs only when the band is
    nearer than `within`, plus 16 ulps of the helix's scale: the scan's
    points lie within rounding of the band, so it could not have found
    the wire nearer than `within` either.
    """
    a, p = radius, pitch
    z_lo, z_hi = p * sigma0, p * (sigma0 + length)
    band = cylinder_band_distance(a, z_lo, z_hi, y)
    if band >= within + 16.0 * math.ulp(max(a, abs(z_lo), abs(z_hi))):
        return band
    big_p = math.sqrt(1.0 - p * p) / a
    return min_distance_to_curve(
        lambda s: Point3(a * math.cos(big_p * s), a * math.sin(big_p * s),
                         p * s),
        sigma0, sigma0 + length, y)


def _refuse_on_support(d: float, floor: float) -> None:
    if d < floor:
        raise OnSupportError(
            "field point lies on the source curve (distance %g)" % d)
