"""Magnetostatic evaluators against independent closed forms.

Frozen oracle: a_phi of the unit loop (a = 1, I = 1) at r = 1.7,
z = 0.6, computed with a 4e6-segment midpoint sum over the wire
(accurate to ~1e-12 relative, far tighter than the tolerances used).
"""

import math
import random
from decimal import Decimal, localcontext

import pytest

from emsingular import kernels
from emsingular._core._gl import N as GAUSS_N
from emsingular.errors import InvalidGeometryError, OnSupportError
from emsingular.fields import magneto
from emsingular.fields.medium import MU0, VACUUM, MediumConstants
from emsingular.geometry import EZ, Point3, Vec3
from emsingular.quad import QuadConfig, integrate_adaptive
from emsingular.sources import circular_loop, polyline

CFG = QuadConfig(abs_tol=1e-13, rel_tol=1e-10)

LOOP_APHI_ORACLE = 9.47066946677599e-08  # a=1, I=1, r=1.7, z=0.6


def loop_bz_axis(a, current, z):
    return MU0 * current * a * a / (2.0 * (a * a + z * z) ** 1.5)


def test_loop_off_axis_frozen_oracle():
    res = magneto.loop_potential(1.0, 1.0, Point3(1.7, 0.0, 0.6), CFG)
    assert res.converged
    assert res.a.y == pytest.approx(LOOP_APHI_ORACLE, rel=1e-9)
    # purely azimuthal: no radial or axial part
    assert res.a.x == pytest.approx(0.0, abs=1e-22)
    assert res.a.z == 0.0


def test_loop_potential_rotational_symmetry():
    # same (r, z), different azimuth: a_phi identical
    r1 = magneto.loop_potential(1.0, 1.0, Point3(1.7, 0.0, 0.6), CFG)
    ang = 2.1
    p2 = Point3(1.7 * math.cos(ang), 1.7 * math.sin(ang), 0.6)
    r2 = magneto.loop_potential(1.0, 1.0, p2, CFG)
    assert r1.a_cyl()[1] == pytest.approx(r2.a_cyl()[1], rel=1e-13)


def test_loop_center_z_shift():
    base = magneto.loop_potential(1.0, 1.0, Point3(1.3, 0.2, 0.4), CFG)
    lifted = magneto.loop_potential(1.0, 1.0, Point3(1.3, 0.2, 1.4), CFG,
                                    center_z=1.0)
    assert lifted.a.as_tuple() == pytest.approx(base.a.as_tuple(),
                                                rel=1e-13)


def test_loop_bz_on_axis_closed_form():
    b = magneto.derive_b(
        lambda p: magneto.loop_potential(1.0, 2.0, p, CFG).a)
    for z in (0.0, 0.5, 1.0, 2.0):
        got = b(Point3(0.0, 0.0, z))
        assert got.z == pytest.approx(loop_bz_axis(1.0, 2.0, z), rel=1e-6)
        assert abs(got.x) < 1e-9 * abs(got.z)
        assert abs(got.y) < 1e-9 * abs(got.z)


def test_loop_on_support_refused():
    with pytest.raises(OnSupportError):
        magneto.loop_potential(1.0, 1.0, Point3(1.0, 0.0, 0.0), CFG)
    with pytest.raises(InvalidGeometryError):
        magneto.loop_potential(-1.0, 1.0, Point3(2.0, 0.0, 0.0), CFG)


def test_loop_medium_scaling():
    doubled = MediumConstants.from_eps_mu(VACUUM.eps, 2.0 * VACUUM.mu)
    base = magneto.loop_potential(1.0, 1.0, Point3(1.7, 0.0, 0.6), CFG)
    big = magneto.loop_potential(1.0, 1.0, Point3(1.7, 0.0, 0.6), CFG,
                                 medium=doubled)
    assert big.a.y == pytest.approx(2.0 * base.a.y, rel=1e-14)


# ---------------------------------------------------------------------------
# helix


def test_helix_degenerates_to_loop_at_small_pitch():
    p = 1e-3
    big_p = math.sqrt(1.0 - p * p)
    length = 2.0 * math.pi / big_p  # one turn
    for pt in (Point3(1.9, 0.3, 0.0), Point3(0.4, -0.6, 0.0)):
        hx = magneto.helix_potential(1.0, p, length, 1.0, pt, CFG)
        lp = magneto.loop_potential(1.0, 1.0, pt, CFG)
        h_phi = hx.a_cyl()[1]
        l_phi = lp.a_cyl()[1]
        assert h_phi == pytest.approx(l_phi, rel=1e-3)


def test_helix_screw_invariance():
    # advancing the chart window by sigma and rotating/lifting the
    # field point by the same screw motion leaves the cylindrical
    # components unchanged
    a, p, length = 1.0, 0.25, 12.0
    big_p = math.sqrt(1.0 - p * p) / a
    sigma = 1.7
    y0 = Point3(1.6, 0.4, 2.0)
    base = magneto.helix_potential(a, p, length, 1.0, y0, CFG)

    ang = big_p * sigma
    c, s = math.cos(ang), math.sin(ang)
    y1 = Point3(c * y0.x - s * y0.y, s * y0.x + c * y0.y, y0.z + p * sigma)
    moved = magneto.helix_potential(a, p, length, 1.0, y1, CFG,
                                    sigma0=sigma)
    assert moved.a_cyl() == pytest.approx(base.a_cyl(), rel=1e-10)


def test_helix_on_support_refused():
    a, p = 1.0, 0.2
    big_p = math.sqrt(1.0 - p * p) / a
    s_hit = 3.0
    on_wire = Point3(a * math.cos(big_p * s_hit),
                     a * math.sin(big_p * s_hit), p * s_hit)
    with pytest.raises(OnSupportError):
        magneto.helix_potential(a, p, 10.0, 1.0, on_wire, CFG)


def _near_helix(a, p, s, dr=0.0, dz=0.0):
    """The wire point at arc length s, moved dr out and dz up."""
    big_p = math.sqrt(1.0 - p * p) / a
    return Point3((a + dr) * math.cos(big_p * s),
                  (a + dr) * math.sin(big_p * s), p * s + dz)


def test_helix_band_between_turns_is_off_support():
    # on the band r = a, which the band distance alone cannot clear, but
    # half a turn's rise above the wire
    a, p = 1.0, 0.2
    rise = p * 2.0 * math.pi * a / math.sqrt(1.0 - p * p)
    y = _near_helix(a, p, 3.0, dz=0.5 * rise)
    res = magneto.helix_potential(a, p, 10.0, 1.0, y, CFG)
    assert all(math.isfinite(c) for c in res.a.as_tuple())


def test_helix_within_1e9_of_wire_refused():
    y = _near_helix(1.0, 0.2, 3.0, dr=1e-9)
    with pytest.raises(OnSupportError):
        magneto.helix_potential(1.0, 0.2, 10.0, 1.0, y, CFG)


def test_helix_distance_decides_as_the_wire_scan():
    a, p, length, s0 = 0.8, 0.3, 12.0, -2.0
    big_p = math.sqrt(1.0 - p * p) / a

    def wire(s):
        return Point3(a * math.cos(big_p * s), a * math.sin(big_p * s), p * s)

    rng = random.Random(7)
    for _ in range(200):
        # beside the wire, between turns, and past either end of the band
        s = rng.uniform(s0 - 1.0, s0 + length + 1.0)
        dr = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-10, -1)
        dz = rng.uniform(-0.5, 0.5) * rng.random() ** 4
        y = _near_helix(a, p, s, dr, dz)
        within = 10 ** rng.uniform(-9, -1)
        scan = magneto.min_distance_to_curve(wire, s0, s0 + length, y)
        got = magneto.helix_distance(a, p, length, s0, y, within)
        assert (got < within) == (scan < within)
        if got < within:
            assert got == scan


def test_helix_rejects_bad_pitch():
    with pytest.raises(InvalidGeometryError):
        magneto.helix_potential(1.0, 0.0, 5.0, 1.0, Point3(2, 0, 0), CFG)
    with pytest.raises(InvalidGeometryError):
        magneto.helix_potential(1.0, 1.0, 5.0, 1.0, Point3(2, 0, 0), CFG)


# ---------------------------------------------------------------------------
# solenoid sheet


def test_solenoid_interior_axial_field():
    # long azimuthal sheet: interior b_z -> mu0 * kappa0 * a * P
    a, p, L, k0 = 1.0, 0.0, 60.0, 1.0
    big_p = math.sqrt(1.0 - p * p) / a
    b = magneto.derive_b(
        lambda q: magneto.solenoid_potential(a, p, L, k0, q, CFG).a)
    mid = Point3(0.3, 0.0, L / 2.0)
    expected = MU0 * k0 * a * big_p
    assert b(mid).z == pytest.approx(expected, rel=5e-3)


def test_solenoid_radial_component_vanishes(monkeypatch):
    # the evaluator's radial component is exactly 0; read back from the
    # Cartesian vector it is -(a_phi s) c + (a_phi c) s, which rounds to
    # 0 or to an ulp of |a| depending on the last bit of a_phi
    radial = []
    to_cart = magneto.cyl_to_cart

    def recording(a_r, a_phi, a_z, phi):
        radial.append(a_r)
        return to_cart(a_r, a_phi, a_z, phi)

    monkeypatch.setattr(magneto, "cyl_to_cart", recording)
    res = magneto.solenoid_potential(1.0, 0.3, 10.0, 2.0,
                                     Point3(1.8, 0.7, 4.0), CFG)
    # the first call forms a, the second b, whose b_r is not 0
    assert radial[0] == 0.0 and len(radial) == 2
    a_r, a_phi, a_z = res.a_cyl()
    assert abs(a_r) <= math.ulp(res.a.norm())
    assert a_phi != 0.0 and a_z != 0.0


def test_solenoid_exterior_potential_falls_like_one_over_r():
    # outside a long solenoid the flux is confined, so a_phi ~ C / r
    a, L = 1.0, 80.0
    mid_z = L / 2.0
    r1, r2 = 3.0, 6.0
    v1 = magneto.solenoid_potential(a, 0.0, L, 1.0,
                                    Point3(r1, 0.0, mid_z), CFG).a_cyl()[1]
    v2 = magneto.solenoid_potential(a, 0.0, L, 1.0,
                                    Point3(r2, 0.0, mid_z), CFG).a_cyl()[1]
    assert v1 * r1 == pytest.approx(v2 * r2, rel=2e-2)


def test_solenoid_on_sheet_refused():
    with pytest.raises(OnSupportError):
        magneto.solenoid_potential(1.0, 0.0, 10.0, 1.0,
                                   Point3(1.0, 0.0, 5.0), CFG)


# ---------------------------------------------------------------------------
# generic curve evaluator


def test_curve_potential_matches_loop_evaluator():
    src = circular_loop(1.0, 1.0)
    y = Point3(1.7, 0.0, 0.6)
    generic = magneto.curve_potential(src, y, CFG)
    special = magneto.loop_potential(1.0, 1.0, y, CFG)
    assert generic.a.as_tuple() == pytest.approx(special.a.as_tuple(),
                                                 rel=1e-8, abs=1e-20)


def test_curve_potential_straight_segment_closed_form():
    # finite straight wire along z from 0 to L: A_z has the standard
    # inverse-hyperbolic form mu0 I/(4 pi) [asinh((L-z)/rho) + asinh(z/rho)]
    L, current = 2.0, 1.5
    src = polyline([Point3(0, 0, 0), Point3(0, 0, L)], current)
    y = Point3(0.8, 0.0, 0.7)
    rho, z = y.r, y.z
    expected = MU0 * current / (4.0 * math.pi) * (
        math.asinh((L - z) / rho) + math.asinh(z / rho))
    got = magneto.curve_potential(src, y, CFG)
    assert got.a.z == pytest.approx(expected, rel=1e-10)
    assert abs(got.a.x) < 1e-18
    assert abs(got.a.y) < 1e-18


def test_curve_potential_square_loop_symmetry():
    # square loop in the z=0 plane: at the center A vanishes by
    # symmetry and B is vertical
    pts = [Point3(1, 1, 0), Point3(-1, 1, 0), Point3(-1, -1, 0),
           Point3(1, -1, 0)]
    src = polyline(pts, 1.0, closed=True)
    center = Point3(0.0, 0.0, 0.0)
    res = magneto.curve_potential(src, center, CFG)
    assert res.a.norm() < 1e-18
    # B_z at center of a square loop of half-side d: sqrt(2) mu0 I/(pi d)
    b = magneto.derive_b(lambda p: magneto.curve_potential(src, p, CFG).a)
    expected = math.sqrt(2.0) * MU0 * 1.0 / math.pi
    got = b(center)
    assert got.z == pytest.approx(expected, rel=1e-5)


def test_curve_potential_on_support_refused():
    src = polyline([Point3(0, 0, 0), Point3(0, 0, 2)], 1.0)
    with pytest.raises(OnSupportError):
        magneto.curve_potential(src, Point3(0.0, 0.0, 1.0), CFG)


@pytest.mark.parametrize("closed, y", [
    (True, Point3(1.0, 0.37, 1e-9)),      # inside a segment
    (True, Point3(1.0, 1.0, 1e-9)),       # at a vertex
    (True, Point3(0.0, 0.61, 1e-9)),      # on the closing segment
    (False, Point3(-5e-9, 1.0, 0.0)),     # on the last line, past its end
    (False, Point3(1.0 + 3e-9, 1.0 + 4e-9, 0.0)),  # off an inner vertex
], ids=["segment", "vertex", "closing_segment", "open_past_end",
        "open_inner_vertex"])
def test_closed_polyline_refuses_points_on_its_segments(closed, y):
    # the floor is 1e-8 here; beyond a segment's ends its distance is
    # R0 or R1, so a point on its line is refused before anything
    # divides by the distance from that line, which is 0 there
    square = [Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0),
              Point3(0, 1, 0)]
    src = polyline(square, 1.0, closed=closed)
    for want_b in (False, True):
        with pytest.raises(OnSupportError):
            magneto.curve_potential(src, y, CFG, want_b=want_b)


# ---------------------------------------------------------------------------
# polyline closed form against the Leray chart quadrature and 60 digits

PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097")

UNIT_SQUARE = [Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0),
               Point3(0, 1, 0)]
SKEW_HEXAGON = [Point3(0.137, -0.421, 0.613), Point3(0.952, 0.071, 0.338),
                Point3(1.318, 0.874, -0.127), Point3(0.644, 1.503, 0.291),
                Point3(-0.213, 1.129, 0.805), Point3(-0.477, 0.389, 0.152)]
ZIGZAG = [Point3(-0.3, 0.2, 0.1), Point3(0.7, 0.9, -0.4),
          Point3(1.9, 0.1, 0.3), Point3(2.2, 1.3, 1.1)]


def unit(v):
    return v / v.norm()


def probe_points(vertices):
    """(label, point): grid points, points 1e-6 from a segment interior
    and from a vertex, points on a segment's line beyond each end, and
    far-field points at 100 times the size of the polyline."""
    p0, p1, p2 = vertices[0], vertices[1], vertices[2]
    along = p1 - p0
    normal = unit(along.cross(p2 - p1))
    centre = Point3(*(sum(c) / len(vertices)
                      for c in zip(*(p.as_tuple() for p in vertices))))
    size = max((p - centre).norm() for p in vertices)
    grid = [("grid%d" % i, centre + Vec3(dx, dy, 0.2))
            for i, (dx, dy) in enumerate((dx, dy) for dx in (-0.8, 0.3, 1.7)
                                         for dy in (-0.6, 0.9))]
    return grid + [
        ("near_segment", p0 + 0.37 * along + 1e-6 * normal),
        ("near_vertex", p1 + 1e-6 * unit(Vec3(1.0, 2.0, 3.0))),
        ("beyond_start", p0 - 0.5 * along),
        ("beyond_end", p1 + 0.5 * along),
        ("far0", centre + 100.0 * size * unit(Vec3(0.3, -0.5, 0.8))),
        ("far1", centre + 100.0 * size * unit(Vec3(-0.9, 0.1, -0.2))),
    ]


POLYLINES = [("square", UNIT_SQUARE, True),
             ("skew_hexagon", SKEW_HEXAGON, True),
             ("open_zigzag", ZIGZAG, False)]
POLYLINE_CASES = [pytest.param(verts, closed, y, id="%s-%s" % (name, label))
                  for name, verts, closed in POLYLINES
                  for label, y in probe_points(verts)]


def leray_chart_potential(src, y, cfg):
    """Per-segment adaptive quadrature of free_kernel * W * omega_f(d/ds)
    over the chart, the paper's route for any curve: (a, error)."""
    comps, err = [0.0, 0.0, 0.0], 0.0
    for k in range(src.params["n_segments"]):
        for ax in range(3):
            def integrand(s, ax=ax):
                return (kernels.free_kernel(y, src.point(s))
                        * src.w_field(s).as_tuple()[ax]
                        * src.chart_weight(s))

            res = integrate_adaptive(integrand, k, k + 1, cfg)
            comps[ax] += res.value
            err += res.error_estimate
    pref = MU0 * src.i0
    return pref * Vec3(*comps), abs(pref) * err


def exact_polyline_potential(vertices, current, y):
    """mu0 I / (4 pi) * sum_k v_k u_k in 60-digit decimals from the
    float inputs as given, v_k = asinh((L - l)/d) + asinh(l/d); on a
    segment's line (d = 0) the log ratio of the same integral."""
    def norm(v):
        return sum(c * c for c in v).sqrt()

    def asinh(x):
        return (abs(x) + (x * x + 1).sqrt()).ln().copy_sign(x)

    with localcontext() as ctx:
        ctx.prec = 60
        yd = [Decimal(c) for c in y.as_tuple()]
        total = [Decimal(0)] * 3
        for p0, p1 in zip(vertices[:-1], vertices[1:]):
            a = [Decimal(c) for c in p0.as_tuple()]
            b = [Decimal(c) for c in p1.as_tuple()]
            seg = [bi - ai for ai, bi in zip(a, b)]
            length = norm(seg)
            u = [c / length for c in seg]
            r = [yi - ai for yi, ai in zip(yd, a)]
            l = sum(ri * ui for ri, ui in zip(r, u))
            d = norm([r[1] * u[2] - r[2] * u[1], r[2] * u[0] - r[0] * u[2],
                      r[0] * u[1] - r[1] * u[0]])
            r0, r1 = norm(r), norm([yi - bi for yi, bi in zip(yd, b)])
            if d > 0:
                v = asinh((length - l) / d) + asinh(l / d)
            elif l < 0:
                v = ((r1 + length - l) / (r0 - l)).ln()
            else:
                v = ((r0 + l) / (r1 + l - length)).ln()
            total = [t + v * ui for t, ui in zip(total, u)]
        pref = Decimal(MU0) * Decimal(current) / (4 * PI_60)
        return [pref * t for t in total]


@pytest.mark.parametrize("vertices, closed, y", POLYLINE_CASES)
def test_polyline_closed_form_matches_chart_quadrature(vertices, closed, y):
    src = polyline(vertices, 1.5, closed=closed)
    got = magneto.curve_potential(src, y, CFG)
    oracle, oracle_err = leray_chart_potential(src, y, CFG)
    tol = oracle_err + got.error
    for g, o in zip(got.a.as_tuple(), oracle.as_tuple()):
        assert abs(g - o) <= tol


@pytest.mark.parametrize("vertices, closed, y", POLYLINE_CASES)
def test_polyline_closed_form_error_bounds_exact_value(vertices, closed, y):
    src = polyline(vertices, 1.5, closed=closed)
    got = magneto.curve_potential(src, y, CFG)
    chain = vertices + vertices[:1] if closed else vertices
    exact = exact_polyline_potential(chain, 1.5, y)
    bound = Decimal(got.error)
    for g, e in zip(got.a.as_tuple(), exact):
        assert abs(Decimal(g) - e) <= bound


# ---------------------------------------------------------------------------
# circuits


def test_ampere_linked_and_unlinked():
    loop_cfg = QuadConfig(abs_tol=1e-11, rel_tol=1e-8)
    a_of = lambda p: magneto.loop_potential(1.0, 2.0, p, loop_cfg).a  # noqa: E731
    h = magneto.magnetic_h(magneto.derive_b(a_of))
    # small circle threaded by the wire at (1, 0, 0)
    linked = magneto.circle_circuit(Point3(1.0, 0.0, 0.0),
                                    Vec3(0.0, 1.0, 0.0), 0.3, links=1)
    circ, resid = magneto.ampere_residual(linked, h, 2.0)
    assert abs(abs(circ) - 2.0) < 0.01 * 2.0
    # far small circle, nothing through it
    free = magneto.circle_circuit(Point3(4.0, 0.0, 0.0), EZ, 0.3, links=0)
    circ2, _ = magneto.ampere_residual(free, h, 2.0)
    assert abs(circ2) < 0.01 * 2.0


def test_circle_circuit_geometry():
    c = magneto.circle_circuit(Point3(1.0, 2.0, 3.0), EZ, 0.5)
    p = c.point(0.0)
    assert (p - Point3(1.0, 2.0, 3.0)).norm() == pytest.approx(0.5)
    # tangent orthogonal to radius vector
    for t in (0.3, 1.9):
        radial = c.point(t) - Point3(1.0, 2.0, 3.0)
        assert abs(c.tangent(t).dot(radial)) < 1e-12


# ---------------------------------------------------------------------------
# distance helper


def test_min_distance_to_circle():
    a = 1.0
    src = circular_loop(a, 1.0)
    y = Point3(1.5, 0.0, 0.8)
    expected = math.hypot(y.r - a, y.z)
    got = magneto.min_distance_to_curve(src.point, 0.0, 2.0 * math.pi, y)
    assert got == pytest.approx(expected, rel=1e-6)


def test_min_distance_rejects_empty_chart():
    with pytest.raises(InvalidGeometryError):
        magneto.min_distance_to_curve(lambda s: Point3(s, 0, 0), 1.0, 1.0,
                                      Point3(0, 0, 0))


def test_chart_quadratures_run_once_through_the_module(monkeypatch):
    # perfbench/tracer.py counts core.* work by wrapping these module
    # globals and reading the evaluation count at [-2] of what they
    # return; a quadrature reached by any other route would read 0.  The
    # count is every integrand evaluation: GAUSS_N nodes a panel, the
    # error bounds evaluating no integrand
    calls = {}
    for name in ("loop_phi_integral", "helix_integrals",
                 "solenoid_integrals"):
        def counting(*args, _name=name, _f=getattr(magneto, name)):
            out = _f(*args)
            calls.setdefault(_name, []).append(out[-2])
            return out

        monkeypatch.setattr(magneto, name, counting)
    y = Point3(0.9, 0.4, 0.3)
    results = {
        "loop_phi_integral": magneto.loop_potential(1.2, 1.0, y, CFG),
        "helix_integrals": magneto.helix_potential(0.6, 0.08, 20.0, 1.0, y,
                                                   CFG, -10.0),
        "solenoid_integrals": magneto.solenoid_potential(1.5, 0.05, 1.0,
                                                         10.0, y, CFG),
    }
    for name, res in results.items():
        evals = res.diagnostics["evaluations"]
        assert evals > 0 and evals % GAUSS_N == 0
        assert calls[name] == [evals], name
