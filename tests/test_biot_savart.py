"""Each source's own b, held against independent routes.

The loop, helix and sheet integrate the Biot-Savart field on their
potential's nodes, in the field point's cylindrical frame; here it is
held against a 30-digit mpmath quadrature of t x (y - x) / R^3 in
Cartesian coordinates, within the reported b_error.  Every source's b,
as the fieldmap part returns it, is held against the curl of its own a
by the exterior3 stencil (derive_b), within the stencil's truncation.
"""

import csv
import math
import random
import textwrap

import mpmath
import pytest

from emsingular import cli, fieldmap
from emsingular.fields import magneto, retarded
from emsingular.fields.medium import EPS0
from emsingular.geometry import Point3, Vec3
from emsingular.quad import QuadConfig
from emsingular.scene import Scene, scene_hash, validate_scene
from emsingular.sources import polyline, uniform_point_charge

CFG = QuadConfig()
EPS = 2.0 ** -52
MU0 = 4e-7 * math.pi

LOOP = (1.2, 2.0, 0.1)                      # radius, current, center_z
HELIX = (0.6, 0.08, 20.0, 1.0, -10.0)       # the magneto_bmap helix
SHEET = (1.5, 0.05, 1.0, 3.0)               # radius, pitch, length, kappa0


def _cross(t, d):
    return (t[1] * d[2] - t[2] * d[1], t[2] * d[0] - t[0] * d[2],
            t[0] * d[1] - t[1] * d[0])


def _quad3(vec, cuts):
    """The three components of the integral of vec over the cuts; vec
    is evaluated once per node for all three."""
    memo = {}

    def component(k):
        def f(s):
            if s not in memo:
                memo[s] = vec(s)
            return memo[s][k]
        return mpmath.quad(f, cuts)

    return [component(k) for k in range(3)]


def _graded(lo, hi, step, near, width):
    """Cuts every `step` on [lo, hi], with more at near +- width * 3^k,
    where the kernel peaks."""
    n = math.ceil((hi - lo) / step)
    cuts = {lo + (hi - lo) * k / n for k in range(n + 1)}
    for k in range(6):
        for sign in (1, -1):
            c = near + sign * width * 3 ** k
            if lo < c < hi:
                cuts.add(c)
    if lo < near < hi:
        cuts.add(near)
    return [mpmath.mpf(c) for c in sorted(cuts)]


def _curve_b(point, tangent, y, cuts, pref):
    """pref * int tangent(s) x (y - point(s)) / |y - point(s)|^3 ds."""
    with mpmath.workdps(30):
        ym = [mpmath.mpf(c) for c in y]

        def vec(s):
            x = point(s)
            d = [ym[i] - x[i] for i in range(3)]
            r3 = (d[0] ** 2 + d[1] ** 2 + d[2] ** 2) ** mpmath.mpf(1.5)
            return [c / r3 for c in _cross(tangent(s), d)]

        return [float(pref * c) for c in _quad3(vec, cuts)]


def loop_reference(y, near, width):
    a, cur, zc = (mpmath.mpf(v) for v in LOOP)
    with mpmath.workdps(30):
        return _curve_b(
            lambda u: (a * mpmath.cos(u), a * mpmath.sin(u), zc),
            lambda u: (-a * mpmath.sin(u), a * mpmath.cos(u), 0),
            y, _graded(near - math.pi, near + math.pi, math.pi / 4, near,
                       width),
            MU0 * cur / (4 * mpmath.pi))


def helix_reference(y, near, width):
    a, p, length, cur, s0 = HELIX
    with mpmath.workdps(30):
        am, pm = mpmath.mpf(a), mpmath.mpf(p)
        big_p = mpmath.sqrt(1 - pm ** 2) / am
        turn = 2 * math.pi / float(big_p)
        return _curve_b(
            lambda s: (am * mpmath.cos(big_p * s), am * mpmath.sin(big_p * s),
                       pm * s),
            lambda s: (-am * big_p * mpmath.sin(big_p * s),
                       am * big_p * mpmath.cos(big_p * s), pm),
            y, _graded(s0, s0 + length, turn / 4, near, width),
            MU0 * cur / (4 * mpmath.pi))


def sheet_reference(y, near, width):
    """The sheet as lines of current along z at each azimuth u: the
    axial integrals of (y - x) / R^3 from their antiderivatives, which
    30 digits take without cancellation, then the u quadrature of
    K(u) x that, K = kappa0 (a P phi_hat(u) + p z_hat)."""
    a, p, length, k0 = SHEET
    with mpmath.workdps(30):
        am, pm, lm = (mpmath.mpf(v) for v in (a, p, length))
        big_p = mpmath.sqrt(1 - pm ** 2) / am
        yx, yy, yz = (mpmath.mpf(c) for c in y)

        def vec(u):
            rx, ry = yx - am * mpmath.cos(u), yy - am * mpmath.sin(u)
            c1 = rx ** 2 + ry ** 2
            lo = mpmath.sqrt(c1 + yz ** 2)
            hi = mpmath.sqrt(c1 + (yz - lm) ** 2)
            g = (yz / lo - (yz - lm) / hi) / c1       # int dz' / R^3
            h = 1 / hi - 1 / lo                       # int (z - z') / R^3
            k = (-am * big_p * mpmath.sin(u), am * big_p * mpmath.cos(u), pm)
            return _cross(k, (rx * g, ry * g, h))

        cuts = _graded(near - math.pi, near + math.pi, math.pi / 4, near,
                       width)
        pref = MU0 * k0 * am / (4 * mpmath.pi)
        return [float(pref * c) for c in _quad3(vec, cuts)]


def test_sheet_reference_axial_integrals_match_quadrature():
    # the reference's closed axial integrals against mpmath quadrature
    # over z' in [0, L] at a few azimuths
    a, _, length, _ = SHEET
    y = (1.3, 0.4, 1.7)
    with mpmath.workdps(30):
        for u in (0.0, 0.7, 2.9):
            rx = mpmath.mpf(y[0]) - a * mpmath.cos(u)
            ry = mpmath.mpf(y[1]) - a * mpmath.sin(u)
            c1 = rx ** 2 + ry ** 2
            z = mpmath.mpf(y[2])
            lo, hi = mpmath.sqrt(c1 + z ** 2), mpmath.sqrt(c1 + (z - length) ** 2)
            g = mpmath.quad(lambda zp: (c1 + (z - zp) ** 2) ** -1.5,
                            [0, length])
            h = mpmath.quad(lambda zp: (z - zp) * (c1 + (z - zp) ** 2) ** -1.5,
                            [0, length])
            assert abs(g - (z / lo - (z - length) / hi) / c1) < 1e-25 * g
            assert abs(h - (1 / hi - 1 / lo)) < 1e-25 * abs(h)


def _seeded(n, scale, seed):
    rng = random.Random(seed)
    return [tuple(rng.uniform(-scale, scale) for _ in range(3))
            for _ in range(n)]


def _cases(points, near_points):
    """(y, azimuth or arc length of the nearest source point, width)."""
    return ([(y, None, None) for y in points] + near_points)


# field points: seeded ones, and ones 3 and 6 cm from the wire or sheet
LOOP_CASES = _cases(_seeded(2, 2.0, 11), [
    ((1.23 * math.cos(0.4), 1.23 * math.sin(0.4), 0.1), 0.4, 0.03),
    ((1.2 * math.cos(-2.0), 1.2 * math.sin(-2.0), 0.16), -2.0, 0.06),
])
HELIX_CASES = _cases(_seeded(1, 2.0, 12), [
    ((0.63 * math.cos(1.66 * 0.3), 0.63 * math.sin(1.66 * 0.3), 0.024),
     0.3, 0.03),
    ((0.54 * math.cos(1.66 * 4.1), 0.54 * math.sin(1.66 * 4.1), 0.328),
     4.1, 0.06),
])
SHEET_CASES = _cases(_seeded(2, 2.0, 13), [
    ((1.53, 0.0, 0.4), 0.0, 0.03),
    ((1.44 * math.cos(2.5), 1.44 * math.sin(2.5), 0.8), 2.5, 0.06),
])


def _near(y, near, width, default):
    if near is None:
        return math.atan2(y[1], y[0]) if default is None else default, 0.3
    return near, width


def _held_to_reference(res, want):
    got = res.b.as_tuple()
    assert res.converged
    err = max(abs(g - w) for g, w in zip(got, want))
    # b_error covers the quadrature; forming pref * J and turning it to
    # Cartesian rounds by a few ulps of |b| more
    assert err <= res.diagnostics["b_error"] + 8.0 * EPS * res.b.norm()


@pytest.mark.parametrize("y, near, width", LOOP_CASES)
def test_loop_b_matches_mpmath_biot_savart(y, near, width):
    near, width = _near(y, near, width, None)
    a, cur, zc = LOOP
    res = magneto.loop_potential(a, cur, Point3(*y), CFG, zc)
    _held_to_reference(res, loop_reference(y, near, width))


@pytest.mark.parametrize("y, near, width", HELIX_CASES)
def test_helix_b_matches_mpmath_biot_savart(y, near, width):
    near, width = _near(y, near, width, 0.0)
    a, p, length, cur, s0 = HELIX
    res = magneto.helix_potential(a, p, length, cur, Point3(*y), CFG, s0)
    _held_to_reference(res, helix_reference(y, near, width))


@pytest.mark.parametrize("y, near, width", SHEET_CASES)
def test_sheet_b_matches_mpmath_biot_savart(y, near, width):
    near, width = _near(y, near, width, None)
    a, p, length, k0 = SHEET
    res = magneto.solenoid_potential(a, p, length, k0, Point3(*y), CFG)
    _held_to_reference(res, sheet_reference(y, near, width))


@pytest.mark.parametrize("y", [
    (0.0, 0.0, 0.3), (0.0, 0.0, -0.5), (0.0, 0.0, 2.0),      # the axis
    (1.5, 0.0, 1.001), (0.0, 1.5, 1.04), (1.5, 0.0, 3.0),    # r = a beyond
    (-1.5, 0.0, -0.001), (1.5, 0.0, -0.04),                  # the ends
], ids=lambda y: "%g,%g,%g" % y)
def test_sheet_b_is_finite_on_the_axis_and_beyond_the_ends(y):
    a, p, length, k0 = SHEET
    res = magneto.solenoid_potential(a, p, length, k0, Point3(*y), CFG)
    assert all(math.isfinite(c) for c in res.b.as_tuple())
    assert res.converged
    near = math.atan2(y[1], y[0]) if y[0] or y[1] else 0.0
    width = max(1e-3, min(abs(y[2]), abs(y[2] - length)))
    _held_to_reference(res, sheet_reference(y, near, width))


@pytest.mark.parametrize("gap", [2e-8, 1e-7, 1e-5])
def test_sheet_just_beyond_an_end_on_its_cylinder_is_finite(gap):
    # at r = a the chord to u = 0 vanishes but for the gap; formed as
    # r^2 + a^2 - 2 a r cos u it rounded to 0 and divided by it
    a, p, length, k0 = SHEET
    for z in (length + gap, -gap):
        res = magneto.solenoid_potential(a, p, length, k0, Point3(a, 0.0, z),
                                         CFG)
        assert res.converged
        assert all(math.isfinite(c) for c in res.a.as_tuple()
                   + res.b.as_tuple())


@pytest.mark.parametrize("gap", [2e-8, 1e-7])
def test_loop_just_off_its_wire_converges(gap):
    # 1 / D^3 peaks at the gap; D^2 formed as r^2 + a^2 + z^2 - 2 a r cos
    # psi lost it to rounding, and no refinement could converge
    a, cur, zc = LOOP
    for y in (Point3(a, 0.0, zc + gap), Point3(a + gap, 0.0, zc),
              Point3(0.0, a - gap, zc)):
        res = magneto.loop_potential(a, cur, y, CFG, zc)
        assert res.converged


def test_loop_and_helix_b_are_finite_on_the_axis():
    y = Point3(0.0, 0.0, 0.25)
    a, cur, zc = LOOP
    loop = magneto.loop_potential(a, cur, y, CFG, zc)
    a, p, length, cur, s0 = HELIX
    helix = magneto.helix_potential(a, p, length, cur, y, CFG, s0)
    for res in (loop, helix):
        assert all(math.isfinite(c) for c in res.b.as_tuple())
        assert res.b.z > 0.0
    # on the loop's axis b is axial, mu I a^2 / (2 (a^2 + z^2)^(3/2))
    a, cur, zc = LOOP
    exact = MU0 * cur * a * a / (2.0 * (a * a + (0.25 - zc) ** 2) ** 1.5)
    bound = loop.diagnostics["b_error"]
    assert abs(loop.b.x) <= bound and loop.b.y == 0.0
    assert abs(loop.b.z - exact) <= bound + 4 * EPS * exact


def test_polyline_b_on_a_segments_line_is_zero():
    # (l0 / R0 - l1 / R1) / d^2 would be 0 / 0 here
    wire = polyline([Point3(0.0, 0.0, 0.0), Point3(1.0, 0.0, 0.0)], 2.0,
                    False)
    for x in (3.0, -2.0, 1.0 + 1e-6):
        res = magneto.curve_potential(wire, Point3(x, 0.0, 0.0), CFG,
                                      want_b=True)
        assert res.b.as_tuple() == (0.0, 0.0, 0.0)
        assert res.a.x != 0.0
    # a skew segment: y - p is parallel to u only to rounding
    skew = polyline([Point3(0.1, -0.2, 0.3), Point3(1.1, 1.8, 3.3)], 2.0,
                    False)
    res = magneto.curve_potential(skew, Point3(2.1, 3.8, 6.3), CFG,
                                  want_b=True)
    size = MU0 * 2.0 / (4 * math.pi) / 2.0 ** 2     # mu I / 4 pi / dist^2
    assert all(abs(c) <= 1e-14 * size for c in res.b.as_tuple())


def test_polyline_b_is_formed_only_when_asked():
    wire = polyline([Point3(0.0, 0.0, 0.0), Point3(1.0, 0.0, 0.0)], 2.0,
                    False)
    assert magneto.curve_potential(wire, Point3(0.5, 1.0, 0.0), CFG).b is None


# ---------------------------------------------------------------------------
# every source's b against the curl of its own a


SOURCES = {
    "loop": {"type": "loop", "radius": 1.2, "current": 2.0,
             "center_z": 0.1},
    "helix": {"type": "helix", "radius": 0.6, "pitch": 0.08, "length": 20.0,
              "current": 1.0, "sigma0": -10.0},
    "solenoid": {"type": "solenoid", "radius": 1.5, "pitch": 0.05,
                 "length": 1.0, "kappa0": 3.0},
    "polyline": {"type": "polyline", "current": 1.5,
                 "points": [[2.0, -0.5, 0.0], [3.0, -0.5, 0.2],
                            [3.0, 0.5, 0.0], [2.0, 0.5, 0.1]],
                 "closed": True},
    "moving_charge": {"type": "point_charge", "q": 1e-9,
                      "position": [0.0, -1.0, 0.5],
                      "velocity": [3e7, 6e7, -2e8]},
    "static_charge": {"type": "point_charge", "q": 1e-9,
                      "position": [0.0, -1.0, 0.5]},
    "dipole": {"type": "dipole", "position": [0.0, 1.0, 0.5],
               "moment": [0.0, 0.0, 1e-12]},
    "plate_wire": {"type": "plate_wire", "z0": 0.4, "lambda": 1e-9,
                   "gap": 1.0},
}
TIGHT = {"abs_tol": 1e-16, "rel_tol": 1e-13, "max_subdivisions": 4000}


@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_every_source_b_is_the_curl_of_its_a(kind):
    raw = {"schema": 1, "sources": [SOURCES[kind]], "outputs": ["a", "b"],
           "grid": {"x": 0.0, "y": 0.0, "z": 0.0}, "quadrature": TIGHT}
    data = validate_scene(raw)
    (part,) = fieldmap.build_parts(Scene(data, scene_hash(data)))
    points = [Point3(0.35, 0.2, 0.45), Point3(0.7, -0.3, 0.6),
              Point3(2.4, 0.3, 0.5)]
    t = 1.3e-9
    electric = kind in ("static_charge", "dipole", "plate_wire")
    for y in points:
        res = part.evaluate(y, t, True)
        assert res.converged
        a = res.a
        if electric:
            # no magnetic field: the curl of a must vanish
            assert res.b is None
            b = Vec3(0.0, 0.0, 0.0)
        else:
            b = res.b
            assert b.norm() > 0.0

        def curl(h):
            return magneto.derive_b(lambda p: part.evaluate(p, t).a, h)(y)

        coarse, fine = curl(1e-3), curl(5e-4)
        # the h^2 truncation falls by 4 from coarse to fine, so the fine
        # curl is within |coarse - fine| / 3 of the exact one; the
        # potentials' error, at most 1e-13 of |a|, adds that over h
        trunc = max(abs(c - f) for c, f in zip(coarse.as_tuple(),
                                               fine.as_tuple()))
        noise = 4e-13 * a.norm() / 5e-4
        for got, want in zip(b.as_tuple(), fine.as_tuple()):
            assert abs(got - want) <= trunc + noise + 1e-12 * b.norm(), kind


def test_moving_charge_b_is_v_cross_e_over_c_squared():
    # for uniform motion b = v x e / c^2, with e Heaviside's field
    src = uniform_point_charge(1e-9, Point3(0.0, -1.0, 0.5),
                               Vec3(3e7, 6e7, -2e8))
    c = 299792458.0
    for y in _seeded(20, 3.0, 14):
        y = Point3(*y)
        w = y - src.position(2e-9)
        v = src.v
        k = c * c - v.dot(v)
        d = math.sqrt(w.dot(v) ** 2 + k * w.dot(w)) / c
        e = (1e-9 * k / (4 * math.pi * EPS0 * c * c * d ** 3)) * w
        want = v.cross(e) / (c * c)
        got = retarded.lienard_wiechert(src, y, 2e-9, want_b=True).b
        assert (got - want).norm() <= 1e-9 * want.norm()


# ---------------------------------------------------------------------------
# far charges through the command line


def _run(tmp_path, source, x, outputs, time=None):
    scene = tmp_path / "scene.yaml"
    scene.write_text(textwrap.dedent("""\
    schema: 1
    sources:
      - %s
    grid:
      x: %r
      y: 0.0
      z: 0.0
    %s
    outputs: %s
    """) % (source, x, "" if time is None else "  time: %r" % time,
            outputs))
    out = tmp_path / "map.csv"
    code = cli.main(["run", "--scene", str(scene), "--out", str(out)])
    with open(out) as fh:
        (row,) = list(csv.DictReader(ln for ln in fh
                                     if not ln.startswith("#")))
    return code, row


@pytest.mark.parametrize("outputs", ["[phi, a]", "[phi, a, b]"])
def test_run_separation_beyond_the_floats_is_out_of_domain(tmp_path,
                                                           outputs):
    # y - x(t) = 2e308 is inf: the row used to hold NaN with status ok
    code, row = _run(tmp_path, "{type: point_charge, q: 1.0e-9, "
                     "position: [-1.0e+308, 0.0, 0.0]}", 1e308, outputs)
    assert code == 2
    assert row["status"] == "out_of_domain"
    assert math.isnan(float(row["phi"]))


@pytest.mark.parametrize("x", [1e150, 1e300])
def test_run_far_moving_charge_b_is_finite(tmp_path, x):
    code, row = _run(tmp_path, "{type: point_charge, q: 1.0e-9, "
                     "position: [0.0, 0.0, 0.0], "
                     "velocity: [1.5e+8, -1.0e+8, 0.5e+8]}", x,
                     "[phi, a, b]", time=1.0)
    assert code == 0
    assert row["status"] == "ok"
    b = [float(row[k]) for k in ("b_x", "b_y", "b_z")]
    assert all(math.isfinite(c) for c in b)
    # |b| ~ mu q |v| / (4 pi x^2): ~2e-308 at 1e150, below the floats
    # at 1e300
    assert max(abs(c) for c in b) <= 1e-300
