"""fieldmap.compute_row: source evaluations per row, statuses, determinism.

Every source gives its own b, e and Lorenz-gauge terms at the row
point, so a row makes one evaluation per source, whatever it asks for.
The one exception is a residual row with a loop, helix, sheet or
polyline: such a part differences its own a at +-h on each axis, 7
evaluations of it.  The counts below are per source and per row.
"""

import io
import math
import textwrap

import mpmath
import pytest

from emsingular import cli, exterior3, fieldmap
from emsingular.fields import magneto, retarded
from emsingular.fields.medium import EPS0
from emsingular.geometry import Point3, Vec3
from emsingular.scene import Scene, scene_hash, validate_scene
from emsingular.sources import uniform_point_charge

LOOP = {"type": "loop", "radius": 1.0, "current": 2.0}
HELIX = {"type": "helix", "radius": 0.5, "pitch": 0.1, "length": 20.0,
         "current": 1.0}
SOLENOID = {"type": "solenoid", "radius": 2.0, "pitch": 0.05,
            "length": 1.0, "kappa0": 3.0}
SQUARE = {"type": "polyline", "current": 1.5,
          "points": [[2.0, -0.5, 0.0], [3.0, -0.5, 0.0],
                     [3.0, 0.5, 0.0], [2.0, 0.5, 0.0], [2.0, -0.5, 0.0]]}
PLATE_WIRE = {"type": "plate_wire", "z0": 0.4, "lambda": 1e-9, "gap": 1.0}
DIPOLE = {"type": "dipole", "position": [0.0, 1.0, 0.5],
          "moment": [0.0, 0.0, 1e-12]}
MOVING_CHARGE = {"type": "point_charge", "q": 1e-9,
                 "position": [0.0, -1.0, 0.5],
                 "velocity": [3e7, 6e7, 0.0]}


def make_scene(sources, outputs, x=0.5, y=0.0, z=0.5, time=None, **keys):
    raw = {"schema": 1, "sources": sources, "outputs": outputs,
           "grid": {"x": x, "y": y, "z": z, "time": time}, **keys}
    data = validate_scene(raw)
    return Scene(data, scene_hash(data))


def counted_parts(scene):
    """Parts whose evaluate() counts its calls in calls[i]."""
    parts = fieldmap.build_parts(scene)
    calls = [0] * len(parts)
    for i, part in enumerate(parts):
        def counting(*args, _inner=part.evaluate, _i=i):
            calls[_i] += 1
            return _inner(*args)
        part.evaluate = counting
    return parts, calls


def row_dict(scene, row):
    return dict(zip(fieldmap.column_names(scene), row))


@pytest.mark.parametrize("sources, outputs, coords, expected", [
    ([LOOP, SQUARE], ["a"], (0.5, 0.0, 0.3), [1, 1]),
    ([LOOP, SQUARE], ["a", "b"], (0.5, 0.0, 0.3), [1, 1]),
    ([PLATE_WIRE, DIPOLE], ["phi", "e", "residual"], (0.3, 0.0, 0.5),
     [1, 1]),
    ([LOOP, DIPOLE], ["a", "e", "residual"], (0.5, 0.0, 0.3), [7, 1]),
], ids=["a", "a_b", "static_phi_e_residual", "loop_residual"])
def test_static_rows_evaluate_each_stencil_point_once(sources, outputs,
                                                      coords, expected):
    scene = make_scene(sources, outputs)
    parts, calls = counted_parts(scene)
    row = fieldmap.compute_row(scene, parts, coords)
    assert row[-1] == "ok"
    assert calls == expected


def test_timed_row_evaluates_each_source_once():
    scene = make_scene([PLATE_WIRE, MOVING_CHARGE, DIPOLE],
                       ["phi", "a", "e", "residual"],
                       time={"start": 0.0, "stop": 2e-9, "count": 2})
    parts, calls = counted_parts(scene)
    row = fieldmap.compute_row(scene, parts, (0.3, 0.2, 0.5, 2e-9))
    assert row[-1] == "ok"
    assert calls == [1, 1, 1]


def test_point_charge_row_writes_its_own_error():
    # the charge bounds its rounding in its one evaluation, and the row
    # sums the sources' errors as they come, the charge's among them
    scene = make_scene([PLATE_WIRE, MOVING_CHARGE, DIPOLE],
                       ["phi", "a", "e", "residual"],
                       time={"start": 0.0, "stop": 2e-9, "count": 2})
    parts = fieldmap.build_parts(scene)
    point = Point3(0.3, 0.2, 0.5)
    row = row_dict(scene, fieldmap.compute_row(scene, parts,
                                               point.as_tuple() + (2e-9,)))
    assert row["status"] == "ok"
    plate, charge, dipole = (part.evaluate(point, 2e-9) for part in parts)
    src = uniform_point_charge(1e-9, Point3(0.0, -1.0, 0.5),
                               Vec3(3e7, 6e7, 0.0))
    res = retarded.lienard_wiechert(src, point, 2e-9, scene.medium)
    assert charge.error == res.error > 0.0
    assert row["quad_error"] == 0.0 + plate.error + res.error + dipole.error


@pytest.mark.parametrize("source", [
    LOOP, HELIX, SOLENOID, SQUARE, PLATE_WIRE, MOVING_CHARGE, DIPOLE,
], ids=lambda s: s["type"])
def test_one_source_row_writes_its_error(source):
    # quad_error of a one-source ok row is that source's own error, and
    # no kind leaves it 0
    scene = make_scene([source], ["phi", "a"])
    (part,) = fieldmap.build_parts(scene)
    point = Point3(0.3, 0.2, 0.6)     # off the dipole's equatorial plane
    row = row_dict(scene, fieldmap.compute_row(scene, [part],
                                               point.as_tuple()))
    assert row["status"] == "ok"
    assert row["quad_error"] == part.evaluate(point, 0.0).error > 0.0


@pytest.mark.parametrize("source", [LOOP, HELIX, SOLENOID],
                         ids=lambda s: s["type"])
def test_potential_only_rows_skip_the_field(monkeypatch, source):
    # an [a] row asks its chart quadrature for no Biot-Savart component:
    # no b, each node forms the potential's components alone, the panels
    # are never more (the sharper 1 / R^3 can only add bisections; it
    # does for the helix here), and a agrees within the reported error
    results = {}
    for outputs in (["a"], ["a", "b"]):
        scene = make_scene([source], outputs)
        (part,) = fieldmap.build_parts(scene)
        seen = []

        def keeping(*args, _inner=part.evaluate):
            seen.append(_inner(*args))
            return seen[-1]

        part.evaluate = keeping
        row = row_dict(scene, fieldmap.compute_row(scene, [part],
                                                   (0.3, 0.2, 0.6)))
        assert row["status"] == "ok"
        (results[len(outputs)],) = seen
    alone, both = results[1], results[2]
    assert alone.b is None and both.b is not None
    fewer = alone.diagnostics["evaluations"] < both.diagnostics["evaluations"]
    assert fewer or (source is not HELIX and alone.diagnostics["evaluations"]
                     == both.diagnostics["evaluations"])
    for u, v in zip(alone.a.as_tuple(), both.a.as_tuple()):
        assert abs(u - v) <= alone.error + both.error


def test_polyline_row_forms_each_segment_once(monkeypatch):
    # the derivative guard reads the distance the potential formed, so
    # a 1-row [a, b] row walks the segments once
    calls = []
    geometry = magneto._segment_geometry

    def counting(*args):
        calls.append(args)
        return geometry(*args)

    monkeypatch.setattr(magneto, "_segment_geometry", counting)
    scene = make_scene([SQUARE], ["a", "b"])
    parts = fieldmap.build_parts(scene)
    row = row_dict(scene, fieldmap.compute_row(scene, parts, (0.5, 0.0, 0.3)))
    assert row["status"] == "ok"
    assert len(calls) == len(SQUARE["points"]) - 1


def exterior3_columns(scene, parts, point, t, h):
    """b, e and residual columns by the exterior3 route (derive_b,
    d_numeric, codifferential) with step h, over a plain, uncached sum
    of the parts' potentials."""
    medium = scene.medium
    dt = h / medium.c

    def total(p, at):
        a, phi = Vec3(0.0, 0.0, 0.0), 0.0
        for part in parts:
            res = part.evaluate(p, at)
            a, phi = a + res.a, phi + res.phi
        return a, phi

    cols = {}
    if "b" in scene.outputs:
        b = magneto.derive_b(lambda p: total(p, t)[0], h)(point)
        cols.update(b_x=b.x, b_y=b.y, b_z=b.z)
    if "e" in scene.outputs:
        phi = exterior3.FormField.scalar(lambda p, _t: total(p, t)[1])
        grad = exterior3.d_numeric(phi, point, 0.0, h)
        e = Vec3(-grad[(0,)], -grad[(1,)], -grad[(2,)])
        if scene.timed:
            e = e - (total(point, t + dt)[0]
                     - total(point, t - dt)[0]) / (2.0 * dt)
        cols.update(e_x=e.x, e_y=e.y, e_z=e.z)
    if "residual" in scene.outputs:
        a = exterior3.FormField.one_form(
            lambda p, _t: total(p, t)[0].x,
            lambda p, _t: total(p, t)[0].y,
            lambda p, _t: total(p, t)[0].z)
        div_a = -exterior3.codifferential(a, point, 0.0, h)[()]
        scale = 0.0
        for axis in range(3):
            hi = total(point.shifted(axis, h), t)[0].as_tuple()[axis]
            lo = total(point.shifted(axis, -h), t)[0].as_tuple()[axis]
            scale += abs((hi - lo) / (2.0 * h))
        term = 0.0
        if scene.timed:
            term = (medium.eps * medium.mu
                    * (total(point, t + dt)[1] - total(point, t - dt)[1])
                    / (2.0 * dt))
        cols.update(residual=div_a + term, residual_scale=scale + abs(term))
    return cols


SHARED_STENCIL_ROWS = [
    ([LOOP, SQUARE], ["a", "b"], (0.5, 0.0, 0.3), None),
    ([PLATE_WIRE, DIPOLE], ["phi", "e", "residual"], (0.3, 0.0, 0.5), None),
    ([PLATE_WIRE, MOVING_CHARGE, DIPOLE], ["phi", "a", "e", "residual"],
     (0.3, 0.2, 0.5, 2e-9), {"start": 0.0, "stop": 2e-9, "count": 2}),
    ([PLATE_WIRE, DIPOLE], ["b", "e"], (0.3, 0.0, 0.5), None),
]


def test_shared_points_give_the_unshared_stencil_values():
    # b, e and the residual come from the sources' own closed forms or
    # quadratures, and match the exterior3 route's differences of the
    # summed potentials within that route's truncation, seen as the
    # change from h to h / 2
    for sources, outputs, coords, time in SHARED_STENCIL_ROWS:
        scene = make_scene(sources, outputs, time=time)
        parts = fieldmap.build_parts(scene)
        row = row_dict(scene, fieldmap.compute_row(scene, parts, coords))
        assert row["status"] == "ok", outputs
        t = coords[3] if time else 0.0
        point = Point3(*coords[:3])
        h = scene.fd_step(point.norm())
        coarse = exterior3_columns(scene, parts, point, t, h)
        fine = exterior3_columns(scene, parts, point, t, 0.5 * h)
        if outputs == ["b", "e"]:
            # no source with a field: every b component is +0.0
            assert [repr(row[k]) for k in ("b_x", "b_y", "b_z")] == [
                "0.0", "0.0", "0.0"]
            for k in ("b_x", "b_y", "b_z"):
                del coarse[k], fine[k]
        for k, v in fine.items():
            trunc = abs(coarse[k] - v)
            assert abs(row[k] - v) <= 2.0 * trunc, (outputs, k)


def test_row_e_of_a_static_charge_is_the_coulomb_field():
    q = 1e-9
    charge = {"type": "point_charge", "q": q, "position": [0.0, 0.0, 0.0]}
    scene = make_scene([charge], ["e"])
    y = Point3(1.0, 2.0, -2.0)
    row = row_dict(scene, fieldmap.compute_row(
        scene, fieldmap.build_parts(scene), y.as_tuple()))
    assert row["status"] == "ok"
    e = Vec3(row["e_x"], row["e_y"], row["e_z"])
    r = y.norm()
    # the closed form, with no difference step: rounding alone
    assert e.norm() == pytest.approx(q / (4.0 * math.pi * EPS0 * r * r),
                                     rel=1e-14)
    # radially outward for a positive charge
    assert e.cross(y - Point3(0.0, 0.0, 0.0)).norm() < 1e-14 * e.norm() * r
    assert e.dot(y - Point3(0.0, 0.0, 0.0)) > 0.0


@pytest.mark.parametrize("outputs", [["a", "b", "residual"]],
                         ids=["a_x_in_divergence"])
def test_non_finite_stencil_potential_refuses_the_derivatives(outputs):
    # the loop differences its own a for the residual; its a_x is made
    # infinite at x + h only.  b comes from the sources and could be
    # written, the residual not, and the row writes neither
    scene = make_scene([LOOP, DIPOLE], outputs)
    coords = (0.5, 0.0, 0.3)
    bad = Point3(*coords).shifted(0, scene.fd_step(Point3(*coords).norm()))
    parts = fieldmap.build_parts(scene)
    inner = parts[0].evaluate

    def evaluate(y, t, want_b=False, want_e=False):
        res = inner(y, t, want_b, want_e)
        if y == bad:
            res.a = Vec3(math.inf, res.a.y, res.a.z)
        return res

    parts[0].evaluate = evaluate
    assert_derivatives_refused(scene, parts, coords)


def assert_derivatives_refused(scene, parts, coords):
    """The row at coords is on_support with every derivative column NaN,
    and its potentials are those of a clean row, which is ok."""
    row = row_dict(scene, fieldmap.compute_row(scene, parts, coords))
    clean = row_dict(scene, fieldmap.compute_row(
        scene, fieldmap.build_parts(scene), coords))
    assert clean["status"] == "ok"
    assert row["status"] == "on_support"
    derivatives = [k for k in row if k.split("_")[0] in ("b", "e", "residual")]
    assert derivatives and all(math.isnan(row[k]) for k in derivatives)
    potentials = [k for k in row if k.split("_")[0] in ("a", "phi")]
    assert potentials
    assert [row[k] for k in potentials] == [clean[k] for k in potentials]


@pytest.mark.parametrize("source, quantity", [
    (DIPOLE, "e"), (PLATE_WIRE, "e"), (MOVING_CHARGE, "e"),
    (MOVING_CHARGE, "gauge"),
], ids=["dipole_e", "plate_wire_e", "charge_e", "charge_gauge"])
def test_non_finite_closed_form_refuses_the_derivatives(source, quantity):
    # one component of a source's closed-form e or gauge terms is made
    # infinite: every derivative column is refused, b included
    scene = make_scene([LOOP, source], ["phi", "a", "b", "e", "residual"])
    coords = (0.5, 0.2, 0.3)
    parts = fieldmap.build_parts(scene)
    inner = parts[1].evaluate

    def evaluate(y, t, want_b=False, want_e=False):
        res = inner(y, t, want_b, want_e)
        if quantity == "e":
            res.e = Vec3(res.e.x, math.inf, res.e.z)
        else:
            res.gauge = res.gauge[:3] + (math.nan,)
        return res

    parts[1].evaluate = evaluate
    assert_derivatives_refused(scene, parts, coords)


def test_row_two_steps_from_a_loop_is_on_support():
    scene = make_scene([LOOP], ["a", "b"])
    x = 1.0 + 2.0 * scene.fd_step(1.0)
    parts, calls = counted_parts(scene)
    row = row_dict(scene, fieldmap.compute_row(scene, parts, (x, 0.0, 0.0)))
    assert row["status"] == "on_support"
    assert not math.isnan(row["a_y"])     # potential kept
    assert math.isnan(row["b_z"])         # derivative refused
    assert calls == [1]


@pytest.fixture
def scan_calls(monkeypatch):
    """Arguments of every magneto.min_distance_to_curve call."""
    calls = []
    inner = magneto.min_distance_to_curve

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(magneto, "min_distance_to_curve", counting)
    return calls


@pytest.mark.parametrize("sources, outputs, coords", [
    ([LOOP, HELIX, SOLENOID], ["a", "b"], (0.75, 0.0, 0.5)),
    ([SQUARE], ["a"], (2.5, 0.0, 0.3)),
], ids=["loop_helix_solenoid_a_b", "polyline_a"])
def test_rows_off_the_support_scan_no_curve(sources, outputs, coords,
                                            scan_calls):
    scene = make_scene(sources, outputs)
    row = fieldmap.compute_row(scene, fieldmap.build_parts(scene), coords)
    assert row[-1] == "ok"
    assert scan_calls == []


def test_row_two_steps_from_a_helix_wire_is_on_support(scan_calls):
    scene = make_scene([HELIX], ["a", "b"])
    h = scene.fd_step(0.0)     # the row point lies inside the unit ball
    a, p, s = HELIX["radius"], HELIX["pitch"], 5.0
    big_p = math.sqrt(1.0 - p * p) / a
    r = a + 2.0 * h
    coords = (r * math.cos(big_p * s), r * math.sin(big_p * s), p * s)
    row = row_dict(scene, fieldmap.compute_row(
        scene, fieldmap.build_parts(scene), coords))
    assert row["status"] == "on_support"
    assert not math.isnan(row["a_x"])     # potential kept
    assert math.isnan(row["b_z"])         # derivative refused
    assert scan_calls                     # the band could not clear it


def test_plate_wire_row_half_a_step_from_a_plate_is_ok():
    # no difference stencil leaves the gap: e_z is the closed form's,
    # within 1e-12 of the 60-digit derivative of the image sum
    scene = make_scene([PLATE_WIRE], ["phi", "e"])
    z = 1.0 - 0.5 * scene.fd_step(1.0)
    parts, calls = counted_parts(scene)
    row = row_dict(scene, fieldmap.compute_row(scene, parts, (0.3, 0.0, z)))
    assert row["status"] == "ok"
    assert calls == [1]
    with mpmath.workdps(60):
        z0, lam, gap = (mpmath.mpf(PLATE_WIRE[k])
                        for k in ("z0", "lambda", "gap"))
        k = mpmath.pi / gap
        q = mpmath.exp(-k * mpmath.mpf(0.3))

        def phi(u):
            # the image sum's closed form (1/4) ln(N / D)
            num = 1 - 2 * q * mpmath.cos(k * (u + z0)) + q * q
            den = 1 - 2 * q * mpmath.cos(k * (u - z0)) + q * q
            return lam / (4 * mpmath.pi * mpmath.mpf(EPS0)) * mpmath.log(
                num / den)

        e_z = -mpmath.diff(phi, mpmath.mpf(z))
        assert abs(mpmath.mpf(row["e_z"]) - e_z) <= 1e-12 * abs(e_z)


def test_loop_residual_row_is_within_its_stencil_noise():
    # the loop's own central differences of a: div a is 0 off the wire,
    # and the row leaves a residual far below its scale
    scene = make_scene([LOOP, DIPOLE], ["a", "residual"])
    for coords in ((0.5, 0.3, 0.3), (1.4, -0.7, 0.2), (0.1, 0.2, -1.5)):
        row = row_dict(scene, fieldmap.compute_row(
            scene, fieldmap.build_parts(scene), coords))
        assert row["status"] == "ok"
        assert row["residual_scale"] > 0.0
        assert abs(row["residual"]) <= 1e-4 * row["residual_scale"], coords


TIMED_SCENE = """\
schema: 1
sources:
  - type: plate_wire
    z0: 0.4
    lambda: 1.0e-9
    gap: 1.0
  - type: point_charge
    q: 1.0e-9
    position: [0.0, -1.0, 0.5]
    velocity: [3.0e+7, 6.0e+7, 0.0]
grid:
  x: {start: 0.2, stop: 0.6, count: 3}
  y: {start: 0.0, stop: 0.3, count: 2}
  z: 0.5
  time: {start: 0.0, stop: 2.0e-9, count: 2}
outputs: [phi, a, e, residual]
"""


def test_run_threads_write_identical_bytes(tmp_path):
    scene = tmp_path / "scene.yaml"
    scene.write_text(textwrap.dedent(TIMED_SCENE))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / ("map-%s.csv" % threads)
        assert cli.main(["run", "--scene", str(scene), "--out", str(out),
                         "--threads", threads]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("status", ["ok", "on_support", "unconverged",
                                    "out_of_domain"])
def test_csv_lines_are_the_formatted_values(status):
    # a row's floats are written by repr, its status as it stands: the
    # same line as format_value gives cell by cell
    rows = [[0.5, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300,
             -2.5e17, 0.1 + 0.2, 5e-324, -math.nan, status],
            [1.0, 2.0, status]]
    scene = make_scene([LOOP], ["a"])
    out = io.StringIO()
    fieldmap.write_csv(out, scene, ["x", "y"], rows)
    lines = out.getvalue().splitlines()[4:]
    assert lines == [",".join(fieldmap.format_value(v) for v in row)
                     for row in rows]
    assert lines[0].startswith("0.5,-0.0,0.0,nan,inf,-inf,")
