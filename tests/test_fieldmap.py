"""fieldmap.compute_row: source evaluations per row, statuses, determinism.

Every source gives b itself, at the row point, so an [a, b] row makes
one evaluation.  e and the residual difference the potentials: every
distinct stencil point of such a row is evaluated once, the point
itself, +-h on each axis, and t +- dt when the scene is timed.  The
counts below are per source and per row.
"""

import math
import textwrap

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
    ([LOOP, SQUARE], ["a"], (0.5, 0.0, 0.3), 1),
    ([LOOP, SQUARE], ["a", "b"], (0.5, 0.0, 0.3), 1),
    ([PLATE_WIRE, DIPOLE], ["phi", "e", "residual"], (0.3, 0.0, 0.5), 7),
], ids=["a", "a_b", "static_phi_e_residual"])
def test_static_rows_evaluate_each_stencil_point_once(sources, outputs,
                                                      coords, expected):
    scene = make_scene(sources, outputs)
    parts, calls = counted_parts(scene)
    row = fieldmap.compute_row(scene, parts, coords)
    assert row[-1] == "ok"
    assert calls == [expected] * len(parts)


def test_timed_row_evaluates_nine_points():
    scene = make_scene([PLATE_WIRE, MOVING_CHARGE, DIPOLE],
                       ["phi", "a", "e", "residual"],
                       time={"start": 0.0, "stop": 2e-9, "count": 2})
    parts, calls = counted_parts(scene)
    row = fieldmap.compute_row(scene, parts, (0.3, 0.2, 0.5, 2e-9))
    assert row[-1] == "ok"
    assert calls == [9, 9, 9]


def test_point_charge_bound_runs_at_the_row_point_only(monkeypatch):
    # the rounding bound costs more than the potentials and only the
    # row point's error is written, so the stencil's 8 points skip it
    calls = []
    bound = retarded.rounding_bound

    def counting(src, y, t, res, medium):
        calls.append((y.as_tuple(), t))
        return bound(src, y, t, res, medium)

    monkeypatch.setattr(retarded, "rounding_bound", counting)
    scene = make_scene([PLATE_WIRE, MOVING_CHARGE, DIPOLE],
                       ["phi", "a", "e", "residual"],
                       time={"start": 0.0, "stop": 2e-9, "count": 2})
    parts = fieldmap.build_parts(scene)
    point = (0.3, 0.2, 0.5)
    row = row_dict(scene, fieldmap.compute_row(scene, parts, point + (2e-9,)))
    assert row["status"] == "ok"
    assert calls == [(point, 2e-9)]
    src = uniform_point_charge(1e-9, Point3(0.0, -1.0, 0.5),
                               Vec3(3e7, 6e7, 0.0))
    res = retarded.lienard_wiechert(src, Point3(*point), 2e-9)
    assert row["quad_error"] >= bound(src, Point3(*point), 2e-9, res,
                                      scene.medium)[0] > 0.0


@pytest.mark.parametrize("source", [
    LOOP, HELIX, SOLENOID, SQUARE, PLATE_WIRE, MOVING_CHARGE, DIPOLE,
], ids=lambda s: s["type"])
def test_one_source_row_writes_its_error(source):
    # quad_error of a one-source ok row is that source's own error
    # (a point charge's from rounding_bound), and no kind leaves it 0
    scene = make_scene([source], ["phi", "a"])
    (part,) = fieldmap.build_parts(scene)
    point = Point3(0.3, 0.2, 0.6)     # off the dipole's equatorial plane
    row = row_dict(scene, fieldmap.compute_row(scene, [part],
                                               point.as_tuple()))
    assert row["status"] == "ok"
    res = part.evaluate(point, 0.0)
    if source is MOVING_CHARGE:
        src = uniform_point_charge(source["q"], Point3(*source["position"]),
                                   Vec3(*source["velocity"]))
        want = retarded.rounding_bound(src, point, 0.0, res, scene.medium)[0]
    else:
        want = res.error
    assert row["quad_error"] == want > 0.0


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


def exterior3_columns(scene, parts, point, t):
    """b, e and residual columns by the exterior3 route (derive_b,
    d_numeric, codifferential) over a plain, uncached sum of the parts'
    potentials."""
    medium = scene.medium
    h = scene.fd_step(point.norm())
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
    # e and the residual match the exterior3 route bit for bit; b comes
    # from the sources and matches the curl of the summed a within the
    # stencil's truncation, seen as the change from h to h / 2
    for sources, outputs, coords, time in SHARED_STENCIL_ROWS:
        scene = make_scene(sources, outputs, time=time)
        parts = fieldmap.build_parts(scene)
        row = row_dict(scene, fieldmap.compute_row(scene, parts, coords))
        assert row["status"] == "ok", outputs
        t = coords[3] if time else 0.0
        point = Point3(*coords[:3])
        expected = exterior3_columns(scene, parts, point, t)
        b_cols = ("b_x", "b_y", "b_z")
        curl = {k: expected.pop(k) for k in b_cols if k in expected}
        # repr tells signed zeros apart
        assert {k: repr(row[k]) for k in expected} == {
            k: repr(v) for k, v in expected.items()}, outputs
        if outputs == ["b", "e"]:
            # no source with a field: every b component is +0.0
            assert [repr(row[k]) for k in b_cols] == ["0.0", "0.0", "0.0"]
        elif curl:
            h = scene.fd_step(point.norm())
            half = magneto.derive_b(
                lambda p: sum((part.evaluate(p, t).a for part in parts),
                              Vec3(0.0, 0.0, 0.0)), 0.5 * h)(point)
            trunc = max(abs(curl[k] - v)
                        for k, v in zip(b_cols, half.as_tuple()))
            assert trunc > 0.0
            for k, v in zip(b_cols, half.as_tuple()):
                assert abs(row[k] - v) <= 2.0 * trunc, k


def test_row_e_of_a_static_charge_is_the_coulomb_field():
    q = 1e-9
    charge = {"type": "point_charge", "q": q, "position": [0.0, 0.0, 0.0]}
    scene = make_scene([charge], ["e"], fd_step=1e-5)
    y = Point3(1.0, 2.0, -2.0)
    row = row_dict(scene, fieldmap.compute_row(
        scene, fieldmap.build_parts(scene), y.as_tuple()))
    assert row["status"] == "ok"
    e = Vec3(row["e_x"], row["e_y"], row["e_z"])
    r = y.norm()
    assert e.norm() == pytest.approx(q / (4.0 * math.pi * EPS0 * r * r),
                                     rel=1e-7)
    # radially outward for a positive charge
    assert e.cross(y - Point3(0.0, 0.0, 0.0)).norm() < 1e-7 * e.norm() * r
    assert e.dot(y - Point3(0.0, 0.0, 0.0)) > 0.0


@pytest.mark.parametrize("outputs, component", [
    (["a", "b", "residual"], "a_x"),
    (["phi", "b", "e", "residual"], "phi"),
], ids=["a_x_in_divergence", "phi_in_gradient"])
def test_non_finite_stencil_potential_refuses_the_derivatives(outputs,
                                                              component):
    # the loop's potential is made infinite at x + h only; b comes from
    # the sources and could be written, the differenced columns not,
    # and the row writes none of them
    scene = make_scene([LOOP, DIPOLE], outputs)
    coords = (0.5, 0.0, 0.3)
    bad = Point3(*coords).shifted(0, scene.fd_step(Point3(*coords).norm()))
    parts = fieldmap.build_parts(scene)
    inner = parts[0].evaluate

    def evaluate(y, t, want_b=False):
        res = inner(y, t, want_b)
        if y == bad and component == "a_x":
            res.a = Vec3(math.inf, res.a.y, res.a.z)
        elif y == bad:
            res.phi = math.inf
        return res

    parts[0].evaluate = evaluate
    row = row_dict(scene, fieldmap.compute_row(scene, parts, coords))
    clean = row_dict(scene, fieldmap.compute_row(
        scene, fieldmap.build_parts(scene), coords))
    assert clean["status"] == "ok"
    assert row["status"] == "on_support"
    derivatives = [k for k in row if k.split("_")[0] in ("b", "e", "residual")]
    assert derivatives and all(math.isnan(row[k]) for k in derivatives)
    potentials = [k for k in row if k.split("_")[0] in ("a", "phi")]
    assert [row[k] for k in potentials] == [clean[k] for k in potentials]


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


def test_plate_wire_stencil_leaving_the_gap_is_out_of_domain():
    scene = make_scene([PLATE_WIRE], ["phi", "e"])
    z = 1.0 - 0.5 * scene.fd_step(1.0)
    parts, _ = counted_parts(scene)
    row = row_dict(scene, fieldmap.compute_row(scene, parts, (0.3, 0.0, z)))
    assert row["status"] == "out_of_domain"
    assert not math.isnan(row["phi"])
    assert math.isnan(row["e_z"])


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
