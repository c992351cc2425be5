"""fieldmap.compute_row: source evaluations per row, statuses, determinism.

Every distinct stencil point of a row is evaluated once: the point
itself, +-h on each axis, and t +- dt when the scene is timed.  The
counts below are per source and per row.
"""

import math
import textwrap

import pytest

from emsingular import cli, fieldmap
from emsingular.fields import magneto, retarded
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


def make_scene(sources, outputs, x=0.5, y=0.0, z=0.5, time=None):
    raw = {"schema": 1, "sources": sources, "outputs": outputs,
           "grid": {"x": x, "y": y, "z": z, "time": time}}
    data = validate_scene(raw)
    return Scene(data, scene_hash(data))


def counted_parts(scene):
    """Parts whose evaluate() counts its calls in calls[i]."""
    parts = fieldmap.build_parts(scene)
    calls = [0] * len(parts)
    for i, part in enumerate(parts):
        def counting(y, t, _inner=part.evaluate, _i=i):
            calls[_i] += 1
            return _inner(y, t)
        part.evaluate = counting
    return parts, calls


def row_dict(scene, row):
    return dict(zip(fieldmap.column_names(scene), row))


@pytest.mark.parametrize("sources, outputs, coords, expected", [
    ([LOOP, SQUARE], ["a"], (0.5, 0.0, 0.3), 1),
    ([LOOP, SQUARE], ["a", "b"], (0.5, 0.0, 0.3), 7),
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


def test_shared_points_give_the_unshared_stencil_values():
    # b from derive_b over a plain, uncached sum of the parts
    scene = make_scene([LOOP, SQUARE], ["a", "b"])
    parts = fieldmap.build_parts(scene)
    point = Point3(0.5, 0.0, 0.3)
    h = scene.fd_step(point.norm())

    def a_sum(p):
        a = Vec3(0.0, 0.0, 0.0)
        for part in parts:
            a = a + part.evaluate(p, 0.0)[0]
        return a

    b = magneto.derive_b(a_sum, h)(point)
    row = row_dict(scene, fieldmap.compute_row(scene, parts, point.as_tuple()))
    assert (row["b_x"], row["b_y"], row["b_z"]) == (b.x, b.y, b.z)


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
