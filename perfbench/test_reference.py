"""Tests of the benchmark's reference computations and of its checker.

    python3 -m pytest perfbench/test_reference.py

Each reference is held to a textbook limit or to a second, independent
route; the checker must accept the program's own map and reject the same
map with one value perturbed.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import check
import reference as ref
import scenes
import tracer

ROOT = Path(__file__).resolve().parent.parent
MU0, EPS0, C0 = ref.MU0, ref.EPS0, ref.C0


def one(fn, src, p, t=0.0):
    return fn(src, np.array([p], dtype=float), np.array([t]))


def curl_fd(fn, src, p, h=1e-5):
    grad = np.zeros((3, 3))
    for k in range(3):
        e = np.eye(3)[k] * h
        grad[k] = (one(fn, src, p + e)["a"][0] - one(fn, src, p - e)["a"][0]) / (2 * h)
    return np.array([grad[1, 2] - grad[2, 1], grad[2, 0] - grad[0, 2],
                     grad[0, 1] - grad[1, 0]])


def grad_phi_fd(fn, src, p, t=0.0, h=1e-6):
    return np.array([(one(fn, src, p + np.eye(3)[k] * h, t)["phi"][0]
                      - one(fn, src, p - np.eye(3)[k] * h, t)["phi"][0])
                     / (2 * h) for k in range(3)])


# ------------------------------------------------------------------- loop

LOOP = {"type": "loop", "radius": 1.3, "current": 2.5, "center_z": 0.2}


def test_loop_on_axis_field():
    for z in (-1.0, 0.2, 0.9, 3.0):
        got = one(ref.loop, LOOP, [0.0, 0.0, z])
        dz = z - 0.2
        want = MU0 * 2.5 * 1.3 ** 2 / (2.0 * (1.3 ** 2 + dz * dz) ** 1.5)
        assert got["b"][0, 2] == pytest.approx(want, rel=1e-13)
        assert np.all(got["a"][0] == 0.0)


def test_loop_far_field_is_a_dipole():
    m = 2.5 * math.pi * 1.3 ** 2
    for theta in (0.3, 1.0, 2.2):
        r = 400.0
        p = np.array([r * math.sin(theta), 0.0, 0.2 + r * math.cos(theta)])
        a_phi = one(ref.loop, LOOP, p)["a"][0, 1]
        dipole = MU0 * m * math.sin(theta) / (4.0 * math.pi * r * r)
        assert a_phi == pytest.approx(dipole, rel=1e-4)


def test_loop_small_m_series_matches_closed_form():
    m = np.array([0.05, 0.2, 0.29])
    from scipy.special import ellipe, ellipk
    K, E = ellipk(m), ellipe(m)
    series = ref._bracket(m, K, E)
    direct = (1.0 - 0.5 * m) * K - E
    assert np.allclose(series, direct, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("p", [[1.7, 0.3, 0.9], [0.4, -0.2, 1.6],
                               [-1.2, 1.0, -0.4]])
def test_loop_b_is_curl_a(p):
    p = np.array(p)
    b = one(ref.loop, LOOP, p)["b"][0]
    assert np.allclose(curl_fd(ref.loop, LOOP, p), b, rtol=1e-7,
                       atol=1e-9 * np.abs(b).max())


# --------------------------------------------------------------- solenoid

def test_long_solenoid_interior_and_azimuthal_field():
    sheet = {"type": "solenoid", "radius": 0.5, "pitch": 0.05,
             "length": 400.0, "kappa0": 20.0}
    mid = one(ref.solenoid, sheet, [0.1, 0.05, 200.0])
    k_phi = 20.0 * math.sqrt(1.0 - 0.05 ** 2)
    assert mid["b"][0, 2] == pytest.approx(MU0 * k_phi, rel=1e-5)
    # outside, the axial current I = kappa0 p 2 pi a circulates b_phi;
    # the far ends take a share of order rho^2 / length^2 = 1e-5
    out = one(ref.solenoid, sheet, [0.9, 0.0, 200.0])
    axial = 20.0 * 0.05 * 2.0 * math.pi * 0.5
    assert out["b"][0, 1] == pytest.approx(MU0 * axial / (2 * math.pi * 0.9),
                                           rel=1e-4)
    assert abs(out["b"][0, 2]) < 1e-4 * MU0 * k_phi


def test_short_solenoid_is_a_loop():
    length = 1e-4
    sheet = {"type": "solenoid", "radius": 1.3, "pitch": 0.0,
             "length": length, "kappa0": 2.5 / length}
    loop = dict(LOOP, center_z=0.5 * length)
    for p in ([2.0, 0.1, 0.7], [0.3, 0.4, -0.5]):
        s, l = one(ref.solenoid, sheet, p), one(ref.loop, loop, p)
        assert np.allclose(s["a"], l["a"], rtol=1e-7, atol=0.0)
        assert np.allclose(s["b"], l["b"], rtol=1e-7, atol=1e-12)


@pytest.mark.parametrize("p", [[1.2, 0.3, 0.5], [0.4, -0.1, 1.3],
                               [1.05, 0.0, 0.6]])
def test_solenoid_b_is_curl_a(p):
    sheet = {"type": "solenoid", "radius": 1.0, "pitch": 0.3,
             "length": 1.1, "kappa0": 30.0}
    p = np.array(p)
    b = one(ref.solenoid, sheet, p)["b"][0]
    assert np.allclose(curl_fd(ref.solenoid, sheet, p), b, rtol=1e-6,
                       atol=1e-8 * np.abs(b).max())


# ------------------------------------------------------------------ helix

def test_flat_helix_turn_is_a_loop():
    pitch = 1e-6
    big_p = math.sqrt(1.0 - pitch ** 2) / 1.3
    helix = {"type": "helix", "radius": 1.3, "pitch": pitch,
             "length": 2.0 * math.pi / big_p, "current": 2.5, "sigma0": 0.0}
    loop = dict(LOOP, center_z=0.0)
    for p in ([2.0, 0.5, 0.7], [0.3, -0.4, -0.5]):
        h, l = one(ref.helix, helix, p), one(ref.loop, loop, p)
        assert np.allclose(h["a"][0, :2], l["a"][0, :2], rtol=1e-5)
        assert np.allclose(h["b"], l["b"], rtol=1e-5, atol=1e-5 * np.abs(l["b"]).max())


def test_helix_b_is_curl_a():
    helix = {"type": "helix", "radius": 0.5, "pitch": 0.08, "length": 14.0,
             "current": 2.0, "sigma0": -3.0}
    for p in ([0.55, 0.1, 0.3], [0.2, 0.1, -0.1]):
        p = np.array(p)
        b = one(ref.helix, helix, p)["b"][0]
        assert np.allclose(curl_fd(ref.helix, helix, p), b, rtol=1e-6,
                           atol=1e-8 * np.abs(b).max())


def test_helix_distance():
    helix = {"type": "helix", "radius": 0.5, "pitch": 0.08, "length": 14.0,
             "current": 2.0, "sigma0": -3.0}
    s = 2.345
    on = ref.helix_point(helix, np.array([s]))[0]
    out = on * np.array([1.1, 1.1, 1.0])      # 5 cm radially outward
    assert ref.helix_distance(helix, out[None, :])[0] == pytest.approx(
        0.05, abs=1e-6)


# --------------------------------------------------------------- polyline

def test_long_segment_is_an_infinite_wire():
    wire = {"type": "polyline", "points": [[0, 0, -1e4], [0, 0, 1e4]],
            "current": 3.0}
    a1 = one(ref.polyline, wire, [0.2, 0.0, 1.0])["a"][0, 2]
    a2 = one(ref.polyline, wire, [0.0, 0.7, -2.0])["a"][0, 2]
    assert a1 - a2 == pytest.approx(MU0 * 3.0 / (2 * math.pi)
                                    * math.log(0.7 / 0.2), rel=1e-9)


def test_segment_closed_form_matches_dense_quadrature():
    p0, p1 = np.array([0.1, -0.3, 0.2]), np.array([0.9, 0.4, -0.1])
    y = np.array([[0.5, 0.2, 0.35], [2.0, -1.0, 0.0]])
    val, _ = ref.segment_integral(p0, p1, y)
    s, w = ref.uniform_rule(0.0, 1.0, 0.01)
    length = np.linalg.norm(p1 - p0)
    pts = p0 + s[:, None] * (p1 - p0)
    for i in range(2):
        brute = length * np.sum(w / np.linalg.norm(y[i] - pts, axis=1))
        assert val[i] == pytest.approx(brute, rel=1e-12)


def test_square_circuit_far_field_is_a_dipole():
    corners = [[0.5, -0.5, 0], [0.5, 0.5, 0], [-0.5, 0.5, 0],
               [-0.5, -0.5, 0], [0.5, -0.5, 0]]
    square = {"type": "polyline", "points": corners, "current": 2.0}
    y = np.array([300.0, 0.0, 200.0])
    got = one(ref.polyline, square, y)["a"][0]
    m = np.array([0.0, 0.0, 2.0])      # I times unit area, counterclockwise
    want = MU0 / (4 * math.pi) * np.cross(m, y) / np.linalg.norm(y) ** 3
    assert np.allclose(got, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())


def test_closed_flag_appends_the_return_leg():
    open_chain = {"type": "polyline", "current": 1.0,
                  "points": [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [1, 0, 0]]}
    closed = dict(open_chain, points=open_chain["points"][:-1], closed=True)
    p = [0.1, 0.2, 0.5]
    assert np.allclose(one(ref.polyline, open_chain, p)["a"],
                       one(ref.polyline, closed, p)["a"], rtol=1e-14)


# ------------------------------------------------------------- plate wire

WIRE = {"type": "plate_wire", "z0": 0.4, "lambda": 1e-9, "gap": 1.0}


def test_plate_wire_vanishes_on_the_plates():
    for x in (0.05, 0.3, 2.0):
        for z in (0.0, 1.0):
            assert abs(one(ref.plate_wire, WIRE, [x, 0.0, z])["phi"][0]) < 1e-12


def test_plate_wire_near_field_is_a_free_line_charge():
    # both points on the wire's plane of symmetry z = z0, where the
    # images' field has no first-order term
    p1 = one(ref.plate_wire, WIRE, [1e-4, 0.0, 0.4])["phi"][0]
    p2 = one(ref.plate_wire, WIRE, [-3e-4, 0.0, 0.4])["phi"][0]
    free = 1e-9 / (2 * math.pi * EPS0) * math.log(3.0)
    assert p1 - p2 == pytest.approx(free, rel=1e-6)


def test_plate_wire_matches_its_image_series():
    for x, z in ((0.3, 0.7), (0.05, 0.2), (1.5, 0.5)):
        n = np.arange(1, 200001)
        q = math.exp(-math.pi * x)
        terms = q ** n / n * np.sin(n * math.pi * 0.4) * np.sin(n * math.pi * z)
        series = 1e-9 / (math.pi * EPS0) * math.fsum(terms)
        got = one(ref.plate_wire, WIRE, [x, 0.3, z])["phi"][0]
        assert got == pytest.approx(series, rel=1e-12)


@pytest.mark.parametrize("p", [[0.3, 0.1, 0.7], [-0.05, 0.0, 0.45],
                               [1.2, -2.0, 0.1]])
def test_plate_wire_e_is_minus_grad_phi(p):
    p = np.array(p)
    e = one(ref.plate_wire, WIRE, p)["e"][0]
    assert np.allclose(-grad_phi_fd(ref.plate_wire, WIRE, p), e, rtol=1e-6,
                       atol=1e-8 * np.abs(e).max())


# ---------------------------------------------------------- moving charge

CHARGE = {"type": "point_charge", "q": 1e-10, "position": [0.1, 0.2, 0.3],
          "velocity": [1.2e8, -0.6e8, 0.5e8]}


def test_static_charge_is_coulomb():
    static = dict(CHARGE, velocity=[0.0, 0.0, 0.0])
    y = np.array([0.7, -0.4, 1.1])
    got = one(ref.point_charge, static, y, 3e-9)
    r = y - np.array(static["position"])
    k = 1e-10 / (4 * math.pi * EPS0)
    assert got["phi"][0] == pytest.approx(k / np.linalg.norm(r), rel=1e-15)
    assert np.allclose(got["e"][0], k * r / np.linalg.norm(r) ** 3,
                       rtol=1e-14)
    assert np.all(got["a"] == 0.0)


def test_moving_charge_matches_lienard_wiechert():
    v = np.array(CHARGE["velocity"])
    x0 = np.array(CHARGE["position"])
    y, t = np.array([0.8, -0.5, 0.9]), 2e-9
    lo, hi = t - 1e-6, t                      # bisect t' + |y - x(t')|/c = t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + np.linalg.norm(y - x0 - v * mid) / C0 < t:
            lo = mid
        else:
            hi = mid
    sep = y - x0 - v * lo
    r = np.linalg.norm(sep)
    doppler = 1.0 / (1.0 - sep @ v / (r * C0))
    phi_lw = 1e-10 / (4 * math.pi * EPS0 * r) * doppler
    got = one(ref.point_charge, CHARGE, y, t)
    assert got["phi"][0] == pytest.approx(phi_lw, rel=1e-12)
    assert np.allclose(got["a"][0], phi_lw * v / C0 ** 2, rtol=1e-12)


def test_moving_charge_e_from_potentials():
    y, t, h = np.array([0.8, -0.5, 0.9]), 2e-9, 1e-6
    dt = h / C0
    got = one(ref.point_charge, CHARGE, y, t)["e"][0]
    a_dot = (one(ref.point_charge, CHARGE, y, t + dt)["a"][0]
             - one(ref.point_charge, CHARGE, y, t - dt)["a"][0]) / (2 * dt)
    fd = -grad_phi_fd(ref.point_charge, CHARGE, y, t, h) - a_dot
    assert np.allclose(fd, got, rtol=1e-6, atol=1e-8 * np.abs(got).max())


# ----------------------------------------------------------------- dipole

def test_dipole_is_the_limit_of_a_charge_pair():
    d, q = 1e-4, 1e-6
    dip = {"type": "dipole", "position": [0.0, 0.0, 0.0],
           "moment": [0.0, 0.0, q * d]}
    plus = dict(CHARGE, q=q, position=[0, 0, d / 2], velocity=[0, 0, 0])
    minus = dict(plus, q=-q, position=[0, 0, -d / 2])
    y = np.array([0.3, -0.2, 0.4])
    pair = one(ref.point_charge, plus, y)["phi"] + one(
        ref.point_charge, minus, y)["phi"]
    assert one(ref.dipole, dip, y)["phi"][0] == pytest.approx(pair[0],
                                                               rel=1e-6)
    e = one(ref.dipole, dip, y)["e"][0]
    assert np.allclose(-grad_phi_fd(ref.dipole, dip, y), e, rtol=1e-6)


# ---------------------------------------------------------------- checker

def _small_map(workload):
    """A 2-points-per-axis cut of the seed-0 scene and the program's map."""
    sys.path.insert(0, str(ROOT / "src"))
    from emsingular import cli

    scene = copy.deepcopy(scenes.make_scene(workload, 0))
    for axis in scene["grid"].values():
        axis["count"] = 2
    return scene, cli


@pytest.fixture(scope="module", params=scenes.WORKLOADS)
def program_map(request, tmp_path_factory):
    scene, cli = _small_map(request.param)
    tmp = tmp_path_factory.mktemp(request.param)
    (tmp / "scene.yaml").write_text(yaml.safe_dump(scene, sort_keys=False))
    assert cli.main(["run", "--scene", str(tmp / "scene.yaml"),
                     "--out", str(tmp / "map.csv")]) == 0
    return scene, (tmp / "map.csv").read_text()


def _perturb(text, column, row, change):
    """The map with one cell moved by change[1] times the size of its
    quantity in that row (the largest of its columns named change[0]),
    or by change[1] itself when no columns are named."""
    lines = text.splitlines()
    header = lines[3].split(",")
    cells = lines[4 + row].split(",")
    prefix, amount = change
    scale = 1.0 if prefix is None else max(
        abs(float(c)) for name, c in zip(header, cells)
        if name.startswith(prefix))
    k = header.index(column)
    cells[k] = repr(float(cells[k]) + amount * scale)
    lines[4 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checker_accepts_the_program_map(program_map):
    scene, text = program_map
    rows, not_ok, problems, _ = check.check_map(scene, text)
    assert problems == [] and not_ok == 0 and rows == len(
        scenes.grid_rows(scene))


CHANGES = {"a_x": ("a_", 1e-4), "phi": ("phi", 1e-5), "b_z": ("b_", 1e-2),
           "e_x": ("e_", 1e-2), "residual": ("residual_scale", 1e-2),
           "x": (None, 1e-9)}


@pytest.mark.parametrize("column", sorted(CHANGES))
def test_checker_rejects_a_perturbed_row(program_map, column):
    scene, text = program_map
    if column not in check.expected_columns(scene):
        pytest.skip("%s not an output of this workload" % column)
    bad = _perturb(text, column, 3, CHANGES[column])
    _, _, problems, _ = check.check_map(scene, bad)
    assert problems, "perturbed %s went unnoticed" % column


def test_traced_metrics_are_listed_in_benchmark_json():
    import json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER]
