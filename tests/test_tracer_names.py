"""Every function the benchmark's per-layer tracer patches still exists.

`perfbench/tracer.py` replaces program functions by (module, attribute)
name; a refactor that moves one makes `--trace 1` fail at install, and
one that stops calling a name through its module makes that wrapper
read 0.  The names are read from the tracer's source with `ast`, so
this neither imports nor edits the benchmark.
"""

import ast
import csv
import importlib
import textwrap
from pathlib import Path

import pytest

from emsingular import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAPS"
                        for t in node.targets)):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no WRAPS list in %s" % TRACER)


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) >= 20
    missing = ["%s.%s" % (module, attr) for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def counted_run(tmp_path, monkeypatch, scene_text):
    """Run scene_text with every traced name counting its calls; the
    counts by traced name and the rows' statuses."""
    calls = {}
    for module, attr in traced_names():
        target = importlib.import_module(module)
        key = "%s.%s" % (module, attr)
        calls[key] = 0

        def counting(*args, _inner=getattr(target, attr), _key=key,
                     **kwargs):
            calls[_key] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(target, attr, counting)
    scene = tmp_path / "scene.yaml"
    scene.write_text(textwrap.dedent(scene_text))
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", str(scene), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    return calls, [r["status"] for r in rows]


def test_traced_names_count_every_source_evaluation(tmp_path, monkeypatch):
    # each ok timed row evaluates every source at its 9 stencil points;
    # a wrapper at a name the program no longer calls would read 0.
    # A point charge is evaluated from its present position: no row
    # solves for an emission time
    calls, statuses = counted_run(tmp_path, monkeypatch, """\
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
      - type: dipole
        position: [0.0, 1.0, 0.5]
        moment: [0.0, 0.0, 1.0e-12]
    grid:
      x: {start: 0.2, stop: 0.6, count: 3}
      y: {start: 0.0, stop: 0.3, count: 2}
      z: 0.5
      time: {start: 0.0, stop: 2.0e-9, count: 2}
    outputs: [phi, a, e, residual]
    """)
    assert statuses == ["ok"] * 12
    for name in ("emsingular.fields.electro.plate_wire_potential",
                 "emsingular.fields.electro.dipole_potential",
                 "emsingular.fields.retarded.lienard_wiechert"):
        assert calls[name] == 9 * 12, name
    assert calls["emsingular.fields.retarded.solve_retarded_time"] == 0
    # the wire's image series is summed in closed form
    assert calls["emsingular.fields.electro.sum_series"] == 0


def test_traced_names_count_every_magnetic_evaluation(tmp_path, monkeypatch):
    # each ok [a, b] row evaluates every source once, at the row point,
    # since each source gives its own b, and each loop, helix or sheet
    # evaluation runs its _core kernel once
    calls, statuses = counted_run(tmp_path, monkeypatch, """\
    schema: 1
    sources:
      - type: loop
        radius: 1.0
        current: 2.0
      - type: helix
        radius: 0.5
        pitch: 0.1
        length: 2.0
        current: 1.0
      - type: solenoid
        radius: 2.0
        pitch: 0.05
        length: 1.0
        kappa0: 3.0
      - type: polyline
        current: 1.5
        points: [[2.0, -0.5, 0.0], [3.0, -0.5, 0.0], [3.0, 0.5, 0.0],
                 [2.0, 0.5, 0.0], [2.0, -0.5, 0.0]]
    grid:
      x: {start: 0.75, stop: 1.25, count: 2}
      y: 0.0
      z: {start: 0.3, stop: 0.5, count: 2}
    outputs: [a, b]
    """)
    assert statuses == ["ok"] * 4
    prefix = "emsingular.fields.magneto."
    for name in ("loop_potential", "helix_potential", "solenoid_potential",
                 "curve_potential", "loop_phi_integral", "helix_integrals",
                 "solenoid_integrals"):
        assert calls[prefix + name] == 4, name
    assert calls["emsingular.fieldmap.compute_row"] == 4
    for name in ("emsingular.cli.load_scene",
                 "emsingular.fieldmap.build_parts",
                 "emsingular.fieldmap.write_csv"):
        assert calls[name] == 1, name


def test_traced_names_count_every_polyline_evaluation(tmp_path, monkeypatch):
    # closed circuits as the benchmark draws them, each closed by
    # repeating its first vertex, with [a] only: each row evaluates
    # every polyline once in closed form, with no chart quadrature, no
    # free kernel and no sampled scan of the curve
    calls, statuses = counted_run(tmp_path, monkeypatch, """\
    schema: 1
    sources:
      - type: polyline
        current: 1.5
        points: [[2.0, -0.5, 0.0], [3.0, -0.5, 0.0], [3.0, 0.5, 0.0],
                 [2.0, 0.5, 0.0], [2.0, -0.5, 0.0]]
      - type: polyline
        current: -0.8
        points: [[-1.0, 0.2, 0.4], [-0.6, 0.9, 0.5], [-1.4, 1.1, 0.3],
                 [-1.0, 0.2, 0.4]]
    grid:
      x: {start: 0.0, stop: 1.0, count: 3}
      y: {start: -1.0, stop: 1.0, count: 2}
      z: 0.25
    outputs: [a]
    """)
    assert statuses == ["ok"] * 6
    assert calls["emsingular.fields.magneto.curve_potential"] == 6 * 2
    for name in ("emsingular.fields.magneto.integrate_adaptive",
                 "emsingular.kernels.free_kernel",
                 "emsingular.fields.magneto.min_distance_to_curve"):
        assert calls[name] == 0, name


@pytest.mark.parametrize("x, scans", [(0.502, 1), (0.9, 0)])
def test_helix_scan_runs_only_for_the_near_guard(tmp_path, monkeypatch, x,
                                                 scans):
    # 2 mm from the helix's band, within 3 h = 3 mm of it, the guard
    # that refuses derivatives scans the wire once; the row's one
    # evaluation stays far outside the on-support floor, so it never
    # scans, and a row far from the band does not scan at all
    calls, statuses = counted_run(tmp_path, monkeypatch, """\
    schema: 1
    sources:
      - type: helix
        radius: 0.5
        pitch: 0.1
        length: 2.0
        current: 1.0
    grid:
      x: %r
      y: 0.0
      z: 0.1
    outputs: [a, b]
    """ % x)
    assert statuses == ["ok"]
    assert calls["emsingular.fields.magneto.helix_potential"] == 1
    assert calls["emsingular.fields.magneto.min_distance_to_curve"] == scans
