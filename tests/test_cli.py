"""End-to-end CLI behavior: validate, run, selfcheck, exit codes.

Scenes are written to tmp_path as literal YAML so the tests exercise
the same parsing path a user hits.  Determinism matters here: two runs
of the same scene must produce byte-identical CSV, threaded or not.
"""

import ast
import csv
import json
import textwrap
from pathlib import Path

import pytest
import yaml

from emsingular import cli, fieldmap
from emsingular import scene as scene_mod
from emsingular import selfcheck as selfcheck_mod
from emsingular.selfcheck import CheckResult

LOOP_SCENE = """\
schema: 1
sources:
  - type: loop
    radius: 1.0
    current: 2.0
grid:
  x: {start: 1.5, stop: 2.5, count: 3}
  y: 0.0
  z: 0.4
outputs: [a, b]
"""

TWO_LOOPS = """\
schema: 1
sources:
  - type: loop
    radius: 1.0
    current: 2.0
  - type: loop
    radius: 0.7
    current: -1.3
    center_z: 0.2
grid:
  x: {start: 1.6, stop: 2.2, count: 2}
  y: 0.0
  z: 0.5
outputs: [a]
"""


def write_scene(tmp_path, text, name="scene.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_rows(path):
    """CSV body as a list of dicts, comment header stripped."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ------------------------------------------------------------- validate

def test_validate_prints_hash_and_derived(tmp_path, capsys):
    scene = write_scene(tmp_path, LOOP_SCENE)
    assert cli.main(["validate", "--scene", scene]) == 0
    out = capsys.readouterr().out
    assert "scene_hash: " in out
    assert "rows: 3" in out
    # loop coupling in the 4*pi*mu0*I*a normalization
    assert "sources[0] loop coupling" in out


def test_validate_unknown_key_names_the_path(tmp_path, capsys):
    scene = write_scene(tmp_path, LOOP_SCENE.replace(
        "current: 2.0", "current: 2.0\n    wobble: 3"))
    assert cli.main(["validate", "--scene", scene]) == 1
    err = capsys.readouterr().err
    assert "sources[0].wobble" in err


def test_boolean_max_subdivisions_refused(tmp_path, capsys):
    # a YAML boolean is an int to Python; it would run with one panel
    scene = write_scene(tmp_path, LOOP_SCENE + "quadrature:\n"
                        "  max_subdivisions: true\n")
    assert cli.main(["validate", "--scene", scene]) == 1
    assert "quadrature.max_subdivisions" in capsys.readouterr().err
    scene = write_scene(tmp_path, LOOP_SCENE + "quadrature:\n"
                        "  max_subdivisions: 50\n", name="fifty.yaml")
    assert cli.main(["validate", "--scene", scene]) == 0
    capsys.readouterr()
    out = str(tmp_path / "map.csv")
    assert cli.main(["run", "--scene", scene, "--out", out,
                     "--set", "quadrature.max_subdivisions=true"]) == 1
    assert "quadrature.max_subdivisions" in capsys.readouterr().err


def test_grid_axis_whose_span_overflows_refused(tmp_path, capsys):
    # both ends are finite, but stop - start is inf: the rows between
    # would sit at inf or nan
    scene = write_scene(tmp_path, LOOP_SCENE.replace(
        "x: {start: 1.5, stop: 2.5, count: 3}",
        "x: {start: -1.7e308, stop: 1.7e308, count: 2}"))
    assert cli.main(["validate", "--scene", scene]) == 1
    assert "grid.x" in capsys.readouterr().err
    scene = write_scene(tmp_path, LOOP_SCENE.replace(
        "x: {start: 1.5, stop: 2.5, count: 3}",
        "x: {start: -1.7e308, stop: 1.7e308, count: 1}"), name="one.yaml")
    assert cli.main(["validate", "--scene", scene]) == 0


def test_validate_missing_file(tmp_path, capsys):
    assert cli.main(["validate", "--scene", str(tmp_path / "nope.yaml")]) == 1
    assert "cannot read scene file" in capsys.readouterr().err


def test_override_changes_hash(tmp_path, capsys):
    scene = write_scene(tmp_path, LOOP_SCENE)
    cli.main(["validate", "--scene", scene])
    base = capsys.readouterr().out

    cli.main(["validate", "--scene", scene,
              "--set", "sources.0.current=3.5"])
    bumped = capsys.readouterr().out

    def grab(out):
        return [ln for ln in out.splitlines()
                if ln.startswith("scene_hash:")][0]

    assert grab(base) != grab(bumped)
    assert "current: 3.5" in bumped


def test_override_bad_path_fails(tmp_path, capsys):
    scene = write_scene(tmp_path, LOOP_SCENE)
    assert cli.main(["validate", "--scene", scene,
                     "--set", "sources.5.current=1"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_override_not_an_assignment(tmp_path, capsys):
    scene = write_scene(tmp_path, LOOP_SCENE)
    assert cli.main(["validate", "--scene", scene, "--set", "oops"]) == 1
    assert "path=value" in capsys.readouterr().err


def test_malformed_yaml_refused_with_its_position(tmp_path, capsys):
    # the flow sequence opened on line 2, column 10 is never closed
    scene = write_scene(tmp_path, LOOP_SCENE.replace(
        "sources:\n  - type: loop\n    radius: 1.0\n    current: 2.0\n",
        "sources: [{type: loop, radius: 1.0, current: 2.0}\n"))
    assert cli.main(["validate", "--scene", scene]) == 1
    err = capsys.readouterr().err
    assert "scene file is not valid YAML: " in err
    assert "line 2, column 10" in err

    scene = write_scene(tmp_path, LOOP_SCENE)
    assert cli.main(["validate", "--scene", scene,
                     "--set", "sources.0.current=[1, 2"]) == 1
    err = capsys.readouterr().err
    assert "override value '[1, 2' is not valid YAML: " in err
    assert "line 1, column 1" in err


def scene_texts():
    """Every YAML scene the tests write: the module-level scene strings
    of tests/, with SQUARE_SCENE's CLOSE] in each form its test uses."""
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and str(node.value.value).startswith("schema:")):
                text = textwrap.dedent(node.value.value)
                for tail in ("]\n    closed: true", "]\n    closed: false",
                             ", [0.0, 0.0, 0.0]]"):
                    yield text.replace("CLOSE]", tail)


def test_scenes_load_alike_with_either_yaml_parser():
    # the scene loader parses with libyaml where PyYAML has it; the
    # pure-Python parser with the same resolver must agree on every scene
    assert issubclass(scene_mod._SceneLoader,
                      getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    pure = scene_mod._scene_loader(yaml.SafeLoader)
    texts = sorted(set(scene_texts()))
    assert len(texts) == 8
    for text in texts:
        raws = [yaml.load(text, Loader=loader)
                for loader in (pure, scene_mod._SceneLoader)]
        assert repr(raws[0]) == repr(raws[1])
        hashes = [scene_mod.scene_hash(scene_mod.validate_scene(raw))
                  for raw in raws]
        assert hashes[0] == hashes[1]


def test_set_reaches_defaulted_keys(tmp_path, capsys):
    # LOOP_SCENE has no quadrature block: the override addresses the
    # normalized scene, where the defaults are filled in
    scene = write_scene(tmp_path, LOOP_SCENE)
    assert cli.main(["validate", "--scene", scene,
                     "--set", "quadrature.rel_tol=1e-6"]) == 0
    out = capsys.readouterr().out
    assert "rel_tol: 1e-06" in out or "rel_tol: 1.0e-06" in out
    assert "abs_tol: 1e-12" in out or "abs_tol: 1.0e-12" in out


# ------------------------------------------------------------------ run

def test_run_writes_header_and_rows(tmp_path):
    scene = write_scene(tmp_path, LOOP_SCENE)
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", scene, "--out", str(out)]) == 0

    lines = out.read_text().splitlines()
    assert lines[0].startswith("# scene_hash: ")
    assert lines[1].startswith("# units: ")
    assert lines[2].startswith("# sign_conventions: ")
    assert lines[3].split(",")[:3] == ["x", "y", "z"]

    rows = read_rows(out)
    assert len(rows) == 3
    assert all(r["status"] == "ok" for r in rows)
    assert all(float(r["quad_error"]) >= 0.0 for r in rows)
    # x varies fastest and matches the requested axis
    assert [float(r["x"]) for r in rows] == [1.5, 2.0, 2.5]


def test_run_byte_deterministic_across_threads(tmp_path):
    scene = write_scene(tmp_path, LOOP_SCENE)
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "3")):
        path = tmp_path / name
        assert cli.main(["run", "--scene", scene, "--out", str(path),
                         "--threads", threads]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_run_rejects_bad_thread_count(tmp_path, capsys):
    scene = write_scene(tmp_path, LOOP_SCENE)
    code = cli.main(["run", "--scene", scene,
                     "--out", str(tmp_path / "x.csv"), "--threads", "0"])
    assert code == 1
    assert "--threads" in capsys.readouterr().err


def test_run_superposition_matches_single_source_sums(tmp_path):
    both = write_scene(tmp_path, TWO_LOOPS, "both.yaml")
    only0 = write_scene(tmp_path, TWO_LOOPS, "s0.yaml")
    only1 = write_scene(tmp_path, TWO_LOOPS, "s1.yaml")

    f_both = tmp_path / "both.csv"
    f0 = tmp_path / "s0.csv"
    f1 = tmp_path / "s1.csv"
    assert cli.main(["run", "--scene", both, "--out", str(f_both)]) == 0
    assert cli.main(["run", "--scene", only0, "--out", str(f0),
                     "--set", "sources.1.current=0.0"]) == 0
    assert cli.main(["run", "--scene", only1, "--out", str(f1),
                     "--set", "sources.0.current=0.0"]) == 0

    for rb, r0, r1 in zip(read_rows(f_both), read_rows(f0), read_rows(f1)):
        for col in ("a_x", "a_y", "a_z"):
            total = float(rb[col])
            parts = float(r0[col]) + float(r1[col])
            assert abs(total - parts) <= 1e-12 * max(1.0, abs(total))


def test_run_on_support_row_flags_and_nans(tmp_path, capsys):
    scene = write_scene(tmp_path, """\
    schema: 1
    sources:
      - type: loop
        radius: 1.0
        current: 2.0
    grid:
      x: {start: 1.0, stop: 2.0, count: 2}
      y: 0.0
      z: 0.0
    outputs: [a, b]
    """)
    out = tmp_path / "map.csv"
    code = cli.main(["run", "--scene", scene, "--out", str(out)])
    assert code == 2
    assert "1 of 2 rows flagged" in capsys.readouterr().err

    rows = read_rows(out)
    on_wire, off_wire = rows[0], rows[1]
    assert on_wire["status"] == "on_support"
    assert all(on_wire[c] == "nan" for c in
               ("a_x", "a_y", "a_z", "b_x", "b_y", "b_z"))
    assert off_wire["status"] == "ok"
    assert off_wire["b_z"] != "nan"


@pytest.mark.parametrize("source", [
    "{type: point_charge, q: 1.0e-9, position: [0.0, 0.0, 0.0]}",
    "{type: dipole, position: [0.0, 0.0, 0.0], moment: [0.0, 0.0, 1.0e-12]}",
], ids=["point_charge", "dipole"])
def test_run_grid_point_on_a_point_source_flags_its_row(tmp_path, capsys,
                                                        source):
    # the origin row is on the source; the others are written as usual
    scene = write_scene(tmp_path, """\
    schema: 1
    sources: [%s]
    grid:
      x: {start: -1.0, stop: 1.0, count: 3}
      y: 0.0
      z: 0.0
    outputs: [phi, e]
    """ % source)
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", scene, "--out", str(out)]) == 2
    assert "1 of 3 rows flagged" in capsys.readouterr().err
    rows = read_rows(out)
    assert [r["status"] for r in rows] == ["ok", "on_support", "ok"]
    assert all(rows[1][c] == "nan" for c in ("phi", "e_x", "e_y", "e_z"))
    for row in (rows[0], rows[2]):
        assert all(row[c] != "nan" for c in ("phi", "e_x", "e_z"))


def test_run_near_support_keeps_potential_refuses_derivative(tmp_path):
    # 1e-4 off the wire: the potential integral still converges, but the
    # difference stencil (h ~ 1e-3) would straddle the singularity
    scene = write_scene(tmp_path, """\
    schema: 1
    sources:
      - type: loop
        radius: 1.0
        current: 2.0
    grid:
      x: 1.0001
      y: 0.0
      z: 0.0
    outputs: [a, b]
    """)
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", scene, "--out", str(out)]) == 2
    row = read_rows(out)[0]
    assert row["status"] == "on_support"
    assert row["a_y"] != "nan"     # potential was computed
    assert row["b_z"] == "nan"     # derivative was refused


def test_run_row_two_steps_from_a_polyline_segment_is_on_support(tmp_path):
    # h = 1e-3 here; 2 h from the segment the row's own evaluation is
    # far off the floor, and the derivative guard (near) refuses b
    scene = write_scene(tmp_path, """\
    schema: 1
    sources:
      - type: polyline
        current: 1.5
        points: [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]
    grid:
      x: 0.5
      y: {start: 0.002, stop: 0.5, count: 2}
      z: 0.0
    outputs: [a, b]
    """)
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", scene, "--out", str(out)]) == 2
    near, far = read_rows(out)
    assert near["status"] == "on_support"
    assert near["a_x"] != "nan"     # potential was computed
    assert near["b_z"] == "nan"     # derivative was refused
    assert far["status"] == "ok"
    assert far["b_z"] != "nan"


def test_run_row_whose_error_is_not_finite_is_unconverged(tmp_path, capsys):
    # at the last float speed below c the charge's position x0 + t v
    # rounds by ~3e-8 m along v, and at gamma ~7e7 that moves D by most
    # of itself: the rounding bound is inf, and such a row is not ok
    scene = write_scene(tmp_path, """\
    schema: 1
    sources:
      - type: point_charge
        q: 1.0e-9
        position: [-410715667.46, 0.0, 0.0]
        velocity: [299792457.99999994, 0.0, 0.0]
    grid:
      x: 0.0
      y: {start: 0.37, stop: 1.0, count: 2}
      z: 0.0
      time: 1.37
    outputs: [phi, a]
    """)
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", scene, "--out", str(out)]) == 2
    assert "2 of 2 rows flagged" in capsys.readouterr().err
    for row in read_rows(out):
        assert row["quad_error"] == "inf"
        assert row["status"] == "unconverged"
        assert row["phi"] != "nan"     # values written


def test_run_doc_format(tmp_path):
    scene = write_scene(tmp_path, LOOP_SCENE)
    out = tmp_path / "map.json"
    assert cli.main(["run", "--scene", scene, "--out", str(out),
                     "--format", "doc"]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"scene_hash", "units", "sign_conventions",
                        "columns", "rows"}
    assert doc["sign_conventions"] == fieldmap.SIGN_CONVENTIONS_VERSION
    assert len(doc["rows"]) == 3
    assert len(doc["rows"][0]) == len(doc["columns"])


def test_run_timed_scene_has_t_column(tmp_path):
    scene = write_scene(tmp_path, """\
    schema: 1
    sources:
      - type: point_charge
        q: 1.0e-9
        position: [0.0, 0.0, 0.0]
    grid:
      x: {start: 1.0, stop: 2.0, count: 2}
      y: 0.0
      z: 0.0
      time: {start: 0.0, stop: 1.0e-9, count: 2}
    outputs: [phi]
    """)
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", scene, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 4
    assert "t" in rows[0]
    # time outermost, x fastest
    assert [float(r["t"]) for r in rows] == [0.0, 0.0, 1.0e-9, 1.0e-9]
    assert [float(r["x"]) for r in rows] == [1.0, 2.0, 1.0, 2.0]
    # static charge: phi does not depend on t
    assert rows[0]["phi"] == rows[2]["phi"]


SQUARE_SCENE = """\
schema: 1
sources:
  - type: polyline
    current: 1.5
    points: [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
             [0.0, 1.0, 0.0]CLOSE]
grid:
  x: {start: 0.3, stop: 0.7, count: 2}
  y: 0.5
  z: 0.2
outputs: [a]
"""


def test_polyline_closed_flag_validates_and_closes(tmp_path, capsys):
    for flag in ("true", "false"):
        scene = write_scene(tmp_path, SQUARE_SCENE.replace(
            "CLOSE]", "]\n    closed: %s" % flag), "v-%s.yaml" % flag)
        assert cli.main(["validate", "--scene", scene]) == 0, \
            capsys.readouterr().err

    # closed: true must match the square closed by its repeated first vertex
    flagged = write_scene(tmp_path, SQUARE_SCENE.replace(
        "CLOSE]", "]\n    closed: true"), "flagged.yaml")
    repeated = write_scene(tmp_path, SQUARE_SCENE.replace(
        "CLOSE]", ", [0.0, 0.0, 0.0]]"), "repeated.yaml")
    f_flagged = tmp_path / "flagged.csv"
    f_repeated = tmp_path / "repeated.csv"
    assert cli.main(["run", "--scene", flagged, "--out", str(f_flagged)]) == 0
    assert cli.main(["run", "--scene", repeated,
                     "--out", str(f_repeated)]) == 0
    for rf, rr in zip(read_rows(f_flagged), read_rows(f_repeated)):
        tol = float(rf["quad_error"]) + float(rr["quad_error"])
        for col in ("a_x", "a_y", "a_z"):
            assert abs(float(rf[col]) - float(rr[col])) <= tol


EXPONENT_SCENE = """\
schema: 1
sources:
  - type: point_charge
    q: 1e-9
    position: [0.0, -1.0, 0.5]
    velocity: [3.0e7, 0, 0]
grid:
  x: {start: 0.2, stop: 0.6, count: 2}
  y: 0.0
  z: 0.5
  time: {start: 0.0, stop: 2.0e-9, count: 2}
outputs: [phi, a]
"""


def test_unsigned_and_dotless_exponents_read_as_floats(tmp_path, capsys):
    # 3.0e7 and 1e-9 are floats under YAML 1.2; a YAML 1.1 reader takes
    # them for strings, and only 3.0e+7 and 1.0e-9 for floats
    bare = write_scene(tmp_path, EXPONENT_SCENE, "bare.yaml")
    signed = write_scene(tmp_path, EXPONENT_SCENE.replace(
        "1e-9", "1.0e-9").replace("3.0e7", "3.0e+7"), "signed.yaml")
    hashes = []
    for scene in (bare, signed):
        assert cli.main(["validate", "--scene", scene]) == 0, \
            capsys.readouterr().err
        out = capsys.readouterr().out
        hashes.append(out.split("scene_hash: ")[1].split()[0])
    assert hashes[0] == hashes[1]

    out = tmp_path / "bare.csv"
    assert cli.main(["run", "--scene", bare, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert [float(r["t"]) for r in rows] == [0.0, 0.0, 2e-9, 2e-9]
    assert rows[0]["phi"] != rows[2]["phi"]     # the charge moved


# ------------------------------------------------------- exit plumbing

def fake_results(all_pass):
    return [CheckResult("thing", all_pass, "detail", 0.0)]


def test_selfcheck_exit_zero_on_pass(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck_mod, "run_all",
                        lambda verbose=False: fake_results(True))
    assert cli.main(["selfcheck"]) == 0


def test_selfcheck_exit_one_on_fail(monkeypatch):
    monkeypatch.setattr(selfcheck_mod, "run_all",
                        lambda verbose=False: fake_results(False))
    assert cli.main(["selfcheck"]) == 1


def test_internal_error_exits_three(tmp_path, monkeypatch, capsys):
    scene = write_scene(tmp_path, LOOP_SCENE)

    def boom(s):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(fieldmap, "build_parts", boom)
    code = cli.main(["run", "--scene", scene,
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "internal error" in capsys.readouterr().err


def test_no_command_prints_usage(capsys):
    assert cli.main([]) == 1
