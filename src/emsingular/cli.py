"""Command-line front end: run, validate, selfcheck.

    emsingular run --scene s.yaml --out map.csv [--set k=v]
                   [--threads 4] [--format csv|doc]
    emsingular validate --scene s.yaml [--set k=v]
    emsingular selfcheck

Exit codes: 0 success, 1 invalid input, 2 partial convergence (rows
written and flagged), 3 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import yaml

from . import fieldmap
from .errors import EmsingularError, SceneError
from .fields.medium import MU0
from .scene import load_scene


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "selfcheck":
            return _cmd_selfcheck(args)
        parser.print_usage(sys.stderr)
        return 1
    except SceneError as exc:
        print("scene error: %s" % exc, file=sys.stderr)
        return 1
    except EmsingularError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emsingular",
        description="Potentials and fields of singular sources "
                    "(wires, sheets, moving charges).")
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="sweep a grid, write a field map")
    _scene_flags(run)
    run.add_argument("--out", required=True, help="output file path")
    run.add_argument("--threads", type=int, default=1,
                     help="worker threads for grid rows (default 1)")
    run.add_argument("--format", choices=("csv", "doc"), default="csv",
                     help="csv (default) or a JSON document")

    val = sub.add_parser("validate",
                         help="check a scene, print the normalized form")
    _scene_flags(val)

    sub.add_parser("selfcheck", help="run the built-in verification suite")
    return parser


def _scene_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", required=True, help="scene YAML path")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   dest="overrides", help="dotted-path override, repeatable")


def _cmd_run(args) -> int:
    scene = load_scene(args.scene, args.overrides)
    if args.threads < 1:
        raise SceneError("--threads must be at least 1")
    parts = fieldmap.build_parts(scene)
    coords = scene.grid_points()
    columns = fieldmap.column_names(scene)

    if args.threads == 1:
        rows = [fieldmap.compute_row(scene, parts, c) for c in coords]
    else:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(
                lambda c: fieldmap.compute_row(scene, parts, c), coords))

    with open(args.out, "w") as fh:
        if args.format == "csv":
            fieldmap.write_csv(fh, scene, columns, rows)
        else:
            fieldmap.write_doc(fh, scene, columns, rows)

    flagged = sum(1 for r in rows if r[-1] != "ok")
    if flagged:
        print("%d of %d rows flagged (see status column); output written "
              "to %s" % (flagged, len(rows), args.out), file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args) -> int:
    scene = load_scene(args.scene, args.overrides)
    doc = dict(scene.data)
    print(yaml.safe_dump(doc, sort_keys=True, default_flow_style=None),
          end="")
    print("scene_hash: %s" % scene.scene_hash)
    print("rows: %d" % len(scene.grid_points()))
    for i, s in enumerate(scene.sources):
        for line in _derived_quantities(s):
            print("sources[%d] %s" % (i, line))
    return 0


def _derived_quantities(s: dict) -> list[str]:
    """Derived per-source numbers, in the normalization where the layer
    coupling of a loop reads 4 pi mu0 I a."""
    out = []
    if s["type"] == "loop":
        lam = 4.0 * math.pi * MU0 * s["current"] * s["radius"]
        out.append("loop coupling 4*pi*mu0*I*a = %r" % lam)
    if s["type"] in ("helix", "solenoid"):
        a, p = s["radius"], s["pitch"]
        big_p = math.sqrt(1.0 - p * p) / a
        out.append("angular rate P = sqrt(1 - p^2)/a = %r "
                   "(a^2 P^2 + p^2 = 1)" % big_p)
    if s["type"] == "solenoid":
        a, p = s["radius"], s["pitch"]
        if p > 0.0:
            big_p = math.sqrt(1.0 - p * p) / a
            out.append("turns per length = P / (2*pi*p) = %r"
                       % (big_p / (2.0 * math.pi * p)))
        else:
            out.append("turns per length: infinite "
                       "(purely azimuthal sheet)")
    return out


def _cmd_selfcheck(args) -> int:
    from . import selfcheck

    results = selfcheck.run_all(verbose=True)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
