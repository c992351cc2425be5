"""Field-map benchmark: `emsingular run` on a seeded scene, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` (no install step).  The scene for NAME and N is written to
`perfbench/out/`, then:

* setup_s: a fresh interpreter imports emsingular, loads the scene and
  builds its parts; timed from the spawn until it reports ready;
* --trace 0: a worker process runs rounds of `emsingular run` calls for
  S seconds, one call per plane of the scene's grid (scenes.planes).
  rows_per_s is all rows over all call time,
  peak_rss_mb the worker's peak resident memory (VmHWM).  Both times
  are scaled to the reference core speed measured by `probe`;
* --trace 1: untraced rounds and traced single-threaded rounds in turn
  for S seconds; prints the per-layer metrics of tracer.PER_LAYER per
  round (counts of the first traced round, times as medians over the
  rounds, the overhead as the median ratio of each traced round's time
  to the untraced round before it).

A plane's call must write the same bytes in every round (traced rounds
too), and every plane's map must pass check.check_map.  The
last line of standard output is the JSON result; the line before it
names the program's numerical backend.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yaml

import check
import probe
import scenes
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
# a worker that outlives this is killed; the run must end within 180 s
WORKER_LIMIT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def time_setup(scene_path: Path) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    emsingular, loaded the scene and built its parts, scaled to the
    reference speed by the probes the set-up process ran around that
    work (their own time is left out)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "setup", str(scene_path)],
        stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or len(line) != 3 or line[0] != b"ready":
        raise BenchError("set-up process failed (exit %s)" % code)
    before, after = float(line[1]), float(line[2])
    return ((elapsed - before - after) * probe.REFERENCE_S
            / (0.5 * (before + after)))


def run_worker(mode: str, out_dir: Path, threads: int, seconds: float,
               scene_paths: list) -> dict:
    result = out_dir / ("%s.json" % mode)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), mode, str(out_dir), str(threads),
         repr(seconds), str(result)] + [str(p) for p in scene_paths],
        env=_env(), cwd=ROOT)
    watchdog = threading.Timer(WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("worker %s exited with %d" % (mode, proc.returncode))
    with open(result) as fh:
        return json.load(fh)


def _same_output(rounds: list, problems: list) -> None:
    """Each plane's call must write the same bytes in every round."""
    for k in range(len(rounds[0])):
        if len({r[k]["digest"] for r in rounds}) != 1:
            problems.append("plane %d: calls wrote different outputs" % k)
    for r in rounds:
        for c in r:
            if c["code"] not in (0, 2):  # 2: rows flagged, map written
                problems.append("emsingular run exited with %d" % c["code"])


def _layer_metrics(report: dict, rows: int, problems: list) -> dict:
    rounds = [r["metrics"] for r in report["rounds"]]
    for name in tracer.COUNTS:
        if len({r[name] for r in rounds}) != 1:
            problems.append("%s differs between traced rounds" % name)
    values = {}
    for name, unit in tracer.PER_LAYER:
        if name in tracer.COUNTS:
            values[name] = rounds[0][name]
        elif name in rounds[0]:
            values[name] = statistics.median(r[name] for r in rounds)
    untraced = [sum(c["wall"] for c in r) for r in report["untraced"]]
    traced = [sum(c["wall"] for c in r["calls"]) for r in report["rounds"]]
    values["cli.cpu_utilisation"] = sum(
        c["cpu"] for r in report["untraced"] for c in r) / sum(untraced)
    values["trace.rows_per_s"] = rows / statistics.median(traced)
    values["trace.overhead"] = statistics.median(
        t / u for t, u in zip(traced, untraced))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracer.PER_LAYER}


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "emsingular" / "cli.py").is_file():
        raise BenchError("no program source at %s" % SRC)
    work = HERE / "out" / ("%s-s%d-t%d" % (workload, seed, int(traced)))
    work.mkdir(parents=True, exist_ok=True)
    scene = scenes.make_scene(workload, seed)
    cuts = scenes.planes(scene)
    scene_path = work / "scene.yaml"
    scene_path.write_text(yaml.safe_dump(scene, sort_keys=False))
    cut_paths = [work / ("scene-%d.yaml" % k) for k in range(len(cuts))]
    for path, cut in zip(cut_paths, cuts):
        path.write_text(yaml.safe_dump(cut, sort_keys=False))
    threads = scenes.THREADS[workload]

    setup_s = time_setup(scene_path)
    report = run_worker("trace" if traced else "run", work, threads, seconds,
                        cut_paths)

    problems: list[str] = []
    if traced:
        rounds = report["untraced"] + [r["calls"] for r in report["rounds"]]
    else:
        rounds = report["rounds"]
    _same_output(rounds, problems)
    rows = not_ok = 0
    margins: dict = {}
    for k, cut in enumerate(cuts):
        n, bad, found, worst = check.check_map(
            cut, (work / ("map-%d.csv" % k)).read_text())
        rows, not_ok = rows + n, not_ok + bad
        problems += found
        for name, m in worst.items():
            margins[name] = max(m, margins.get(name, 0.0))

    if traced:
        metrics = _layer_metrics(report, rows, problems)
    else:
        scaled = sum(c["wall"] * probe.REFERENCE_S / c["probe"]
                     for r in rounds for c in r)
        metrics = {
            "rows_per_s": {"value": rows * len(rounds) / scaled,
                           "unit": "rows/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    for p in problems[:20]:
        print("problem: %s" % p, file=sys.stderr)
    print("%s seed %d: %d rounds of %d calls, %d rows (%d sources); "
          "check margins %s" % (
              workload, seed, len(rounds), len(cuts), rows,
              len(scene["sources"]),
              json.dumps({k: float("%.3g" % v) for k, v in margins.items()})),
          file=sys.stderr)
    print("backend: %s" % report["backend"])
    return {"correct": not problems, "attempted": rows * len(rounds),
            "failed": not_ok * len(rounds), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except (BenchError, check.MapError, OSError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
