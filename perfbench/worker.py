"""Child process of the benchmark: the only process that runs the program.

    python3 worker.py setup SCENE
        import emsingular, load SCENE, build its parts, between two
        speed probes; print "ready" and the two probe times
    python3 worker.py run OUT_DIR THREADS SECONDS RESULT SCENE...
        rounds of `emsingular run` calls, one per SCENE, until SECONDS
        have passed; a speed probe runs between consecutive calls
    python3 worker.py trace OUT_DIR THREADS SECONDS RESULT SCENE...
        untraced rounds with THREADS and traced single-threaded rounds in
        turn until SECONDS have passed (at least two of each), with the
        per-layer metrics of each traced round

Call k of a round writes OUT_DIR/map-k.csv (traced: traced-k.csv).
RESULT receives a JSON report.  The parent puts the checkout's `src` on
PYTHONPATH, so the program is imported from source.  Keeping the program
in its own process keeps the reference computations (numpy, scipy) out
of its memory and timings.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import probe


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process since its exec (VmHWM);
    ru_maxrss would also count the parent's pages from before the exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _call(cli, scene: str, out: str, threads: int) -> dict:
    """One `emsingular run`, timed; the output's digest is taken after."""
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    code = cli.main(["run", "--scene", scene, "--out", out,
                     "--threads", str(threads)])
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"wall": wall, "cpu": cpu, "code": code, "digest": digest}


def setup(scene_path: str) -> None:
    """The probes run in this process, on the core that does the set-up."""
    before = probe.probe_seconds()
    # cli is what `emsingular run` imports first; it pulls in the rest
    from emsingular import cli  # noqa: F401
    from emsingular import fieldmap, scene

    fieldmap.build_parts(scene.load_scene(scene_path))
    after = probe.probe_seconds()
    print("ready %r %r" % (before, after), flush=True)


def run(out_dir: str, threads: int, seconds: float, scenes: list) -> dict:
    from emsingular import _core, cli

    rounds = []
    before = probe.probe_seconds()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        calls = []
        for k, scene in enumerate(scenes):
            call = _call(cli, scene, os.path.join(out_dir, "map-%d.csv" % k),
                         threads)
            after = probe.probe_seconds()
            call["probe"] = 0.5 * (before + after)
            calls.append(call)
            before = after
        rounds.append(calls)
    return {"backend": _core.backend_name(), "rounds": rounds,
            "peak_rss_mb": peak_rss_mb()}


def trace(out_dir: str, threads: int, seconds: float, scenes: list) -> dict:
    """Untraced and traced rounds in turn, so that each traced round has
    an untraced one beside it to measure the tracing overhead against."""
    from emsingular import _core, cli
    from emsingular.scene import load_scene

    import tracer as tracing

    n_sources = len(load_scene(scenes[0]).sources)
    tracer = tracing.Tracer()
    untraced, rounds = [], []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        untraced.append([_call(cli, scene,
                               os.path.join(out_dir, "map-%d.csv" % k),
                               threads) for k, scene in enumerate(scenes)])
        tracer.install()
        try:
            calls = [_call(cli, scene,
                           os.path.join(out_dir, "traced-%d.csv" % k), 1)
                     for k, scene in enumerate(scenes)]
        finally:
            tracer.uninstall()
        rounds.append({"calls": calls, "metrics": tracer.metrics(n_sources)})
    return {"backend": _core.backend_name(), "untraced": untraced,
            "rounds": rounds}


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1])
        return 0
    out_dir, threads, seconds, result = argv[1:5]
    report = (run if mode == "run" else trace)(out_dir, int(threads),
                                               float(seconds), argv[5:])
    with open(result, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
