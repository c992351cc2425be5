"""Per-layer tracing of one `emsingular run` call, from outside the program.

`Tracer.install()` replaces public functions of the program's modules
with timing wrappers, each patched where its caller looks the name up
(`emsingular.fields.magneto.helix_integrals`, not the `_core` binding),
and `uninstall()` puts the originals back.  Spans nest on one stack, so
the traced call must run single-threaded.  A function's self time is
its span minus the spans of wrapped functions called inside it.

Layer `_core` is reported under the metric prefix `core.`, since metric
names start with a letter.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module, attribute looked up by the caller, metric prefix, work counter)
WRAPS = [
    ("emsingular.cli", "load_scene", "scene.load_scene", None),
    ("emsingular.fieldmap", "build_parts", "fieldmap.build_parts", None),
    ("emsingular.fieldmap", "compute_row", "fieldmap.compute_row", None),
    ("emsingular.fieldmap", "write_csv", "fieldmap.write_csv", None),
    ("emsingular.fields.magneto", "loop_potential",
     "fields.magneto.loop_potential", None),
    ("emsingular.fields.magneto", "helix_potential",
     "fields.magneto.helix_potential", None),
    ("emsingular.fields.magneto", "solenoid_potential",
     "fields.magneto.solenoid_potential", None),
    ("emsingular.fields.magneto", "curve_potential",
     "fields.magneto.curve_potential", None),
    ("emsingular.fields.electro", "plate_wire_potential",
     "fields.electro.plate_wire_potential", None),
    ("emsingular.fields.electro", "dipole_potential",
     "fields.electro.dipole_potential", None),
    ("emsingular.fields.retarded", "lienard_wiechert",
     "fields.retarded.lienard_wiechert", None),
    ("emsingular.fields.retarded", "solve_retarded_time",
     "fields.retarded.solve_retarded_time", None),
    ("emsingular.fields.magneto", "min_distance_to_curve",
     "fields.magneto.min_distance_to_curve", None),
    # the _core kernels return (..., evals, converged)
    ("emsingular.fields.magneto", "loop_phi_integral",
     "core.loop_phi_integral", lambda r: r[-2]),
    ("emsingular.fields.magneto", "helix_integrals",
     "core.helix_integrals", lambda r: r[-2]),
    ("emsingular.fields.magneto", "solenoid_integrals",
     "core.solenoid_integrals", lambda r: r[-2]),
    ("emsingular.fields.magneto", "integrate_adaptive",
     "quad.integrate_adaptive", lambda r: r.evaluations),
    ("emsingular.fields.electro", "sum_series", "quad.sum_series",
     lambda r: r.evaluations),
    ("emsingular.kernels", "free_kernel", "kernels.free_kernel", None),
    ("emsingular.exterior3", "d_numeric", "exterior3.d_numeric", None),
    ("emsingular.exterior3", "codifferential", "exterior3.codifferential",
     None),
]

SOURCE_POTENTIALS = [prefix for _, _, prefix, _ in WRAPS[4:11]]
CORE = [prefix for _, _, prefix, _ in WRAPS[13:16]]

# every metric a traced run prints: (name, unit)
PER_LAYER = (
    [("scene.load_scene.s", "s"), ("fieldmap.build_parts.s", "s"),
     ("fieldmap.compute_row.calls", "count"),
     ("fieldmap.compute_row.self_s", "s"),
     ("fieldmap.compute_row.p50_ms", "ms"),
     ("fieldmap.compute_row.p90_ms", "ms"),
     ("fieldmap.write_csv.s", "s"),
     ("fieldmap.evaluations_per_row", "count")]
    + [(p + suffix, unit) for p in SOURCE_POTENTIALS
       if p != "fields.electro.dipole_potential"
       for suffix, unit in ((".calls", "count"), (".self_s", "s"))]
    + [("fields.electro.dipole_potential.calls", "count"),
       ("fields.retarded.solve_retarded_time.calls", "count"),
       ("fields.retarded.solve_retarded_time.self_s", "s"),
       ("fields.magneto.min_distance_to_curve.calls", "count"),
       ("fields.magneto.min_distance_to_curve.self_s", "s")]
    + [(p + suffix, unit) for p in CORE
       for suffix, unit in ((".calls", "count"), (".self_s", "s"))]
    + [("core.integrand_evals", "count"), ("core.ns_per_eval", "ns"),
       ("quad.integrate_adaptive.calls", "count"),
       ("quad.integrate_adaptive.self_s", "s"),
       ("quad.integrate_adaptive.evaluations", "count"),
       ("quad.sum_series.calls", "count"),
       ("quad.sum_series.self_s", "s"),
       ("quad.sum_series.terms", "count"),
       ("kernels.free_kernel.calls", "count"),
       ("kernels.free_kernel.self_s", "s"),
       ("exterior3.d_numeric.calls", "count"),
       ("exterior3.d_numeric.self_s", "s"),
       ("exterior3.codifferential.calls", "count"),
       ("exterior3.codifferential.self_s", "s"),
       ("cli.cpu_utilisation", "ratio"),
       ("trace.rows_per_s", "rows/s"),
       ("trace.overhead", "ratio")]
)

# metrics that count work: they must repeat exactly from run to run
COUNTS = [name for name, unit in PER_LAYER if unit == "count"]


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "work", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.work = 0
        self.durations = []


class Tracer:
    """Timing wrappers around the functions listed in WRAPS."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._saved = []

    def reset(self) -> None:
        self.stats = {prefix: _Stat() for _, _, prefix, _ in WRAPS}

    def install(self) -> None:
        self.reset()
        for module_name, attr, prefix, work in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, prefix, work))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, prefix: str, work):
        stack = self._stack
        clock = time.perf_counter
        keep = prefix == "fieldmap.compute_row"  # for its percentiles

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += span
                st = self.stats[prefix]
                st.calls += 1
                st.self_s += span - children
                st.total_s += span
                if keep:
                    st.durations.append(span)
            if work is not None:
                st.work += work(result)
            return result

        return wrapper

    def metrics(self, n_sources: int) -> dict:
        """Per-layer metrics of everything traced since the last reset,
        except the ones measured outside the tracer (cli.*, trace.*)."""
        s = self.stats
        out = {
            "scene.load_scene.s": s["scene.load_scene"].total_s,
            "fieldmap.build_parts.s": s["fieldmap.build_parts"].total_s,
            "fieldmap.write_csv.s": s["fieldmap.write_csv"].total_s,
        }
        rows = s["fieldmap.compute_row"]
        ms = sorted(1e3 * d for d in rows.durations)
        out["fieldmap.compute_row.calls"] = rows.calls
        out["fieldmap.compute_row.self_s"] = rows.self_s
        out["fieldmap.compute_row.p50_ms"] = statistics.median(ms)
        out["fieldmap.compute_row.p90_ms"] = (
            statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0])
        evaluations = sum(s[p].calls for p in SOURCE_POTENTIALS)
        out["fieldmap.evaluations_per_row"] = evaluations / (rows.calls
                                                             * n_sources)
        for prefix in s:
            out.setdefault(prefix + ".calls", s[prefix].calls)
            out.setdefault(prefix + ".self_s", s[prefix].self_s)
        core_evals = sum(s[p].work for p in CORE)
        core_self = sum(s[p].self_s for p in CORE)
        out["core.integrand_evals"] = core_evals
        out["core.ns_per_eval"] = 1e9 * core_self / core_evals \
            if core_evals else 0.0
        out["quad.integrate_adaptive.evaluations"] = \
            s["quad.integrate_adaptive"].work
        out["quad.sum_series.terms"] = s["quad.sum_series"].work
        return out
