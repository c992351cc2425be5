"""Grid sweeps: evaluate a scene's sources row by row, write CSV/doc.

Row order is deterministic (time outermost, then z, y, x fastest) and
independent of how many worker threads computed the rows.  Every row
carries a status:

    ok            all requested quantities computed, quadrature converged
    on_support    the point sits on (or within 3 fd steps of) a source;
                  derivative columns are refused, potentials evaluated
                  when the point is strictly off the support
    unconverged   a quadrature failed to reach tolerance, or the row's
                  error is not finite; values written
    out_of_domain the point (or its difference stencil) leaves a
                  source's domain of validity (plate gap)

Converged rows contain no NaN; refused cells in flagged rows are NaN,
and a row whose stencil is refused writes every derivative column NaN.
Each source returns one PotentialResult, and the row reads its a, phi,
error, converged and b by name: quad_error is the sum of the sources'
errors at the row point, and a source that did not converge, or an
error that is not finite, makes the row unconverged.  b comes from the
sources: each returns its own field with its potentials at the row
point (the Biot-Savart integral, in closed form or on the potential's
quadrature nodes), or None where it has none, and the row sums the
fields formed.
e and the gauge residual are central differences of the summed
potentials with step h = fd_step(point), so superposition holds
row-wise to rounding.  They share one stencil, evaluated as plain
float tuples, each point once: the row point, +-h on each axis, and
t +- dt when a timed row asks for e or the residual.  That is 1 source
evaluation per row for [a] or [a, b], 7 for a static e, 9 for a timed
[phi, a, e, residual] row.  A row within 3 h of a source's support
writes no derivative column, b included.
"""

from __future__ import annotations

import json
import math

from . import sources
from .errors import (ConvergenceError, OnSupportError, OutOfDomainError)
from .fields import electro, magneto, retarded
from .fields.medium import MediumConstants
from .geometry import Point3, Vec3, cylinder_band_distance
from .quad import QuadConfig
from .scene import Scene

SIGN_CONVENTIONS_VERSION = "SIGN_CONVENTIONS.md v1"
UNITS_LINE = ("SI: meter, second; phi in volt, a in tesla meter, "
              "b in tesla, e in volt/meter")

_NAN = float("nan")

_DERIVATIVE_OUTPUTS = ("b", "e", "residual")


class SourcePart:
    """One scene source turned into evaluator callables.

    evaluate(point, t, want_b) -> PotentialResult  (the evaluator's own)
    near(point, t, radius, res) -> bool
        (within radius of the singular support; res is the part's
        result at that point, from which a polyline reads its distance)
    error(point, t, res) -> float    (where given)

    The result's b is the source's magnetic field, or None where the
    source forms none.  The closed forms (polyline, moving charge) and
    the quadratures (loop, helix, sheet, on the potential's nodes) form
    it only when want_b is true; the electric sources and a static
    charge have none.  A point charge's phi, a and b all
    come from one call of retarded.lienard_wiechert, from the charge's
    present position.

    The row's error is the result's error, unless the part has an
    error(), which makes it from the result.  That is for parts whose
    error costs more than their potentials (point charges, whose
    result carries error NaN): compute_row calls it at the row point
    only, since stencil points write no error.  A point charge's error
    bounds phi; that of its a is smaller by |v| / c^2.
    """

    def __init__(self, kind: str, evaluate, near, time_dependent=False,
                 error=None):
        self.kind = kind
        self.evaluate = evaluate
        self.near = near
        self.time_dependent = time_dependent
        self.error = error


def build_parts(scene: Scene) -> list[SourcePart]:
    medium = scene.medium
    cfg = scene.quad_config
    return [_build_part(s, medium, cfg) for s in scene.sources]


def _build_part(s: dict, medium: MediumConstants,
                cfg: QuadConfig) -> SourcePart:
    kind = s["type"]

    if kind == "loop":
        a, cur, cz = s["radius"], s["current"], s["center_z"]

        def evaluate(y: Point3, t: float, want_b: bool = False):
            return magneto.loop_potential(a, cur, y, cfg, cz, medium, want_b)

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return math.hypot(y.r - a, y.z - cz) < radius

        return SourcePart(kind, evaluate, near)

    if kind == "helix":
        a, p, length = s["radius"], s["pitch"], s["length"]
        cur, s0 = s["current"], s["sigma0"]

        def evaluate(y: Point3, t: float, want_b: bool = False):
            return magneto.helix_potential(a, p, length, cur, y, cfg, s0,
                                           medium, want_b)

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return magneto.helix_distance(a, p, length, s0, y,
                                          radius) < radius

        return SourcePart(kind, evaluate, near)

    if kind == "solenoid":
        a, p, length, k0 = s["radius"], s["pitch"], s["length"], s["kappa0"]

        def evaluate(y: Point3, t: float, want_b: bool = False):
            return magneto.solenoid_potential(a, p, length, k0, y, cfg,
                                              medium, want_b)

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return cylinder_band_distance(a, 0.0, length, y) < radius

        return SourcePart(kind, evaluate, near)

    if kind == "polyline":
        pts = [Point3(*p) for p in s["points"]]
        src = sources.polyline(pts, s["current"], s["closed"])

        def evaluate(y: Point3, t: float, want_b: bool = False):
            return magneto.curve_potential(src, y, cfg, medium, want_b)

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return res.diagnostics["distance"] < radius

        return SourcePart(kind, evaluate, near)

    if kind == "plate_wire":
        z0, lam, gap = s["z0"], s["lambda"], s["gap"]

        def evaluate(y: Point3, t: float, want_b: bool = False):
            return electro.plate_wire_potential(z0, lam, gap, y, medium)

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return math.hypot(y.x, y.z - z0) < radius

        return SourcePart(kind, evaluate, near)

    if kind == "point_charge":
        q = s["q"]
        x0 = Point3(*s["position"])
        v = Vec3(*s["velocity"])
        moving = v.norm() > 0.0
        src = (sources.uniform_point_charge(q, x0, v) if moving
               else sources.static_point_charge(q, x0))

        def evaluate(y: Point3, t: float, want_b: bool = False):
            return retarded.lienard_wiechert(src, y, t, medium,
                                             want_b and moving)

        def error(y: Point3, t: float, res) -> float:
            return retarded.rounding_bound(src, y, t, res, medium)[0]

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return (y - src.position(t)).norm() < radius

        return SourcePart(kind, evaluate, near, time_dependent=moving,
                          error=error)

    if kind == "dipole":
        dip = sources.DipoleSource(Point3(*s["position"]),
                                   Vec3(*s["moment"]))

        def evaluate(y: Point3, t: float, want_b: bool = False):
            return electro.dipole_potential(dip, y, medium)

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return (y - dip.location).norm() < radius

        return SourcePart(kind, evaluate, near)

    raise ValueError("unhandled source type %r" % kind)


# ---------------------------------------------------------------------------
# columns and rows


def column_names(scene: Scene) -> list[str]:
    cols = ["x", "y", "z"]
    if scene.timed:
        cols.append("t")
    for out in scene.outputs:
        if out == "a":
            cols += ["a_x", "a_y", "a_z"]
        elif out == "phi":
            cols.append("phi")
        elif out == "b":
            cols += ["b_x", "b_y", "b_z"]
        elif out == "e":
            cols += ["e_x", "e_y", "e_z"]
        elif out == "residual":
            cols += ["residual", "residual_scale"]
    cols += ["quad_error", "status"]
    return cols


def compute_row(scene: Scene, parts: list[SourcePart],
                coords: tuple) -> list:
    """One output row: coordinates, requested quantities, error, status."""
    medium = scene.medium
    point = Point3(coords[0], coords[1], coords[2])
    t = coords[3] if len(coords) > 3 else 0.0
    timed = any(p.time_dependent for p in parts) or scene.timed
    h = scene.fd_step(point.norm())
    want_b = "b" in scene.outputs
    status = "ok"

    def total(y: Point3, at: float, with_b: bool = False):
        # b sums only the fields formed: skipping a +0.0 term moves no
        # bit of a sum that starts at +0.0
        ax = ay = az = phi = bx = by = bz = 0.0
        results = [part.evaluate(y, at, with_b) for part in parts]
        for res in results:
            ax += res.a.x
            ay += res.a.y
            az += res.a.z
            phi += res.phi
            if with_b and res.b is not None:
                bx += res.b.x
                by += res.b.y
                bz += res.b.z
        return (ax, ay, az, phi), (bx, by, bz), results

    # potentials, and b when asked for, at the row point
    pot_val = (_NAN,) * 4
    b_sum = (_NAN,) * 3
    err_val = _NAN
    try:
        pot_val, b_sum, results = total(point, t, want_b)
        err_val = 0.0
        for part, res in zip(parts, results):
            err_val += part.error(point, t, res) if part.error else res.error
        if (not all(res.converged for res in results)
                or not math.isfinite(err_val)):
            status = "unconverged"
    except OnSupportError:
        status = "on_support"
    except OutOfDomainError:
        status = "out_of_domain"
    except ConvergenceError:
        status = "unconverged"

    wants_derivative = any(o in scene.outputs for o in _DERIVATIVE_OUTPUTS)
    derivatives_ok = wants_derivative and status == "ok"
    if derivatives_ok and any(part.near(point, t, 3.0 * h, res)
                              for part, res in zip(parts, results)):
        status = "on_support"
        derivatives_ok = False

    b_val = e_val = (_NAN,) * 3
    res_val = res_scale = _NAN
    if derivatives_ok:
        try:
            if want_b and not all(math.isfinite(v) for v in b_sum):
                raise OnSupportError("b not finite at %r" % (point,))
            if "e" in scene.outputs or "residual" in scene.outputs:
                e_val, res_val, res_scale = _derivatives(
                    lambda y, at: total(y, at)[0], point, t, h, medium,
                    timed, scene.outputs)
            b_val = b_sum
        except OnSupportError:
            status = "on_support"
        except OutOfDomainError:
            status = "out_of_domain"
        except ConvergenceError:
            status = "unconverged"

    row = [point.x, point.y, point.z]
    if scene.timed:
        row.append(t)
    for out in scene.outputs:
        if out == "a":
            row += pot_val[:3]
        elif out == "phi":
            row.append(pot_val[3])
        elif out == "b":
            row += b_val
        elif out == "e":
            row += e_val
        elif out == "residual":
            row += [res_val, res_scale]
    row.append(err_val)
    row.append(status)
    return row


def _derivatives(pot, point: Point3, t: float, h: float,
                 medium: MediumConstants, timed: bool, outputs) -> tuple:
    """e, and the gauge residual div a + eps mu dphi/dt with its scale,
    at one row point; the outputs not asked for are NaN.

    Central differences of pot(y, t) -> (a_x, a_y, a_z, phi), each
    stencil point evaluated once: +-h on the x, y and z axes, then
    t +- dt for a timed row.  A potential that is not finite where it is
    differenced raises OnSupportError.  The sums are those of -d phi
    and -codifferential(a) in exterior3, so the results match that
    route bit for bit, signed zeros included.
    """
    hi, lo = {}, {}
    for axis in range(3):
        hi[axis] = pot(point.shifted(axis, h), t)
        lo[axis] = pot(point.shifted(axis, -h), t)
    dt = h / medium.c
    if timed:
        later, earlier = pot(point, t + dt), pot(point, t - dt)

    def d(i: int, axis: int) -> float:
        """d/d(axis) of potential component i (a_x, a_y, a_z, phi)."""
        up, down = hi[axis][i], lo[axis][i]
        if not (math.isfinite(up) and math.isfinite(down)):
            raise OnSupportError("potential not finite within the "
                                 "difference stencil at %r" % (point,))
        return (up - down) / (2.0 * h)

    e = (_NAN,) * 3
    res = scale = _NAN
    if "e" in outputs:
        e = tuple(-(0.0 + d(3, axis)) for axis in range(3))
        if timed:
            e = tuple(e[i] - (later[i] - earlier[i]) / (2.0 * dt)
                      for i in range(3))
    if "residual" in outputs:
        div = [d(axis, axis) for axis in range(3)]
        term = 0.0
        if timed:
            term = (medium.eps * medium.mu * (later[3] - earlier[3])
                    / (2.0 * dt))
        res = -(((0.0 - div[0]) - div[1]) - div[2]) + term
        scale = abs(div[0]) + abs(div[1]) + abs(div[2]) + abs(term)
    return e, res, scale


# ---------------------------------------------------------------------------
# writers


def format_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, float) and math.isnan(v):
        return "nan"
    return repr(float(v))


def write_csv(fh, scene: Scene, columns: list[str], rows: list) -> None:
    fh.write("# scene_hash: %s\n" % scene.scene_hash)
    fh.write("# units: %s\n" % UNITS_LINE)
    fh.write("# sign_conventions: %s\n" % SIGN_CONVENTIONS_VERSION)
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(format_value(v) for v in row) + "\n")


def write_doc(fh, scene: Scene, columns: list[str], rows: list) -> None:
    doc = {
        "scene_hash": scene.scene_hash,
        "units": UNITS_LINE,
        "sign_conventions": SIGN_CONVENTIONS_VERSION,
        "columns": columns,
        "rows": [[format_value(v) if isinstance(v, str) or _is_nan(v)
                  else float(v) for v in row] for row in rows],
    }
    json.dump(doc, fh, indent=1)
    fh.write("\n")


def _is_nan(v) -> bool:
    return isinstance(v, float) and math.isnan(v)
