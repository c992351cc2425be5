"""Grid sweeps: evaluate a scene's sources row by row, write CSV/doc.

Row order is deterministic (time outermost, then z, y, x fastest) and
independent of how many worker threads computed the rows.  Every row
carries a status:

    ok            all requested quantities computed, quadrature converged
    on_support    the point sits on (or within 3 fd steps of) a source;
                  derivative columns are refused, potentials evaluated
                  when the point is strictly off the support
    unconverged   a quadrature failed to reach tolerance; values written
    out_of_domain the point (or its difference stencil) leaves a
                  source's domain of validity (plate gap)

Converged rows contain no NaN; refused cells in flagged rows are NaN.
Derivatives (b, e, residual) are finite differences of the summed
potentials with step h = fd_step(point), so superposition holds
row-wise to rounding.  The stencils of b, e and the gauge residual share
their points, and each distinct stencil point is evaluated once per
row: 1 source evaluation for [a], 7 for [a, b] or a static e, 9 for a
timed [phi, a, e, residual] row.
"""

from __future__ import annotations

import json
import math

from . import exterior3, sources
from .errors import (ConvergenceError, OnSupportError, OutOfDomainError)
from .fields import electro, magneto, retarded
from .fields.medium import MediumConstants
from .geometry import Point3, Vec3, cylinder_band_distance, segment_distance
from .quad import QuadConfig
from .scene import Scene

SIGN_CONVENTIONS_VERSION = "SIGN_CONVENTIONS.md v1"
UNITS_LINE = ("SI: meter, second; phi in volt, a in tesla meter, "
              "b in tesla, e in volt/meter")

_NAN = float("nan")

_DERIVATIVE_OUTPUTS = ("b", "e", "residual")


class SourcePart:
    """One scene source turned into evaluator callables.

    evaluate(point, t) -> (a: Vec3, phi: float, err, ok: bool)
    near(point, t, radius) -> bool   (within radius of the singular support)
    error(point, t, err) -> float    (where given)

    err is the error as a float, unless the part has an error(), which
    makes it from the err that evaluate returned.  That is for parts
    whose error costs more than their potentials (point charges):
    compute_row calls it at the row point only, since stencil points
    write no error.  A point charge's error bounds phi; that of its a
    is smaller by |v| / c^2.
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
    zero = Vec3(0.0, 0.0, 0.0)

    if kind == "loop":
        a, cur, cz = s["radius"], s["current"], s["center_z"]

        def evaluate(y: Point3, t: float):
            res = magneto.loop_potential(a, cur, y, cfg, cz, medium)
            return (res.a, 0.0, res.diagnostics["a_phi_error"],
                    res.diagnostics["converged"])

        def near(y: Point3, t: float, radius: float) -> bool:
            return math.hypot(y.r - a, y.z - cz) < radius

        return SourcePart(kind, evaluate, near)

    if kind == "helix":
        a, p, length = s["radius"], s["pitch"], s["length"]
        cur, s0 = s["current"], s["sigma0"]

        def evaluate(y: Point3, t: float):
            res = magneto.helix_potential(a, p, length, cur, y, cfg, s0,
                                          medium)
            return (res.a, 0.0, res.diagnostics["chart_error"],
                    res.diagnostics["converged"])

        def near(y: Point3, t: float, radius: float) -> bool:
            return magneto.helix_distance(a, p, length, s0, y,
                                          radius) < radius

        return SourcePart(kind, evaluate, near)

    if kind == "solenoid":
        a, p, length, k0 = s["radius"], s["pitch"], s["length"], s["kappa0"]

        def evaluate(y: Point3, t: float):
            res = magneto.solenoid_potential(a, p, length, k0, y, cfg,
                                             medium)
            return (res.a, 0.0, res.diagnostics["chart_error"],
                    res.diagnostics["converged"])

        def near(y: Point3, t: float, radius: float) -> bool:
            return cylinder_band_distance(a, 0.0, length, y) < radius

        return SourcePart(kind, evaluate, near)

    if kind == "polyline":
        pts = [Point3(*p) for p in s["points"]]
        src = sources.polyline(pts, s["current"], s["closed"])
        chain = src.params["vertices"]

        def evaluate(y: Point3, t: float):
            res = magneto.curve_potential(src, y, cfg, medium)
            return (res.a, 0.0, res.diagnostics["chart_error"],
                    res.diagnostics["converged"])

        def near(y: Point3, t: float, radius: float) -> bool:
            return any(segment_distance(y, p0, p1) < radius
                       for p0, p1 in zip(chain[:-1], chain[1:]))

        return SourcePart(kind, evaluate, near)

    if kind == "plate_wire":
        z0, lam, gap = s["z0"], s["lambda"], s["gap"]

        def evaluate(y: Point3, t: float):
            res = electro.plate_wire_potential(z0, lam, gap, y, medium)
            return (zero, res.phi, res.diagnostics["rounding_error"], True)

        def near(y: Point3, t: float, radius: float) -> bool:
            return math.hypot(y.x, y.z - z0) < radius

        return SourcePart(kind, evaluate, near)

    if kind == "point_charge":
        q = s["q"]
        x0 = Point3(*s["position"])
        v = Vec3(*s["velocity"])
        moving = v.norm() > 0.0
        src = (sources.uniform_point_charge(q, x0, v) if moving
               else sources.static_point_charge(q, x0))

        def evaluate(y: Point3, t: float):
            res = retarded.lienard_wiechert(src, y, t, medium)
            return (res.a, res.phi, res, True)

        def error(y: Point3, t: float, res) -> float:
            return retarded.rounding_bound(src, y, t, res, medium)[0]

        def near(y: Point3, t: float, radius: float) -> bool:
            return (y - src.position(t)).norm() < radius

        return SourcePart(kind, evaluate, near, time_dependent=moving,
                          error=error)

    if kind == "dipole":
        dip = sources.DipoleSource(Point3(*s["position"]),
                                   Vec3(*s["moment"]))

        def evaluate(y: Point3, t: float):
            res = electro.dipole_potential(dip, y, medium)
            return (zero, res.phi, 0.0, True)

        def near(y: Point3, t: float, radius: float) -> bool:
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
    status = "ok"
    # Stencil points repeat bit for bit (same shifted()/t +- dt
    # expressions), so each distinct (y, at) is evaluated once per row.
    # Only returned results are kept: a raising point raises again.
    memo: dict = {}

    def total(y: Point3, at: float):
        key = (y.x, y.y, y.z, at)
        if key in memo:
            return memo[key]
        ax = ay = az = phi = 0.0
        errs = []
        ok = True
        for part in parts:
            av, pv, ev, okv = part.evaluate(y, at)
            ax += av.x
            ay += av.y
            az += av.z
            phi += pv
            errs.append(ev)
            ok = ok and okv
        memo[key] = Vec3(ax, ay, az), phi, errs, ok
        return memo[key]

    # potentials at the row point
    a_val: Vec3 | float = _NAN
    phi_val = _NAN
    err_val = _NAN
    try:
        a_vec, phi_val, errs, converged = total(point, t)
        a_val = a_vec
        err_val = 0.0
        for part, ev in zip(parts, errs):
            err_val += part.error(point, t, ev) if part.error else ev
        if not converged:
            status = "unconverged"
    except OnSupportError:
        status = "on_support"
    except OutOfDomainError:
        status = "out_of_domain"
    except ConvergenceError:
        status = "unconverged"

    wants_derivative = any(o in scene.outputs for o in _DERIVATIVE_OUTPUTS)
    derivatives_ok = wants_derivative and status == "ok"
    if derivatives_ok and any(part.near(point, t, 3.0 * h)
                              for part in parts):
        status = "on_support"
        derivatives_ok = False

    b_val = e_val = Vec3(_NAN, _NAN, _NAN)
    res_val = res_scale = _NAN
    if derivatives_ok:
        try:
            if "b" in scene.outputs:
                b_val = magneto.derive_b(
                    lambda p: total(p, t)[0], h)(point)
            if "e" in scene.outputs:
                e_val = electro.derive_e(
                    lambda p: total(p, t)[1], h)(point)
                if timed:
                    dt = h / medium.c
                    da = (total(point, t + dt)[0]
                          - total(point, t - dt)[0]) / (2.0 * dt)
                    e_val = e_val - da
            if "residual" in scene.outputs:
                res_val, res_scale = _gauge_residual(total, point, t, h,
                                                     medium, timed)
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
            row += ([a_val.x, a_val.y, a_val.z]
                    if isinstance(a_val, Vec3) else [_NAN] * 3)
        elif out == "phi":
            row.append(phi_val)
        elif out == "b":
            row += [b_val.x, b_val.y, b_val.z]
        elif out == "e":
            row += [e_val.x, e_val.y, e_val.z]
        elif out == "residual":
            row += [res_val, res_scale]
    row.append(err_val)
    row.append(status)
    return row


def _gauge_residual(total, point: Point3, t: float, h: float,
                    medium: MediumConstants,
                    timed: bool) -> tuple[float, float]:
    """div a (via the codifferential) plus eps mu dphi/dt, with a
    magnitude scale built from the individual contributions."""
    form = exterior3.FormField.one_form(
        lambda p, _t: total(p, t)[0].x,
        lambda p, _t: total(p, t)[0].y,
        lambda p, _t: total(p, t)[0].z,
    )
    delta = exterior3.codifferential(form, point, 0.0, h)
    div_a = -delta[()]

    scale = 0.0
    for ax in range(3):
        hi = total(point.shifted(ax, +h), t)[0].as_tuple()[ax]
        lo = total(point.shifted(ax, -h), t)[0].as_tuple()[ax]
        scale += abs((hi - lo) / (2.0 * h))

    term = 0.0
    if timed:
        dt = h / medium.c
        phi_hi = total(point, t + dt)[1]
        phi_lo = total(point, t - dt)[1]
        term = medium.eps * medium.mu * (phi_hi - phi_lo) / (2.0 * dt)
    return div_a + term, scale + abs(term)


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
