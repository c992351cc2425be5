"""Grid sweeps: evaluate a scene's sources row by row, write CSV/doc.

Row order is deterministic (time outermost, then z, y, x fastest) and
independent of how many worker threads computed the rows.  Every row
carries a status:

    ok            all requested quantities computed, quadrature converged
    on_support    the point sits on (or within 3 fd steps of) a source,
                  or a derivative is not finite there; derivative
                  columns are refused, potentials evaluated when the
                  point is strictly off the support
    unconverged   a quadrature failed to reach tolerance, or the row's
                  error is not finite; values written
    out_of_domain the point (or a point where a source differences its
                  own a) leaves a source's domain of validity (plate
                  gap, a separation that overflows)

Converged rows contain no NaN; refused cells in flagged rows are NaN,
and a row whose derivatives are refused writes every derivative column
NaN.  Each source returns one PotentialResult at the row point, and
the row reads its a, phi, error, converged, b, e and gauge terms by
name: quad_error is the sum of the sources' errors at the row point,
and a source that did not converge, or an error that is not finite,
makes the row unconverged.

The derivatives come from the sources, as the derivative of a layer
potential is the potential of the differentiated kernel: each source
returns its own b, e and Lorenz-gauge terms (d_x a_x, d_y a_y, d_z a_z,
eps mu d_t phi) with its potentials, in closed form or on the
potential's quadrature nodes, and the row sums each quantity over the
sources.  The residual is d_x a_x + d_y a_y + d_z a_z + eps mu d_t phi
from those sums, and residual_scale the sum of their moduli.  So a row
makes 1 evaluation per source, whatever it asks for, except that a
loop, helix, sheet or polyline, whose divergence of a has no closed
form here, differences its own a at +-h on each axis for a residual:
7 evaluations of that source.  A row within 3 h of a source's support,
h = fd_step(point), writes no derivative column.
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

    evaluate(point, t, want_b, want_e) -> PotentialResult
        (the evaluator's own)
    near(point, t, radius, res) -> bool
        (within radius of the singular support; res is the part's
        result at that point, from which a polyline, a point charge and
        a dipole read their distance)

    Each part answers its own derivatives at the row point, with its
    potentials.  The result's b is the source's magnetic field, formed
    when want_b is true: in closed form (polyline, moving charge) or on
    the potential's quadrature nodes (loop, helix, sheet).  Its e is the
    electric field and its gauge the Lorenz-gauge terms (d_x a_x,
    d_y a_y, d_z a_z, eps mu d_t phi), formed in closed form when
    want_e is true by the electric sources: a point charge forms both
    (a static one has gauge terms 0), a dipole and the plate wire only
    e, their a being 0.  None stands for a quantity that is 0.  A point
    charge's phi, a, b, e and gauge terms, its error and its distance
    all come from one call of retarded.lienard_wiechert, from the
    charge's present position.

    The loop, helix, sheet and polyline have no e: their currents are
    static and they have no phi.  Their divergence of a has no closed
    form here, so gauge() forms it by central differences of the part's
    own a at +-h, 6 more evaluations of that part alone, when a row
    asks for the residual.

    The row's error is the result's error.  A point charge's bounds the
    rounding of its phi; that of its a is smaller by |v| / c^2.
    """

    def __init__(self, kind: str, evaluate, near, differenced=False):
        self.kind = kind
        self.evaluate = evaluate
        self.near = near
        self.differenced = differenced

    def gauge(self, y: Point3, t: float, h: float, res) -> tuple | None:
        """(d_x a_x, d_y a_y, d_z a_z, eps mu d_t phi) at y, where res
        is the part's result there: res.gauge, or central differences
        with step h for a part whose a is differenced.  None where all
        four are 0."""
        if not self.differenced:
            return res.gauge
        div = []
        for axis in range(3):
            hi = self.evaluate(y.shifted(axis, h), t).a.as_tuple()[axis]
            lo = self.evaluate(y.shifted(axis, -h), t).a.as_tuple()[axis]
            div.append((hi - lo) / (2.0 * h))
        return div[0], div[1], div[2], 0.0


def build_parts(scene: Scene) -> list[SourcePart]:
    medium = scene.medium
    cfg = scene.quad_config
    return [_build_part(s, medium, cfg) for s in scene.sources]


def _build_part(s: dict, medium: MediumConstants,
                cfg: QuadConfig) -> SourcePart:
    kind = s["type"]

    if kind == "loop":
        a, cur, cz = s["radius"], s["current"], s["center_z"]

        def evaluate(y: Point3, t: float, want_b: bool = False,
                     want_e: bool = False):
            return magneto.loop_potential(a, cur, y, cfg, cz, medium, want_b)

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return math.hypot(y.r - a, y.z - cz) < radius

        return SourcePart(kind, evaluate, near, differenced=True)

    if kind == "helix":
        a, p, length = s["radius"], s["pitch"], s["length"]
        cur, s0 = s["current"], s["sigma0"]

        def evaluate(y: Point3, t: float, want_b: bool = False,
                     want_e: bool = False):
            return magneto.helix_potential(a, p, length, cur, y, cfg, s0,
                                           medium, want_b)

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return magneto.helix_distance(a, p, length, s0, y,
                                          radius) < radius

        return SourcePart(kind, evaluate, near, differenced=True)

    if kind == "solenoid":
        a, p, length, k0 = s["radius"], s["pitch"], s["length"], s["kappa0"]

        def evaluate(y: Point3, t: float, want_b: bool = False,
                     want_e: bool = False):
            return magneto.solenoid_potential(a, p, length, k0, y, cfg,
                                              medium, want_b)

        def near(y: Point3, t: float, radius: float, res) -> bool:
            return cylinder_band_distance(a, 0.0, length, y) < radius

        return SourcePart(kind, evaluate, near, differenced=True)

    if kind == "polyline":
        pts = [Point3(*p) for p in s["points"]]
        src = sources.polyline(pts, s["current"], s["closed"])

        def evaluate(y: Point3, t: float, want_b: bool = False,
                     want_e: bool = False):
            return magneto.curve_potential(src, y, cfg, medium, want_b)

        return SourcePart(kind, evaluate, _near_by_distance, differenced=True)

    if kind == "plate_wire":
        z0, lam, gap = s["z0"], s["lambda"], s["gap"]

        def evaluate(y: Point3, t: float, want_b: bool = False,
                     want_e: bool = False):
            return electro.plate_wire_potential(z0, lam, gap, y, medium,
                                               want_e)

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

        def evaluate(y: Point3, t: float, want_b: bool = False,
                     want_e: bool = False):
            return retarded.lienard_wiechert(src, y, t, medium,
                                             want_b and moving, want_e)

        return SourcePart(kind, evaluate, _near_by_distance)

    if kind == "dipole":
        dip = sources.DipoleSource(Point3(*s["position"]),
                                   Vec3(*s["moment"]))

        def evaluate(y: Point3, t: float, want_b: bool = False,
                     want_e: bool = False):
            return electro.dipole_potential(dip, y, medium, want_e)

        return SourcePart(kind, evaluate, _near_by_distance)

    raise ValueError("unhandled source type %r" % kind)


def _near_by_distance(y: Point3, t: float, radius: float, res) -> bool:
    """near() of a part whose result carries its distance to y."""
    return res.diagnostics["distance"] < radius


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
    point = Point3(coords[0], coords[1], coords[2])
    t = coords[3] if len(coords) > 3 else 0.0
    h = scene.fd_step(point.norm())
    outputs = scene.outputs
    want_b = "b" in outputs
    want_e = "e" in outputs or "residual" in outputs
    status = "ok"

    # potentials, and b and e when asked for, at the row point; each sum
    # adds only the terms formed: skipping a +0.0 term moves no bit of a
    # sum that starts at +0.0
    pot_val = (_NAN,) * 4
    b_sum = e_sum = (_NAN,) * 3
    err_val = _NAN
    try:
        results = [part.evaluate(point, t, want_b, want_e) for part in parts]
        ax = ay = az = phi = bx = by = bz = ex = ey = ez = 0.0
        err_val = 0.0
        for res in results:
            ax += res.a.x
            ay += res.a.y
            az += res.a.z
            phi += res.phi
            if res.b is not None:
                bx += res.b.x
                by += res.b.y
                bz += res.b.z
            if res.e is not None:
                ex += res.e.x
                ey += res.e.y
                ez += res.e.z
            err_val += res.error
        pot_val, b_sum, e_sum = (ax, ay, az, phi), (bx, by, bz), (ex, ey, ez)
        if (not all(res.converged for res in results)
                or not math.isfinite(err_val)):
            status = "unconverged"
    except OnSupportError:
        status = "on_support"
    except OutOfDomainError:
        status = "out_of_domain"
    except ConvergenceError:
        status = "unconverged"

    wants_derivative = any(o in outputs for o in _DERIVATIVE_OUTPUTS)
    derivatives_ok = wants_derivative and status == "ok"
    if derivatives_ok and any(part.near(point, t, 3.0 * h, res)
                              for part, res in zip(parts, results)):
        status = "on_support"
        derivatives_ok = False

    b_val = e_val = (_NAN,) * 3
    res_val = res_scale = _NAN
    if derivatives_ok:
        try:
            gauge = []
            if "residual" in outputs:
                gauge = [0.0] * 4
                for part, res in zip(parts, results):
                    terms = part.gauge(point, t, h, res)
                    if terms is not None:
                        for i in range(4):
                            gauge[i] += terms[i]
            formed = ((b_sum if want_b else ())
                      + (e_sum if "e" in outputs else ()) + tuple(gauge))
            if not all(math.isfinite(v) for v in formed):
                raise OnSupportError("derivative not finite at %r" % (point,))
            b_val, e_val = b_sum, e_sum
            if gauge:
                dx, dy, dz, term = gauge
                res_val = dx + dy + dz + term
                res_scale = abs(dx) + abs(dy) + abs(dz) + abs(term)
        except OnSupportError:
            status = "on_support"
        except OutOfDomainError:
            status = "out_of_domain"
        except ConvergenceError:
            status = "unconverged"

    row = [point.x, point.y, point.z]
    if scene.timed:
        row.append(t)
    for out in outputs:
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
    # a row is floats and its status last; repr writes nan, inf and -0.0
    # as format_value does
    for row in rows:
        fh.write(",".join([*map(repr, row[:-1]), row[-1]]) + "\n")


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
