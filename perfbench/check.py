"""Check a field map written by `emsingular run` against `reference`.

For every row the checker recomputes the requested quantities from the
scene alone and compares:

* coordinates: exactly the grid values, in the program's row order;
* potentials (a, phi): within the row's reported `quad_error` plus the
  reference's own error, plus a rounding allowance;
* derivative columns (b, e): the program differentiates its potentials
  by central differences with step h = rel_tol^(1/3) max(1, |point|)
  (and dt = h/c in time).  The same stencil applied to the reference
  potentials shows the truncation error at that row; the program may
  differ from the exact field by twice that, plus the potentials' error
  amplified by the stencil;
* residual: the Lorenz-gauge residual must be below RESIDUAL_SHARE of
  residual_scale and agree with the reference stencil's residual, and
  residual_scale with the reference stencil's scale.

Rows whose status is not `ok` are counted, not compared.
"""

from __future__ import annotations

import math

import numpy as np

import reference
from scenes import grid_rows

RESIDUAL_SHARE = 1e-3
# rounding allowance, relative to the sum of the sources' magnitudes
ROUNDING = 1e-12
# The program's emission-time solve (fields.retarded) stops once a
# Newton step is below this many seconds, and its rows report no error
# for moving charges; see _emission_allowance.
EMISSION_STEP_S = 1e-12


# source types whose potentials come from a quadrature (quad_error > 0)
QUADRATURE_A = {"loop", "helix", "solenoid", "polyline"}
QUADRATURE_PHI = {"plate_wire"}


class MapError(ValueError):
    """The output file does not have the layout the scene implies."""


def expected_columns(scene: dict) -> list[str]:
    cols = ["x", "y", "z"] + (["t"] if "time" in scene["grid"] else [])
    names = {"a": ["a_x", "a_y", "a_z"], "phi": ["phi"],
             "b": ["b_x", "b_y", "b_z"], "e": ["e_x", "e_y", "e_z"],
             "residual": ["residual", "residual_scale"]}
    for out in scene["outputs"]:
        cols += names[out]
    return cols + ["quad_error", "status"]


def parse_map(text: str, scene: dict):
    """(columns, values[n, k] without status, statuses) of a CSV map."""
    lines = text.splitlines()
    comments = [ln for ln in lines[:3] if ln.startswith("# ")]
    if len(comments) != 3 or not comments[0].startswith("# scene_hash: "):
        raise MapError("missing scene_hash/units/sign_conventions header")
    columns = lines[3].split(",")
    if columns != expected_columns(scene):
        raise MapError("columns %r, expected %r"
                       % (columns, expected_columns(scene)))
    values, statuses = [], []
    for ln in lines[4:]:
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise MapError("row with %d cells: %r" % (len(cells), ln))
        values.append([float(c) for c in cells[:-1]])
        statuses.append(cells[-1])
    return columns, np.array(values, dtype=float), statuses


def _emission_allowance(src: dict, phi: np.ndarray) -> np.ndarray:
    """Relative error a moving charge's potentials may carry from the
    emission-time solve.

    After a last Newton step of size d the emission time is off by about
    (v_perp^2 / 2 c D) d^2, D = R_ret (1 - n.beta) = q / (4 pi eps0 phi),
    and phi by v (1 + beta) / D times that.  With d at most
    EMISSION_STEP_S and a factor 4 of margin:
    2 v^3 (1 + beta) d^2 / (c D^2)."""
    v = math.sqrt(sum(c * c for c in src["velocity"]))
    d = abs(src["q"]) / (4.0 * math.pi * reference.EPS0 * np.abs(phi))
    return (2.0 * v ** 3 * (1.0 + v / reference.C0) * EMISSION_STEP_S ** 2
            / (reference.C0 * d * d))


def _fd_step(scene: dict, pts: np.ndarray) -> np.ndarray:
    rel = scene["quadrature"]["rel_tol"]
    return rel ** (1.0 / 3.0) * np.maximum(1.0, np.linalg.norm(pts, axis=1))


def _reference_stencil(scene: dict, pts: np.ndarray, t: np.ndarray,
                       h: np.ndarray, timed: bool) -> dict:
    """Summed reference potentials at each row and its difference
    stencil, exact fields at the row, and the error budget."""
    n = len(pts)
    shifts = [np.zeros(3)] + [s * np.eye(3)[k] for k in range(3)
                              for s in (1.0, -1.0)]
    dt = h / reference.C0
    stencil_pts = [pts + h[:, None] * s[None, :] for s in shifts]
    stencil_t = [t] * len(shifts)
    if timed:
        stencil_pts += [pts, pts]
        stencil_t += [t + dt, t - dt]
    all_pts = np.concatenate(stencil_pts)
    all_t = np.concatenate(stencil_t)
    m = len(stencil_pts)

    a = np.zeros((m, n, 3))
    phi = np.zeros((m, n))
    out = {"b": np.zeros((n, 3)), "e": np.zeros((n, 3)),
           "err_a": np.zeros(n), "err_phi": np.zeros(n),
           "err_a_moving": np.zeros(n), "err_field": np.zeros(n),
           "mag_a": np.zeros(n), "mag_phi": np.zeros(n)}
    for src in scene["sources"]:
        r = reference.evaluate(src, all_pts, all_t)
        a += r["a"].reshape(m, n, 3)
        phi += r["phi"].reshape(m, n)
        err = r["err_pot"].reshape(m, n).max(axis=0)
        a_row = np.linalg.norm(r["a"][:n], axis=1)
        phi_row = np.abs(r["phi"][:n])
        moving = (src["type"] == "point_charge"
                  and any(v != 0.0 for v in src["velocity"]))
        rel = _emission_allowance(src, r["phi"][:n]) if moving else 0.0
        allow_phi, allow_a = rel * phi_row, rel * a_row
        out["err_a"] += err + allow_a
        out["err_phi"] += err + allow_phi
        if moving:
            out["err_a_moving"] += err + allow_a
        out["err_field"] += r["err_field"][:n]
        out["mag_a"] += a_row
        out["mag_phi"] += phi_row
        out["b"] += r["b"][:n]
        out["e"] += r["e"][:n]
    out["a"], out["phi"] = a[0], phi[0]

    grad_a = np.stack([(a[1 + 2 * k] - a[2 + 2 * k]) / (2.0 * h[:, None])
                       for k in range(3)], 1)       # [n, axis, component]
    grad_phi = np.stack([(phi[1 + 2 * k] - phi[2 + 2 * k]) / (2.0 * h)
                         for k in range(3)], 1)
    out["b_fd"] = np.stack([grad_a[:, 1, 2] - grad_a[:, 2, 1],
                            grad_a[:, 2, 0] - grad_a[:, 0, 2],
                            grad_a[:, 0, 1] - grad_a[:, 1, 0]], 1)
    out["e_fd"] = -grad_phi
    div = grad_a[:, 0, 0] + grad_a[:, 1, 1] + grad_a[:, 2, 2]
    scale = np.abs(grad_a[:, 0, 0]) + np.abs(grad_a[:, 1, 1]) \
        + np.abs(grad_a[:, 2, 2])
    if timed:
        out["e_fd"] = out["e_fd"] - (a[7] - a[8]) / (2.0 * dt[:, None])
        term = (phi[7] - phi[8]) / (2.0 * dt) / reference.C0 ** 2
        div, scale = div + term, scale + np.abs(term)
    out["residual_fd"], out["scale_fd"] = div, scale
    return out


def check_map(scene: dict, text: str) -> tuple[int, int, list[str], dict]:
    """(rows, rows not ok, problems, margins) for one output file.

    margins maps each compared quantity to its largest |got - want| / tol
    over the rows: how close the map came to failing."""
    columns, vals, statuses = parse_map(text, scene)
    expect = grid_rows(scene)
    if vals.shape[0] != len(expect):
        raise MapError("%d rows, expected %d" % (vals.shape[0], len(expect)))
    problems = []
    margins = {}
    ncoord = expect.shape[1]
    if not np.array_equal(vals[:, :ncoord], expect):
        problems.append("coordinates differ from the grid")
    col = {name: i for i, name in enumerate(columns)}
    ok = np.array([s == "ok" for s in statuses])
    if not ok.any():
        return len(statuses), len(statuses), problems, margins
    v = vals[ok]
    rows = np.nonzero(ok)[0]
    pts = v[:, :3]
    t = v[:, 3] if ncoord == 4 else np.zeros(len(v))
    timed = ncoord == 4 or any(
        s["type"] == "point_charge" and any(x != 0.0 for x in s["velocity"])
        for s in scene["sources"])
    h = _fd_step(scene, pts)
    ref = _reference_stencil(scene, pts, t, h, timed)
    # quad_error sums every source's estimate, each in its own unit: it
    # bounds a only where a source integrates a, phi only where one
    # integrates phi
    qerr = v[:, col["quad_error"]]
    kinds = {s["type"] for s in scene["sources"]}
    qerr_a = qerr if kinds & QUADRATURE_A else np.zeros_like(qerr)
    qerr_phi = qerr if kinds & QUADRATURE_PHI else np.zeros_like(qerr)

    def compare(name, got, want, tol):
        ratio = np.abs(got - want) / (tol[:, None] if got.ndim == 2 else tol)
        margins[name] = float(np.nanmax(ratio))
        bad = ~(ratio <= 1.0).reshape(len(v), -1).all(axis=1)
        for i in np.nonzero(bad)[0]:
            problems.append("row %d %s: got %r, reference %r (tol %.3g)"
                            % (rows[i], name, got[i].tolist(),
                               want[i].tolist(), tol[i]))

    outs = scene["outputs"]
    if "a" in outs:
        got = v[:, [col["a_x"], col["a_y"], col["a_z"]]]
        compare("a", got, ref["a"],
                qerr_a + ref["err_a"] + ROUNDING * ref["mag_a"])
    if "phi" in outs:
        compare("phi", v[:, col["phi"]], ref["phi"],
                qerr_phi + ref["err_phi"] + ROUNDING * ref["mag_phi"])
    if "b" in outs:
        got = v[:, [col["b_x"], col["b_y"], col["b_z"]]]
        trunc = np.max(np.abs(ref["b_fd"] - ref["b"]), axis=1)
        noise = 4.0 * (qerr_a + ref["err_a"]) / h
        compare("b", got, ref["b"],
                2.0 * trunc + noise + ref["err_field"]
                + ROUNDING * np.linalg.norm(ref["b"], axis=1))
    if "e" in outs:
        got = v[:, [col["e_x"], col["e_y"], col["e_z"]]]
        trunc = np.max(np.abs(ref["e_fd"] - ref["e"]), axis=1)
        noise = (4.0 * (qerr_phi + ref["err_phi"])
                 + 2.0 * reference.C0 * ref["err_a_moving"]) / h
        compare("e", got, ref["e"],
                2.0 * trunc + noise + ref["err_field"]
                + ROUNDING * np.linalg.norm(ref["e"], axis=1))
    if "residual" in outs:
        res = v[:, col["residual"]]
        scale = v[:, col["residual_scale"]]
        noise = 2.0 * (3.0 * (qerr_a + ref["err_a"])
                       + (qerr_phi + ref["err_phi"]) / reference.C0) / h
        compare("residual", res, ref["residual_fd"],
                2.0 * np.abs(ref["residual_fd"]) + noise)
        compare("residual_scale", scale, ref["scale_fd"],
                noise + ROUNDING * ref["scale_fd"])
        share = np.abs(res) / np.where(scale > 0.0, scale, math.inf)
        for i in np.nonzero(~(share <= RESIDUAL_SHARE))[0]:
            problems.append("row %d residual %.3g of residual_scale"
                            % (rows[i], share[i]))
        margins["residual_share"] = float(np.max(share))
    return len(statuses), int((~ok).sum()), problems, margins
