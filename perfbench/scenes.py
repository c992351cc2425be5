"""Seeded scene generation for the three benchmark workloads.

`make_scene(workload, seed)` returns a scene mapping in the program's
input format; `THREADS` gives each workload's `--threads`.  The same
workload and seed always give the same scene: draws come from
`random.Random` seeded with the text "<workload>/<seed>", and every
rejected draw is replaced by the next draw of the same stream.

Each generator places some grid points close to a wire on purpose and
then rejects any scene in which a grid point comes nearer to a source
than `CLEARANCE`.  The program refuses derivatives within three
difference steps of a source (about 6e-3 m here), so the clearance
keeps every row `ok` while still exercising near-singular quadrature.
"""

from __future__ import annotations

import copy
import math
import random

import numpy as np

import reference

CLEARANCE = 0.02          # m, nearest allowed grid point to any wire
CHARGE_CLEARANCE = 0.12   # m, nearest allowed grid point to a charge
QUADRATURE = {"abs_tol": 1e-12, "rel_tol": 1e-9, "max_subdivisions": 2000}

HELIX_LENGTH = 20.0       # m of wire: 1.5-1.7 m of axis at pitch 0.075-0.085

THREADS = {"magneto_bmap": 2, "circuit_amap": 1, "retarded_slab_emap": 1}


def make_scene(workload: str, seed: int) -> dict:
    rng = random.Random("%s/%d" % (workload, seed))
    build = _GENERATORS[workload]
    for _ in range(10000):
        scene = build(rng)
        if scene is not None:
            return scene
    raise RuntimeError("no admissible %s scene for seed %d"
                       % (workload, seed))


def planes(scene: dict) -> list:
    """The scene cut into one scene per value of its outermost grid axis
    (time if present, else z).  Their rows, in order, are the scene's
    rows; running them as separate calls keeps each call short, so the
    speed probes taken between calls follow the machine closely."""
    axis = "time" if "time" in scene["grid"] else "z"
    cuts = []
    for v in axis_values(scene["grid"][axis]):
        cut = copy.deepcopy(scene)
        cut["grid"][axis] = {"start": v, "stop": v, "count": 1}
        cuts.append(cut)
    return cuts


def axis_values(axis: dict) -> list:
    """Grid values exactly as the program forms them."""
    n = axis["count"]
    if n == 1:
        return [axis["start"]]
    step = (axis["stop"] - axis["start"]) / (n - 1)
    return [axis["start"] + k * step for k in range(n)]


def grid_rows(scene: dict) -> np.ndarray:
    """Row coordinates (x, y, z[, t]): time outermost, x fastest."""
    g = scene["grid"]
    xs, ys, zs = (axis_values(g[k]) for k in ("x", "y", "z"))
    ts = axis_values(g["time"]) if "time" in g else None
    rows = [(x, y, z) + ((t,) if ts is not None else ())
            for t in (ts if ts is not None else [None])
            for z in zs for y in ys for x in xs]
    return np.array(rows, dtype=float)


def _axis(start: float, stop: float, count: int) -> dict:
    return {"start": start, "stop": stop, "count": count}


# ---------------------------------------------------------------------------
# distances used by the admissibility checks


def _loop_distance(src: dict, pts: np.ndarray) -> np.ndarray:
    rho = np.hypot(pts[:, 0], pts[:, 1])
    return np.hypot(rho - src["radius"], pts[:, 2] - src["center_z"])


def _sheet_distance(src: dict, pts: np.ndarray) -> np.ndarray:
    rho = np.hypot(pts[:, 0], pts[:, 1])
    z = pts[:, 2]
    dz = np.where(z < 0.0, -z, np.where(z > src["length"],
                                        z - src["length"], 0.0))
    return np.hypot(rho - src["radius"], dz)


def _segment_distance(p0, p1, pts: np.ndarray) -> np.ndarray:
    d = p1 - p0
    u = np.clip(((pts - p0) @ d) / (d @ d), 0.0, 1.0)
    return np.sqrt(np.sum((pts - (p0 + u[:, None] * d)) ** 2, axis=1))


def _polyline_distance(src: dict, pts: np.ndarray) -> np.ndarray:
    v = np.array(src["points"])
    return np.min([_segment_distance(p0, p1, pts)
                   for p0, p1 in zip(v[:-1], v[1:])], axis=0)


# ---------------------------------------------------------------------------
# magneto_bmap: loop + helix + solenoid sheet, outputs [a, b]


def _magneto(rng: random.Random) -> dict | None:
    """Coaxial sources about the z axis on a 6 x 2 x 3 grid.

    The helix runs inside the solenoid sheet and the loop outside it.
    The helix has a fixed length and a pitch in a narrow band, because
    the quadrature work per row grows with the wire's length: it spans
    the grid's z range with 0.3 m or more to spare at each end.
    The helix radius and phase are fitted so the wire passes within
    3-6 cm of grid point (x[3], y[1], z[1]); the loop passes within
    3-6 cm of (x[5], y[0], z[2]) and, by symmetry, of (x[0], y[0], z[2]).
    """
    x_max = rng.uniform(1.8, 2.0)
    xs = _axis(-x_max, x_max, 6)
    y0, y1 = rng.uniform(0.05, 0.15), rng.uniform(0.45, 0.6)
    dz = rng.uniform(0.42, 0.48)
    xv = axis_values(xs)

    # helix: wire at azimuth phi_g reaches height z[1] exactly
    r_g = math.hypot(xv[3], y1)
    phi_g = math.atan2(y1, xv[3])
    radius_h = r_g - rng.uniform(0.03, 0.06)
    pitch = rng.uniform(0.075, 0.085)
    big_p = math.sqrt(1.0 - pitch * pitch) / radius_h
    turn = 2.0 * math.pi * pitch / big_p
    z1 = pitch * phi_g / big_p + turn * round((0.45 - pitch * phi_g / big_p)
                                              / turn)
    zs = _axis(z1 - dz, z1 + dz, 3)
    zv = axis_values(zs)
    helix = {"type": "helix", "radius": radius_h, "pitch": pitch,
             "length": HELIX_LENGTH, "current": rng.uniform(1.0, 4.0),
             "sigma0": (zv[0] - 0.3) / pitch}

    # loop: near the outer grid column at the top z level
    r_l = math.hypot(xv[5], y0)
    gap = rng.uniform(0.03, 0.06)
    tilt = rng.uniform(0.0, 0.5 * math.pi)
    loop = {"type": "loop", "radius": r_l - gap * math.cos(tilt),
            "current": rng.uniform(1.0, 4.0),
            "center_z": zv[2] - gap * math.sin(tilt)}

    sheet = {"type": "solenoid", "radius": rng.uniform(1.4, 1.6),
             "pitch": rng.uniform(0.02, 0.08),
             "length": rng.uniform(0.8, 1.2),
             "kappa0": rng.uniform(10.0, 40.0)}

    scene = {"schema": 1, "quadrature": dict(QUADRATURE),
             "sources": [loop, helix, sheet],
             "grid": {"x": xs, "y": _axis(y0, y1, 2), "z": zs},
             "outputs": ["a", "b"]}
    pts = grid_rows(scene)
    nearest = min(np.min(_loop_distance(loop, pts)),
                  np.min(reference.helix_distance(helix, pts)),
                  np.min(_sheet_distance(sheet, pts)))
    return scene if nearest >= CLEARANCE else None


# ---------------------------------------------------------------------------
# circuit_amap: closed polyline circuits, output [a]


def _circuit(rng: random.Random, n_vertices: int) -> list:
    """A wobbly closed loop: n vertices on a perturbed circle in a
    random plane, the first vertex repeated at the end."""
    radius = rng.uniform(0.5, 0.8)
    center = np.array([rng.uniform(-0.6, 0.6) for _ in range(3)])
    normal = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
    normal /= np.linalg.norm(normal)
    trial = np.array([1.0, 0.0, 0.0]) if abs(normal[0]) < 0.9 \
        else np.array([0.0, 1.0, 0.0])
    u = trial - (trial @ normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    pts = []
    for k in range(n_vertices):
        ang = 2.0 * math.pi * (k + rng.uniform(-0.2, 0.2)) / n_vertices
        r = radius * rng.uniform(0.8, 1.2)
        off = rng.uniform(-0.1, 0.1)
        p = center + r * (math.cos(ang) * u + math.sin(ang) * v) + off * normal
        pts.append([float(c) for c in p])
    pts.append(list(pts[0]))
    return pts


def _circuits(rng: random.Random) -> dict | None:
    """Three circuits of 10-20 vertices, 45 vertices in all, on a
    4 x 4 x 3 grid.  Fixing the total keeps the number of segments, and
    so the work per row, the same for every seed.  The first vertex of
    the first circuit is put 3-6 cm from a grid point."""
    while True:
        n1, n2 = rng.randint(10, 20), rng.randint(10, 20)
        if 10 <= 45 - n1 - n2 <= 20:
            break
    grid = {"x": _axis(rng.uniform(-1.0, -0.8), rng.uniform(0.8, 1.0), 4),
            "y": _axis(rng.uniform(-1.0, -0.8), rng.uniform(0.8, 1.0), 4),
            "z": _axis(rng.uniform(-0.6, -0.4), rng.uniform(0.4, 0.6), 3)}
    scene = {"schema": 1, "quadrature": dict(QUADRATURE), "sources": [],
             "grid": grid, "outputs": ["a"]}
    pts = grid_rows(scene)
    circuits = [_circuit(rng, n) for n in (n1, n2, 45 - n1 - n2)]
    target = pts[rng.randrange(len(pts))]
    direction = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
    near = target + rng.uniform(0.03, 0.06) * direction / np.linalg.norm(
        direction)
    shift = near - np.array(circuits[0][0])
    circuits[0] = [[float(c) for c in np.array(p) + shift]
                   for p in circuits[0]]
    for pts_c in circuits:
        scene["sources"].append({"type": "polyline", "points": pts_c,
                                 "current": rng.uniform(1.0, 4.0)
                                 * rng.choice((-1.0, 1.0))})
    nearest = min(np.min(_polyline_distance(s, pts))
                  for s in scene["sources"])
    return scene if nearest >= CLEARANCE else None


# ---------------------------------------------------------------------------
# retarded_slab_emap: plate wire + moving charges + dipole, timed


def _retarded(rng: random.Random) -> dict | None:
    """A line charge between plates z = 0 and z = gap, three uniformly
    moving charges and a dipole, on a 5 x 2 x 3 grid at 8 times.

    The grid column nearest the wire plane x = 0 sits at 0.2-0.25 gap,
    where the image series needs the most terms (about 35) while its
    reported truncation error still bounds the true one; nearer the
    plane the estimate falls short of the error (see CHANGES.md).  The charges move at 0.2c-0.6c across
    the box during the 2.5 ns of the time axis; none comes nearer than
    CHARGE_CLEARANCE to a grid point at a grid time."""
    gap = rng.uniform(0.9, 1.1)
    z0 = gap * rng.uniform(0.35, 0.65)
    x_near = gap * rng.uniform(0.2, 0.25)
    grid = {"x": _axis(x_near, x_near + rng.uniform(0.9, 1.1), 5),
            "y": _axis(rng.uniform(-0.4, -0.3), rng.uniform(0.3, 0.4), 4),
            "z": _axis(gap * rng.uniform(0.1, 0.15),
                       gap * rng.uniform(0.85, 0.9), 4),
            "time": _axis(0.0, 2.5e-9, 8)}
    sources = [{"type": "plate_wire", "z0": z0,
                "lambda": rng.uniform(0.5e-9, 2e-9), "gap": gap}]
    for _ in range(3):
        speed = rng.uniform(0.2, 0.6) * reference.C0
        theta = rng.uniform(0.0, 2.0 * math.pi)
        ct = rng.uniform(-0.5, 0.5)
        st = math.sqrt(1.0 - ct * ct)
        vel = [speed * st * math.cos(theta), speed * st * math.sin(theta),
               speed * ct]
        mid = [rng.uniform(0.0, 1.2), rng.uniform(-0.5, 0.5),
               gap * rng.uniform(0.2, 0.8)]
        pos = [m - 1.25e-9 * v for m, v in zip(mid, vel)]
        sources.append({"type": "point_charge",
                        "q": rng.uniform(0.5e-10, 2e-10)
                        * rng.choice((-1.0, 1.0)),
                        "position": pos, "velocity": vel})
    sources.append({"type": "dipole",
                    "position": [rng.uniform(-0.4, -0.2),
                                 rng.uniform(-0.2, 0.2),
                                 gap * rng.uniform(0.3, 0.7)],
                    "moment": [rng.uniform(-2e-11, 2e-11) for _ in range(3)]})
    scene = {"schema": 1, "quadrature": dict(QUADRATURE),
             "sources": sources, "grid": grid,
             "outputs": ["phi", "a", "e", "residual"]}
    rows = grid_rows(scene)
    pts, t = rows[:, :3], rows[:, 3]
    wire = np.hypot(pts[:, 0], pts[:, 2] - z0)
    if np.min(wire) < CLEARANCE:
        return None
    for s in sources[1:]:
        if s["type"] == "point_charge":
            at = np.array(s["position"]) + t[:, None] * np.array(
                s["velocity"])[None, :]
        else:
            at = np.array(s["position"])[None, :]
        if np.min(np.linalg.norm(pts - at, axis=1)) < CHARGE_CLEARANCE:
            return None
    return scene


_GENERATORS = {"magneto_bmap": _magneto, "circuit_amap": _circuits,
               "retarded_slab_emap": _retarded}
WORKLOADS = tuple(_GENERATORS)
