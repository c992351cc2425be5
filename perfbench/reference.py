"""Independent reference values for the benchmark's correctness check.

Nothing here imports emsingular: every source is recomputed from the
scene description with closed forms (elliptic integrals, logarithms,
the Heaviside-Feynman field of a uniformly moving charge) or with dense
Gauss-Legendre quadrature written with numpy, so that a fault in the
program's quadrature engines cannot hide in its own check.

Each `<type>(src, pts, t)` takes a scene source mapping, field points
`pts` of shape (n, 3) and times `t` of shape (n,), and returns a dict of
arrays:

    a, phi         potentials (tesla meter, volt)
    b, e           exact fields b = curl a, e = -grad phi - da/dt
    err_pot        absolute error bound of a and phi, per point
    err_field      absolute error bound of b and e, per point

A field a reference does not compute is NaN, so that a check against
it fails rather than passes.

SI vacuum throughout: mu0 = 4e-7 pi, c = 299792458, eps0 = 1/(mu0 c^2).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ellipe, ellipk

MU0 = 4.0e-7 * math.pi
C0 = 299792458.0
EPS0 = 1.0 / (MU0 * C0 * C0)

# relative rounding allowance of a closed form evaluated in doubles
_ROUND = 1e-14
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _result(n: int) -> dict:
    return {"a": np.zeros((n, 3)), "phi": np.zeros(n),
            "b": np.zeros((n, 3)), "e": np.zeros((n, 3)),
            "err_pot": np.zeros(n), "err_field": np.zeros(n)}


def _cyl(pts: np.ndarray, center_z: float = 0.0):
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2] - center_z
    rho = np.hypot(x, y)
    phi = np.arctan2(y, x)
    return rho, phi, z, np.cos(phi), np.sin(phi)


# ---------------------------------------------------------------------------
# circular loop: complete elliptic integrals


def _bracket(m: np.ndarray, K: np.ndarray, E: np.ndarray) -> np.ndarray:
    """(1 - m/2) K(m) - E(m) without the O(m^2) cancellation at small m.

    Below m = 0.3 the power series pi/2 sum_n g_n m^n is summed, with
    g_n = 2n/(2n-1) c_n - c_{n-1}/2 and c_n = ((2n)!/(4^n n!^2))^2 the
    coefficients of K; every g_n is positive, so nothing cancels.
    """
    out = (1.0 - 0.5 * m) * K - E
    small = m < 0.3
    if np.any(small):
        ms = m[small]
        total = np.zeros_like(ms)
        c_prev, c_n, power = 1.0, 0.25, ms.copy()
        for n in range(1, 80):
            if n > 1:
                c_prev, c_n = c_n, c_n * ((2 * n - 1) / (2 * n)) ** 2
            total += (2 * n / (2 * n - 1) * c_n - 0.5 * c_prev) * power
            power = power * ms
        out[small] = 0.5 * math.pi * total
    return out


def _ring(radius: float, current: float, rho, z):
    """(a_phi, b_rho, b_z, err_a, err_b) of a ring about the z axis.

    Closed forms with alpha^2 = (radius - rho)^2 + z^2 and
    beta^2 = (radius + rho)^2 + z^2, m = 1 - alpha^2 / beta^2:

        a_phi = (mu0 I / pi) beta / (2 rho) [(1 - m/2) K - E]
        b_rho = (mu0 I / pi) z / (2 alpha^2 beta rho)
                [(radius^2 + rho^2 + z^2) E - alpha^2 K]
        b_z   = (mu0 I / pi) / (2 alpha^2 beta)
                [(radius^2 - rho^2 - z^2) E + alpha^2 K]
    """
    a = radius
    c = MU0 * current / math.pi
    s = a * a + rho * rho + z * z
    alpha2 = (a - rho) ** 2 + z * z
    beta2 = (a + rho) ** 2 + z * z
    beta = np.sqrt(beta2)
    m = 4.0 * a * rho / beta2
    K, E = ellipk(m), ellipe(m)
    on_axis = rho == 0.0
    safe_rho = np.where(on_axis, 1.0, rho)
    a_phi = np.where(on_axis, 0.0,
                     c * beta / (2.0 * safe_rho) * _bracket(m, K, E))
    b_rho = np.where(on_axis, 0.0,
                     c * z / (2.0 * alpha2 * beta * safe_rho)
                     * (s * E - alpha2 * K))
    b_z = c / (2.0 * alpha2 * beta) * ((a * a - rho * rho - z * z) * E
                                       + alpha2 * K)
    # rounding of K and E, propagated through the unreduced terms
    scale_b = abs(c) * (s * E + alpha2 * K) / (2.0 * alpha2 * beta)
    err_b = _ROUND * scale_b * (1.0 + np.abs(z) / safe_rho)
    err_a = _ROUND * np.abs(a_phi)
    return a_phi, b_rho, b_z, err_a, err_b


def loop(src: dict, pts: np.ndarray, t: np.ndarray) -> dict:
    rho, _, z, cph, sph = _cyl(pts, src["center_z"])
    a_phi, b_rho, b_z, err_a, err_b = _ring(src["radius"], src["current"],
                                            rho, z)
    out = _result(len(pts))
    out["a"] = np.stack([-a_phi * sph, a_phi * cph, np.zeros_like(a_phi)], 1)
    out["b"] = np.stack([b_rho * cph, b_rho * sph, b_z], 1)
    out["err_pot"], out["err_field"] = err_a, err_b
    return out


# ---------------------------------------------------------------------------
# dense Gauss-Legendre rules


def graded_rule(lo: float, hi: float, center: float, width: float):
    """20-point Gauss-Legendre panels on [lo, hi], graded away from
    `center`: the panels touching it are `width` wide and each further
    panel doubles, so a panel's width never exceeds its distance from
    the center plus `width`.  A complex singularity at distance about
    `width` from the center is then resolved to rounding.
    """
    center = min(max(center, lo), hi)
    edges = [center]
    step = width
    while edges[-1] < hi:
        edges.append(min(hi, edges[-1] + step))
        step *= 2.0
    left = [center]
    step = width
    while left[-1] > lo:
        left.append(max(lo, left[-1] - step))
        step *= 2.0
    cuts = np.array(sorted(set(left) | set(edges)))
    a, b = cuts[:-1], cuts[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def uniform_rule(lo: float, hi: float, width: float):
    n = max(1, int(math.ceil((hi - lo) / width)))
    cuts = np.linspace(lo, hi, n + 1)
    half = 0.5 * (cuts[1:] - cuts[:-1])
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    weights = (half[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# finite solenoid sheet: ring superposition plus the axial current


def _ring_superposition(src: dict, rho: float, z: float, width: float):
    a, length = src["radius"], src["length"]
    k_phi = src["kappa0"] * math.sqrt(1.0 - src["pitch"] ** 2)
    zp, w = graded_rule(0.0, length, z, width)
    a_phi, b_rho, b_z, _, _ = _ring(a, k_phi, np.full_like(zp, rho), z - zp)
    return np.array([w @ a_phi, w @ b_rho, w @ b_z])


def _axial_sheet(src: dict, rho: float, z: float, width: float):
    """(a_z, b_phi) of the axial current kappa0 p on the cylinder.

    The axial integral of 1/R is done in closed form (inverse hyperbolic
    sines); the azimuthal one by graded quadrature on [0, pi], doubled
    by symmetry.  b_phi = -d a_z / d rho is differentiated under the
    integral sign.
    """
    a, length = src["radius"], src["length"]
    k_z = src["kappa0"] * src["pitch"]
    u, w = graded_rule(0.0, math.pi, 0.0, width)
    c1 = rho * rho + a * a - 2.0 * rho * a * np.cos(u)
    sq = np.sqrt(c1)
    f = np.arcsinh(z / sq) - np.arcsinh((z - length) / sq)
    zl = z - length
    df = ((-z / (c1 * np.sqrt(c1 + z * z))
           + zl / (c1 * np.sqrt(c1 + zl * zl))) * (rho - a * np.cos(u)))
    pref = 2.0 * MU0 * k_z * a / (4.0 * math.pi)
    return np.array([pref * (w @ f), -pref * (w @ df)])


def solenoid(src: dict, pts: np.ndarray, t: np.ndarray) -> dict:
    a, length = src["radius"], src["length"]
    rho, _, z, cph, sph = _cyl(pts)
    out = _result(len(pts))
    for i in range(len(pts)):
        r, zz = rho[i], z[i]
        dz = 0.0 if 0.0 <= zz <= length else min(abs(zz), abs(zz - length))
        gap = max(math.hypot(r - a, dz), 1e-6)
        wz = gap
        wu = max(gap / math.sqrt(max(r * a, 1e-12)), 1e-6)
        fine = np.concatenate([_ring_superposition(src, r, zz, wz),
                               _axial_sheet(src, r, zz, wu)])
        coarse = np.concatenate([_ring_superposition(src, r, zz, 2 * wz),
                                 _axial_sheet(src, r, zz, 2 * wu)])
        a_phi, b_rho, b_z, a_z, b_phi = fine
        diff = np.abs(fine - coarse)
        out["a"][i] = (-a_phi * sph[i], a_phi * cph[i], a_z)
        out["b"][i] = (b_rho * cph[i] - b_phi * sph[i],
                       b_rho * sph[i] + b_phi * cph[i], b_z)
        out["err_pot"][i] = (diff[0] + diff[3]
                             + _ROUND * (abs(a_phi) + abs(a_z)))
        out["err_field"][i] = (diff[1] + diff[2] + diff[4]
                               + _ROUND * (abs(b_rho) + abs(b_z)
                                           + abs(b_phi)))
    return out


# ---------------------------------------------------------------------------
# helical wire: dense quadrature of the line integral


def helix_point(src: dict, s: np.ndarray) -> np.ndarray:
    a, p = src["radius"], src["pitch"]
    big_p = math.sqrt(1.0 - p * p) / a
    return np.stack([a * np.cos(big_p * s), a * np.sin(big_p * s), p * s], -1)


def helix_distance(src: dict, pts: np.ndarray) -> np.ndarray:
    """Distance from each point to the wire, to about 1e-6 m.

    Dense sampling brackets the nearest parameter; a few golden-section
    steps on the squared distance refine it."""
    s0 = src["sigma0"]
    s1 = s0 + src["length"]
    s = np.linspace(s0, s1, int(src["length"] / 2e-3) + 2)
    curve = helix_point(src, s)
    step = s[1] - s[0]
    out = np.empty(len(pts))
    for i, y in enumerate(pts):
        d2 = np.sum((curve - y) ** 2, axis=1)
        k = int(np.argmin(d2))
        lo, hi = max(s0, s[k] - step), min(s1, s[k] + step)
        g = 0.5 * (math.sqrt(5.0) - 1.0)
        for _ in range(40):
            m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
            p1, p2 = helix_point(src, np.array([m1, m2]))
            if np.sum((p1 - y) ** 2) < np.sum((p2 - y) ** 2):
                hi = m2
            else:
                lo = m1
        pm = helix_point(src, np.array([0.5 * (lo + hi)]))[0]
        out[i] = min(math.sqrt(np.sum((pm - y) ** 2)), math.sqrt(d2[k]))
    return out


def _helix_integrals(src: dict, y: np.ndarray, width: float):
    a, p = src["radius"], src["pitch"]
    big_p = math.sqrt(1.0 - p * p) / a
    s, w = uniform_rule(src["sigma0"], src["sigma0"] + src["length"], width)
    x = helix_point(src, s)
    tan = np.stack([-a * big_p * np.sin(big_p * s),
                    a * big_p * np.cos(big_p * s), np.full_like(s, p)], -1)
    sep = y - x
    r = np.sqrt(np.sum(sep * sep, axis=1))
    pref = MU0 * src["current"] / (4.0 * math.pi)
    a_vec = pref * (w / r) @ tan
    b_vec = pref * (w / r ** 3) @ np.cross(tan, sep)
    return a_vec, b_vec, pref * np.sum(w / r)


def helix(src: dict, pts: np.ndarray, t: np.ndarray) -> dict:
    out = _result(len(pts))
    dist = helix_distance(src, pts)
    for i, y in enumerate(pts):
        width = min(max(dist[i], 1e-3), 0.25)
        a_f, b_f, size = _helix_integrals(src, y, width)
        a_c, b_c, _ = _helix_integrals(src, y, 2.0 * width)
        out["a"][i], out["b"][i] = a_f, b_f
        out["err_pot"][i] = np.max(np.abs(a_f - a_c)) + _ROUND * size
        out["err_field"][i] = (np.max(np.abs(b_f - b_c))
                               + _ROUND * size / dist[i] ** 2)
    return out


# ---------------------------------------------------------------------------
# polyline: closed form of a straight segment


def segment_integral(p0: np.ndarray, p1: np.ndarray, pts: np.ndarray):
    """int_0^L ds / |y - p0 - s u| for each point y; u the unit direction.

    asinh((L - l)/d) + asinh(l/d) with l the projection of y - p0 on u
    and d the distance from the line."""
    d_vec = p1 - p0
    length = math.sqrt(d_vec @ d_vec)
    u = d_vec / length
    rel = pts - p0
    proj = rel @ u
    perp = np.sqrt(np.sum(np.cross(rel, u) ** 2, axis=1))
    return np.arcsinh((length - proj) / perp) + np.arcsinh(proj / perp), u


def polyline(src: dict, pts: np.ndarray, t: np.ndarray) -> dict:
    vertices = np.array(src["points"], dtype=float)
    if src.get("closed"):
        vertices = np.vstack([vertices, vertices[:1]])
    out = _result(len(pts))
    pref = MU0 * src["current"] / (4.0 * math.pi)
    size = np.zeros(len(pts))
    for p0, p1 in zip(vertices[:-1], vertices[1:]):
        val, u = segment_integral(p0, p1, pts)
        out["a"] += pref * val[:, None] * u[None, :]
        size += np.abs(pref * val)
    out["b"][:] = np.nan
    out["err_pot"] = _ROUND * size
    return out


# ---------------------------------------------------------------------------
# line charge between grounded plates: logarithmic closed form


def plate_wire(src: dict, pts: np.ndarray, t: np.ndarray) -> dict:
    """phi = (lam / 4 pi eps0) ln(N / D) with

        N = (1 - q)^2 + 4 q sin^2((b + c)/2),
        D = (1 - q)^2 + 4 q sin^2((b - c)/2),

    q = exp(-pi |x| / L), b = pi z / L, c = pi z0 / L: the image series
    summed in closed form, written so that nothing cancels near the wire.
    e = -grad phi from the analytic derivatives of N and D.
    """
    length, z0, lam = src["gap"], src["z0"], src["lambda"]
    x, z = pts[:, 0], pts[:, 2]
    k = math.pi / length
    q = np.exp(-k * np.abs(x))
    omq = -np.expm1(-k * np.abs(x))
    b, c = k * z, k * z0
    sp, sm = np.sin(0.5 * (b + c)), np.sin(0.5 * (b - c))
    n = omq * omq + 4.0 * q * sp * sp
    d = omq * omq + 4.0 * q * sm * sm
    pref = lam / (4.0 * math.pi * EPS0)
    out = _result(len(pts))
    out["phi"] = pref * np.log(n / d)
    dq_dx = -k * q * np.sign(x)
    dn_dq = -2.0 * omq + 4.0 * sp * sp
    dd_dq = -2.0 * omq + 4.0 * sm * sm
    dphi_dx = pref * (dn_dq / n - dd_dq / d) * dq_dx
    dphi_dz = pref * k * (2.0 * q * np.sin(b + c) / n
                          - 2.0 * q * np.sin(b - c) / d)
    out["e"] = np.stack([-dphi_dx, np.zeros_like(x), -dphi_dz], 1)
    out["err_pot"] = _ROUND * np.abs(pref) * (np.abs(np.log(n)) + np.abs(np.log(d)))
    out["err_field"] = _ROUND * (np.abs(dphi_dx) + np.abs(dphi_dz)
                                 + np.abs(pref) * k * (1.0 / n + 1.0 / d))
    return out


# ---------------------------------------------------------------------------
# uniformly moving point charge: Heaviside-Feynman


def point_charge(src: dict, pts: np.ndarray, t: np.ndarray) -> dict:
    """Fields of q moving as x0 + v t, from its present position.

        phi = q / (4 pi eps0 sqrt(R^2 - |beta x R|^2)),   a = v phi / c^2
        e   = q (1 - beta^2) R / (4 pi eps0 (R^2 - |beta x R|^2)^(3/2))

    with R = y - x(t).  At v = 0 this is Coulomb's field.
    """
    q = src["q"]
    v = np.array(src["velocity"], dtype=float)
    beta = v / C0
    rel = pts - (np.array(src["position"]) + t[:, None] * v[None, :])
    r2 = np.sum(rel * rel, axis=1)
    cross2 = np.sum(np.cross(beta, rel) ** 2, axis=1)
    s = r2 - cross2
    k = q / (4.0 * math.pi * EPS0)
    out = _result(len(pts))
    out["phi"] = k / np.sqrt(s)
    out["a"] = out["phi"][:, None] * v[None, :] / (C0 * C0)
    out["e"] = (k * (1.0 - beta @ beta) / s ** 1.5)[:, None] * rel
    out["b"][:] = np.nan
    out["err_pot"] = _ROUND * np.abs(out["phi"])
    out["err_field"] = _ROUND * np.abs(k) / s
    return out


def dipole(src: dict, pts: np.ndarray, t: np.ndarray) -> dict:
    """Ideal dipole: phi = p.R / (4 pi eps0 R^3),
    e = (3 (p.n) n - p) / (4 pi eps0 R^3)."""
    p = np.array(src["moment"], dtype=float)
    rel = pts - np.array(src["position"], dtype=float)
    r = np.sqrt(np.sum(rel * rel, axis=1))
    n = rel / r[:, None]
    k = 1.0 / (4.0 * math.pi * EPS0)
    out = _result(len(pts))
    out["phi"] = k * (rel @ p) / r ** 3
    out["e"] = k * (3.0 * (n @ p)[:, None] * n - p[None, :]) / r[:, None] ** 3
    size = k * math.sqrt(p @ p) / r ** 2
    out["err_pot"] = _ROUND * size
    out["err_field"] = _ROUND * 3.0 * size / r
    return out


EVALUATORS = {"loop": loop, "helix": helix, "solenoid": solenoid,
              "polyline": polyline, "plate_wire": plate_wire,
              "point_charge": point_charge, "dipole": dipole}


def evaluate(src: dict, pts: np.ndarray, t: np.ndarray) -> dict:
    return EVALUATORS[src["type"]](src, pts, t)
