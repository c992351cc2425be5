"""Built-in verification suite.

Each check pairs a library evaluation against an independent oracle:
closed forms where they exist, brute-force discretizations (segment
sums, image sums, k-quadrature) where they do not.  The oracles use
none of the specialized evaluator code paths, so a sign or prefactor
mutation in the library cannot silently cancel.

Exposed both as `emsingular selfcheck` and to the test suite.  Every
check enforces its own wall-clock budget, so a pathological slowdown
fails loudly rather than being waved through.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import exterior3, kernels
from .fields import electro, magneto, retarded
from .fields.medium import C0, EPS0, MU0, VACUUM
from .geometry import Point3, Vec3
from .quad import QuadConfig, integrate_adaptive, sum_series
from .sources import (DipoleSource, solenoid_sheet, crossing_density,
                      uniform_point_charge, static_point_charge)

FOUR_PI = 4.0 * math.pi


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return "%s %-24s %6.2fs  %s" % (tag, self.name, self.seconds,
                                        self.detail)


def _fd_h(point: Point3, rel_tol: float = 1e-9) -> float:
    """Difference step matched to quadrature noise."""
    return rel_tol ** (1.0 / 3.0) * max(1.0, point.norm())


# ---------------------------------------------------------------------------
# 1. static limit of the moving-charge potentials


def check_coulomb_limit() -> CheckResult:
    start = time.perf_counter()
    rng = random.Random(20240811)
    src = static_point_charge(1.0, Point3(0.0, 0.0, 0.0))
    worst = 0.0
    for _ in range(20):
        y = Point3(rng.uniform(-3, 3), rng.uniform(-3, 3),
                   rng.uniform(-3, 3))
        if y.norm() < 0.2:
            y = Point3(y.x + 1.0, y.y, y.z)
        got = retarded.lienard_wiechert(src, y, rng.uniform(-5, 5)).phi
        want = 1.0 / (FOUR_PI * EPS0 * y.norm())
        worst = max(worst, abs(got - want) / abs(want))
    dt = time.perf_counter() - start
    ok = worst <= 1e-12 and dt < 1.0
    return CheckResult("coulomb_limit", ok,
                       "worst rel err %.3g (tol 1e-12)" % worst, dt)


# ---------------------------------------------------------------------------
# 2. loop on axis against closed form and segment sum


def _segment_loop_bz_on_axis(a: float, current: float, z: float,
                             n: int) -> float:
    """Biot-Savart over n straight segments of the circle; independent
    of every library code path (pure numpy)."""
    phi = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    dphi = 2.0 * np.pi / n
    # segment midpoints and directed lengths
    px, py = a * np.cos(phi), a * np.sin(phi)
    dlx, dly = -a * np.sin(phi) * dphi, a * np.cos(phi) * dphi
    rx, ry, rz = -px, -py, z - 0.0
    r3 = (rx * rx + ry * ry + rz * rz) ** 1.5
    # z component of dl x r
    cz = dlx * ry - dly * rx
    return MU0 * current / FOUR_PI * float(np.sum(cz / r3))


def check_loop_on_axis() -> CheckResult:
    start = time.perf_counter()
    a, current = 1.0, 1.0
    cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-11)
    b_of = magneto.derive_b(
        lambda p: magneto.loop_potential(a, current, p, cfg).a, h=1e-4)
    worst_cf = worst_seg = 0.0
    for ratio in (0.0, 0.5, 1.0, 2.0, 5.0):
        z = ratio * a
        got = b_of(Point3(0.0, 0.0, z)).z
        closed = MU0 * current * a * a / (2.0 * (a * a + z * z) ** 1.5)
        seg = _segment_loop_bz_on_axis(a, current, z, 1_000_000)
        worst_cf = max(worst_cf, abs(got - closed) / closed)
        worst_seg = max(worst_seg, abs(got - seg) / abs(seg))
    dt = time.perf_counter() - start
    ok = worst_cf <= 1e-5 and worst_seg <= 1e-5 and dt < 5.0
    return CheckResult(
        "loop_on_axis", ok,
        "closed form %.3g, segment sum %.3g (tol 1e-5)"
        % (worst_cf, worst_seg), dt)


# ---------------------------------------------------------------------------
# 3. single-turn helix degenerates to the loop


def check_helix_degeneration() -> CheckResult:
    start = time.perf_counter()
    a, current, p = 1.0, 1.0, 1e-3
    big_p = math.sqrt(1.0 - p * p) / a
    length = 2.0 * math.pi / big_p
    rise = p * length
    cfg = QuadConfig(abs_tol=1e-13, rel_tol=1e-10)
    # field points in the helix midplane, where the half-pitch offset
    # enters only at second order
    zc = 0.5 * rise
    pts = [(0.3, 0.0), (0.45, 1.0), (0.6, 2.2), (0.7, 3.1), (0.5, 4.0),
           (1.6, 0.7), (2.0, 1.9), (2.5, 2.8), (3.0, 5.0), (1.8, 4.4)]
    worst = 0.0
    for r, ang in pts:
        y = Point3(r * math.cos(ang), r * math.sin(ang), zc)
        got = magneto.helix_potential(a, p, length, current, y,
                                      cfg).a_cyl()[1]
        want = magneto.loop_potential(a, current, y, cfg,
                                      center_z=zc).a_cyl()[1]
        worst = max(worst, abs(got - want) / abs(want))
    dt = time.perf_counter() - start
    ok = worst <= 1e-3 and dt < 10.0
    return CheckResult("helix_degeneration", ok,
                       "worst rel diff %.3g (tol 1e-3)" % worst, dt)


# ---------------------------------------------------------------------------
# 4. long solenoid sheet


def _ring_stack_bz(a: float, ring_current: float, centers: np.ndarray,
                   y: Point3, nseg: int = 2000) -> Vec3:
    """Field of a stack of circular rings by segment summation."""
    phi = (np.arange(nseg) + 0.5) * (2.0 * np.pi / nseg)
    dphi = 2.0 * np.pi / nseg
    px, py = a * np.cos(phi), a * np.sin(phi)
    dlx, dly = -a * np.sin(phi) * dphi, a * np.cos(phi) * dphi
    bx = by = bz = 0.0
    for zc in centers:
        rx, ry, rz = y.x - px, y.y - py, y.z - zc
        r3 = (rx * rx + ry * ry + rz * rz) ** 1.5
        bx += float(np.sum((dly * rz) / r3))
        by += float(np.sum((-dlx * rz) / r3))
        bz += float(np.sum((dlx * ry - dly * rx) / r3))
    k = MU0 * ring_current / FOUR_PI
    return Vec3(k * bx, k * by, k * bz)


def check_long_solenoid() -> CheckResult:
    start = time.perf_counter()
    a, length, kappa0 = 1.0, 100.0, 1.0
    sheet = solenoid_sheet(a, 0.0, length, kappa0)
    # azimuthal current per unit axial length, read off the source
    k_eff = crossing_density(sheet, 0.0, 0.5 * length, Vec3(0.0, 0.0, 1.0))
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-9)
    b_of = magneto.derive_b(
        lambda p: magneto.solenoid_potential(a, 0.0, length, kappa0, p,
                                             cfg).a, h=1e-3)

    mid = Point3(0.0, 0.0, 0.5 * length)
    b_mid = b_of(mid).z
    want = VACUUM.mu * k_eff
    rel_interior = abs(b_mid - want) / abs(want)

    n_rings = 200
    centers = (np.arange(n_rings) + 0.5) * (length / n_rings)
    ring_current = k_eff * (length / n_rings)
    b_rings = _ring_stack_bz(a, ring_current, centers, mid)
    rel_rings = abs(b_mid - b_rings.z) / abs(b_rings.z)

    ext = Point3(10.0 * a, 0.0, 0.5 * length)
    b_ext = b_of(ext)
    ext_frac = b_ext.norm() / abs(b_mid)

    dt = time.perf_counter() - start
    ok = (rel_interior <= 0.01 and rel_rings <= 0.01
          and ext_frac < 0.01 and dt < 30.0)
    return CheckResult(
        "long_solenoid", ok,
        "interior vs mu0*K %.3g, vs 200 rings %.3g, exterior/interior "
        "%.3g" % (rel_interior, rel_rings, ext_frac), dt)


# ---------------------------------------------------------------------------
# 5. plate Green function against k-quadrature


def _j0_numeric(x: float) -> float:
    """Bessel J0 by composite Simpson on its cosine integral form.

    Node count grows with |x| so the oscillations stay resolved; this
    deliberately shares nothing with the modified-Bessel code under
    test."""
    n = 96 + 48 * int(abs(x))
    if n % 2:
        n += 1
    t = np.linspace(0.0, 0.5 * np.pi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    h = (0.5 * np.pi) / n
    return float((2.0 / np.pi) * (h / 3.0)
                 * np.sum(w * np.cos(x * np.sin(t))))


def _plate_green_kquad(rho: float, z: float, zp: float, L: float) -> float:
    """Dirichlet slab Green function as a transverse wavenumber
    integral: (1/2pi) int J0(k rho) sinh(k z<) sinh(k (L - z>)) /
    sinh(k L) dk, with the sinh ratio evaluated in decaying
    exponentials."""
    z_lo, z_hi = min(z, zp), max(z, zp)
    d = z_hi - z_lo
    s = z_lo + z_hi
    decay = min(d if d > 0 else math.inf, s, 2.0 * L - s)
    kmax = 40.0 / decay

    def ratio(k: float) -> float:
        if k < 1e-12:
            return k * z_lo * (L - z_hi) / L
        e = math.exp
        num = (e(-k * d) + e(-k * (2 * L - d))
               - e(-k * (2 * L - s)) - e(-k * s))
        return 0.5 * num / (1.0 - e(-2.0 * k * L))

    cfg = QuadConfig(abs_tol=1e-13, rel_tol=1e-9)
    res = integrate_adaptive(
        lambda k: _j0_numeric(k * rho) * ratio(k), 0.0, kmax, cfg)
    return res.value / (2.0 * math.pi)


def check_plate_green() -> CheckResult:
    start = time.perf_counter()
    L = 1.0
    pairs = [(0.30, 0.40, 0.60), (0.25, 0.30, 0.50), (0.40, 0.70, 0.30),
             (0.35, 0.55, 0.45), (0.50, 0.62, 0.38)]
    worst = 0.0
    interior_scale = 0.0
    for rho, z, zp in pairs:
        got = kernels.plate_green(Point3(rho, 0.0, z), Point3(0.0, 0.0, zp),
                                  kernels.PlateGreen(L))
        want = _plate_green_kquad(rho, z, zp, L)
        worst = max(worst, abs(got - want) / abs(want))
        interior_scale = max(interior_scale, abs(got))
    boundary = max(
        abs(kernels.plate_green(Point3(0.3, 0.0, 0.0), Point3(0.0, 0.0, 0.5),
                                kernels.PlateGreen(L))),
        abs(kernels.plate_green(Point3(0.3, 0.0, L), Point3(0.0, 0.0, 0.5),
                                kernels.PlateGreen(L))))
    dt = time.perf_counter() - start
    ok = (worst <= 1e-6 and boundary < 1e-8 * interior_scale and dt < 10.0)
    return CheckResult(
        "plate_green", ok,
        "worst vs k-quadrature %.3g (tol 1e-6), boundary %.3g" %
        (worst, boundary), dt)


# ---------------------------------------------------------------------------
# 6. charged wire between plates


def check_plate_wire() -> CheckResult:
    start = time.perf_counter()
    L, z0, lam = 1.0, 0.37, 1.0
    green = kernels.PlateGreen(L, tol=1e-13)
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-9)
    qcfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-8)

    def oracle(y: Point3) -> float:
        # integrate the slab Green function along the wire; the kernel
        # decays like exp(-pi rho / L), so +-15 L covers it
        def g(yp: float) -> float:
            src = Point3(0.0, yp, z0)
            return kernels.plate_green(Point3(y.x, 0.0, y.z), src, green)

        res = integrate_adaptive(g, -15.0 * L, 15.0 * L, qcfg)
        return lam / EPS0 * res.value

    pts = [Point3(0.20, 0.0, 0.55), Point3(-0.30, 0.0, 0.20),
           Point3(0.15, 0.0, 0.37), Point3(0.40, 0.0, 0.80),
           Point3(-0.25, 0.0, 0.64), Point3(0.35, 0.0, 0.15),
           Point3(0.10, 0.0, 0.45), Point3(-0.18, 0.0, 0.33),
           Point3(0.28, 0.0, 0.71), Point3(0.22, 0.0, 0.26)]
    worst = 0.0
    for y in pts:
        got = electro.plate_wire_potential(z0, lam, L, y).phi
        want = oracle(y)
        worst = max(worst, abs(got - want) / abs(want))

    # near the wire plane the Green quadrature is slow; sum the image
    # series term by term instead: (lam / pi eps) sum q^n/n sin(nb) sin(nc)
    y_near = Point3(1e-3 * L, 0.0, 0.55)
    got_near = electro.plate_wire_potential(z0, lam, L, y_near).phi
    q = math.exp(-math.pi * y_near.x / L)
    b, c = math.pi * y_near.z / L, math.pi * z0 / L
    series = sum_series(lambda n: q ** n / n * math.sin(n * b)
                        * math.sin(n * c), cfg, consecutive=4)
    want_near = lam / (math.pi * EPS0) * series.value
    near_rel = abs(got_near - want_near) / abs(want_near)

    dt = time.perf_counter() - start
    ok = (worst <= 1e-5 and near_rel <= 1e-4 and series.converged
          and dt < 10.0)
    return CheckResult(
        "plate_wire", ok,
        "worst vs Green quadrature %.3g (tol 1e-5), near-wire image "
        "series %.3g (tol 1e-4)" % (worst, near_rel), dt)


# ---------------------------------------------------------------------------
# 7. circulation around the loop wire


def check_ampere() -> CheckResult:
    start = time.perf_counter()
    a, current = 1.0, 1.0
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-9)
    b_of = magneto.derive_b(
        lambda p: magneto.loop_potential(a, current, p, cfg).a, h=1e-4)
    h_of = magneto.magnetic_h(b_of)
    ccfg = QuadConfig(abs_tol=1e-9, rel_tol=1e-6)

    # small circle threading the wire at (a, 0, 0); wire current flows
    # along +y there, circuit oriented around +y
    linking = magneto.circle_circuit(Point3(a, 0.0, 0.0),
                                     Vec3(0.0, 1.0, 0.0), 0.3, links=1)
    circ, resid = magneto.ampere_residual(linking, h_of, current, ccfg)
    rel_link = abs(resid) / current

    distant = magneto.circle_circuit(Point3(4.0, 0.0, 0.0),
                                     Vec3(0.0, 1.0, 0.0), 0.5, links=0)
    circ0 = magneto.circulation(distant, h_of, ccfg)
    rel_nolink = abs(circ0) / current

    dt = time.perf_counter() - start
    ok = rel_link <= 0.005 and rel_nolink < 0.005 and dt < 10.0
    return CheckResult(
        "ampere_circuits", ok,
        "linking residual %.3g of I, non-linking %.3g of I (tol 0.005)"
        % (rel_link, rel_nolink), dt)


# ---------------------------------------------------------------------------
# 8. gauge residuals


def _div_a_residual(a_of, y: Point3, h: float) -> tuple[float, float]:
    div = 0.0
    scale = 0.0
    for ax in range(3):
        hi = a_of(y.shifted(ax, +h)).as_tuple()[ax]
        lo = a_of(y.shifted(ax, -h)).as_tuple()[ax]
        d = (hi - lo) / (2.0 * h)
        div += d
        scale += abs(d)
    return div, scale


def check_gauge_residuals() -> CheckResult:
    start = time.perf_counter()
    cfg = QuadConfig(abs_tol=1e-13, rel_tol=1e-10)
    a_loop = lambda p: magneto.loop_potential(1.0, 1.0, p, cfg).a  # noqa: E731
    big_p = math.sqrt(1.0 - 0.04) / 1.0
    helix_len = 3.0 * 2.0 * math.pi / big_p
    a_helix = lambda p: magneto.helix_potential(  # noqa: E731
        1.0, 0.2, helix_len, 1.0, p, cfg).a

    # The loop is a closed curve, so div A vanishes everywhere off the wire
    # and we sample z freely.  The helix evaluator covers a finite chart
    # window; an open current segment carries endpoint terms
    #   div A = -(mu0 Ieff / 4pi) (1/R_end - 1/R_start),
    # which cancel exactly only where both endpoints are equidistant.  With
    # a whole number of turns the endpoints sit at the same azimuth,
    # mirror-symmetric about the mid-height plane, so the identity is
    # pointwise true there and the check samples that plane.
    z_mid = 0.2 * helix_len / 2.0
    rng = random.Random(7)
    worst_static = 0.0
    for a_of, zspan in ((a_loop, (-1.5, 1.5)), (a_helix, (z_mid, z_mid))):
        for _ in range(10):
            r = rng.uniform(1.6, 3.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            y = Point3(r * math.cos(ang), r * math.sin(ang),
                       rng.uniform(*zspan))
            h = _fd_h(y, cfg.rel_tol)
            div, scale = _div_a_residual(a_of, y, h)
            if scale == 0.0:
                continue
            worst_static = max(worst_static, abs(div) / scale)

    # the Lorenz gauge by the stencil, and the closed forms the row
    # writes against stencils: the moving charge's gauge terms against
    # lorenz_gauge_terms, and each electric kind's e against
    # -d phi (exterior3.d_numeric) - da/dt
    src = uniform_point_charge(1e-9, Point3(0.1, -0.2, 0.0),
                               Vec3(0.3 * C0, 0.1 * C0, -0.2 * C0))
    worst_lorenz = worst_forms = 0.0
    for _ in range(10):
        y = Point3(rng.uniform(-4, 4), rng.uniform(-4, 4),
                   rng.uniform(-4, 4))
        t = rng.uniform(-1e-8, 1e-8)
        if (y - src.position(t)).norm() < 0.5:
            y = Point3(y.x, y.y + 2.0, y.z)
        resid, scale = retarded.lorenz_gauge_residual(src, y, t)
        worst_lorenz = max(worst_lorenz, abs(resid) / scale)
        res = retarded.lienard_wiechert(src, y, t, want_e=True)
        h = exterior3.default_step(y)
        worst_forms = max(worst_forms, _past_truncation(
            res.gauge, lambda f: retarded.lorenz_gauge_terms(
                src, y, t, h=f * h)))

    charge = static_point_charge(-2e-9, Point3(0.3, -0.1, 0.2))
    dipole = DipoleSource(Point3(-0.3, 0.1, 0.5), Vec3(1e-11, -2e-11, 5e-12))
    kinds = [
        lambda p, at, e=False: retarded.lienard_wiechert(src, p, at,
                                                         want_e=e),
        lambda p, at, e=False: retarded.lienard_wiechert(charge, p, at,
                                                         want_e=e),
        lambda p, at, e=False: electro.dipole_potential(dipole, p,
                                                        want_e=e),
        lambda p, at, e=False: electro.plate_wire_potential(
            0.4, 1e-9, 1.0, p, want_e=e),
    ]
    for evaluate in kinds:
        for _ in range(5):
            y = Point3(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(0.05, 0.95))
            t = rng.uniform(-1e-9, 1e-9)
            h = exterior3.default_step(y)
            worst_forms = max(worst_forms, _past_truncation(
                evaluate(y, t, True).e.as_tuple(),
                lambda f: _stencil_e(evaluate, y, t, f * h)))

    dt = time.perf_counter() - start
    ok = worst_static <= 1e-4 and worst_lorenz <= 1e-4 and worst_forms <= 1.0
    return CheckResult(
        "gauge_residuals", ok,
        "static div A %.3g, Lorenz %.3g of local scale (tol 1e-4); "
        "closed forms %.3g of the stencil's truncation (tol 1)"
        % (worst_static, worst_lorenz, worst_forms), dt)


def _stencil_e(evaluate, y: Point3, t: float, h: float) -> tuple:
    """-d phi - da/dt at (y, t) for evaluate(point, t) -> PotentialResult:
    exterior3.d_numeric of phi with step h, and a central difference of
    a with step h / c."""
    phi = exterior3.FormField.scalar(lambda p, at: evaluate(p, at).phi)
    grad = exterior3.d_numeric(phi, y, t, h)
    dt = h / C0
    da = (evaluate(y, t + dt).a - evaluate(y, t - dt).a) / (2.0 * dt)
    return tuple(-grad[(i,)] - da.as_tuple()[i] for i in range(3))


def _past_truncation(closed, stencil) -> float:
    """The worst |c - s(h)| / (2 |s(h) - s(h / 2)| + 1e-9 sum |c|) over
    the components c of a closed form and s of stencil(f), its central
    differences with step f h: at most 1 where the closed form is the
    stencil's limit, since s(h) - s(h / 2) is 3/4 of s(h)'s truncation,
    and the 1e-9 covers the stencil's rounding."""
    coarse, fine = stencil(1.0), stencil(0.5)
    floor = 1e-9 * sum(abs(c) for c in closed)
    return max((abs(c - s) / (2.0 * abs(s - f) + floor) if c != s else 0.0)
               for c, s, f in zip(closed, coarse, fine))


# ---------------------------------------------------------------------------
# 9. moving charge: present-position form against the emission point


def check_boosted_coulomb() -> CheckResult:
    """The potentials lienard_wiechert forms from the charge's present
    position, against the textbook form from the emission point:
    t' from solve_retarded_time, then q / (4 pi eps0 r (1 - n.v/c))
    and mu0 q v / (4 pi r (1 - n.v/c)), r = |y - x(t')|."""
    start = time.perf_counter()
    q = 1.0
    v = Vec3(0.5 * C0, 0.0, 0.0)
    src = uniform_point_charge(q, Point3(0.0, 0.0, 0.0), v)

    rng = random.Random(99)
    worst = 0.0
    for _ in range(20):
        y = Point3(rng.uniform(-2, 2), rng.uniform(0.5, 2.5),
                   rng.uniform(-2, 2))
        t = rng.uniform(-3e-9, 3e-9)
        got = retarded.lienard_wiechert(src, y, t)
        sep = y - src.position(retarded.solve_retarded_time(src, y, t))
        r = sep.norm()
        doppler = 1.0 / (1.0 - sep.dot(v) / (r * C0))
        phi_want = q * doppler / (FOUR_PI * EPS0 * r)
        a_want = (MU0 * q * doppler / (FOUR_PI * r)) * v
        worst = max(worst, abs(got.phi - phi_want) / phi_want)
        worst = max(worst, (got.a - a_want).norm() / a_want.norm())
    dt = time.perf_counter() - start
    ok = worst <= 1e-8 and dt < 1.0
    return CheckResult("boosted_coulomb", ok,
                       "worst rel err %.3g (tol 1e-8)" % worst, dt)


# ---------------------------------------------------------------------------
# 10. quadrature error estimates are honest


def _honesty_cases():
    """(description, f, a, b, exact) for each integral the check runs.

    Singular integrands appear as their near-singular twins, the
    singularity 1e-6 or 1e-9 outside the interval, as the chart
    quadratures meet them next to a wire.  Each exact value is a closed
    form or a frozen constant; tests/test_quad.py recomputes them all
    with mpmath."""
    e6, e9 = 1e-6, 1e-9
    return [
        ("x^3 on [0,1]", lambda x: x ** 3, 0, 1, 0.25),
        ("sin on [0,pi]", math.sin, 0, math.pi, 2.0),
        ("exp on [0,1]", math.exp, 0, 1, math.e - 1.0),
        ("poisson kernel", lambda x: 1.0 / (5.0 - 4.0 * math.cos(x)),
         0, 2 * math.pi, 2.0 * math.pi / 3.0),
        ("1/sqrt(x+1e-9)", lambda x: 1.0 / math.sqrt(x + e9), 0, 1,
         2.0 * (math.sqrt(1.0 + e9) - math.sqrt(e9))),
        ("ln(x+1e-9)", lambda x: math.log(x + e9), 0, 1,
         (1.0 + e9) * math.log1p(e9) - e9 * math.log(e9) - 1.0),
        ("1/(1+x^2)", lambda x: 1.0 / (1.0 + x * x), 0, 1, math.pi / 4.0),
        ("gaussian tail", lambda x: math.exp(-x * x), 0, 10,
         math.sqrt(math.pi) / 2.0 * math.erf(10.0)),
        ("(x+1e-6)^-1/4", lambda x: (x + e6) ** -0.25, 0, 1,
         4.0 / 3.0 * ((1.0 + e6) ** 0.75 - e6 ** 0.75)),
        ("cos^2(10x)", lambda x: math.cos(10 * x) ** 2, 0, math.pi,
         math.pi / 2.0),
        # (1 - cos 50) / 50, without the cancellation
        ("sin(50x)", lambda x: math.sin(50.0 * x), 0, 1,
         math.sin(25.0) ** 2 / 25.0),
        ("|x| kink", abs, -1, 1, 1.0),
        ("near-singular 1/(x+0.01)", lambda x: 1.0 / (x + 0.01), 0, 1,
         math.log(101.0)),
        ("sqrt(x) kink", math.sqrt, 0, 1, 2.0 / 3.0),
        # 1/sqrt(1-x^2) with its branch point at 1 + 1e-9
        ("1/sqrt((1+e-x)(1+e+x))",
         lambda x: 1.0 / math.sqrt(((1.0 - x) + e9) * ((1.0 + x) + e9)),
         0, 1, math.atan(1.0 / math.sqrt(e9 * (2.0 + e9)))),
        # int_0^e ln sin and int_pi/2^(pi/2+e) ln sin differ from
        # e ln e - e and 0 by O(e^3)
        ("ln(sin(x+1e-9))", lambda x: math.log(math.sin(x + e9)), 0,
         math.pi / 2.0,
         -math.pi / 2.0 * math.log(2.0) - e9 * math.log(e9) + e9),
        # antiderivative u (cos ln u + sin ln u) / 2
        ("cos(ln(x+1e-9))", lambda x: math.cos(math.log(x + e9)), 0, 1,
         0.5 * ((1.0 + e9) * (math.cos(math.log1p(e9))
                              + math.sin(math.log1p(e9)))
                - e9 * (math.cos(math.log(e9)) + math.sin(math.log(e9))))),
        ("periodic 1/(2+sin)", lambda x: 1.0 / (2.0 + math.sin(x)),
         0, 2 * math.pi, 2.0 * math.pi / math.sqrt(3.0)),
        # 2 pi I0(1); constant frozen from an independent evaluation
        ("exp(cos)", lambda x: math.exp(math.cos(x)), 0, 2 * math.pi,
         7.954926521012845274513219665),
        # int_0^1 dy / (1 + x + y), the inner integral of 1/(1+x+y)
        # over the unit square
        ("ln((2+x)/(1+x))", lambda x: math.log((2.0 + x) / (1.0 + x)),
         0, 1, math.log(27.0 / 16.0)),
    ]


def check_quadrature_honesty() -> CheckResult:
    start = time.perf_counter()
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-9)
    cases = _honesty_cases()
    honest = 0
    liars = []
    for name, f, a, b, exact in cases:
        r = integrate_adaptive(f, a, b, cfg)
        true_err = abs(r.value - exact)
        floor = 1e-15 * max(1.0, abs(exact))
        if true_err <= 3.0 * max(r.error_estimate, floor):
            honest += 1
        else:
            liars.append(name)
    dt = time.perf_counter() - start
    ok = honest >= 19
    detail = "%d/%d estimates honest (need >= 19)" % (honest, len(cases))
    if liars:
        detail += "; optimistic: " + ", ".join(liars)
    return CheckResult("quadrature_honesty", ok, detail, dt)


# ---------------------------------------------------------------------------

ALL_CHECKS = (
    check_coulomb_limit,
    check_loop_on_axis,
    check_helix_degeneration,
    check_long_solenoid,
    check_plate_green,
    check_plate_wire,
    check_ampere,
    check_gauge_residuals,
    check_boosted_coulomb,
    check_quadrature_honesty,
)


def run_all(verbose: bool = False) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        res = check()
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    if verbose:
        n_ok = sum(r.passed for r in results)
        print("%d/%d checks passed" % (n_ok, len(results)))
    return results
