"""Retarded potentials of a uniformly moving point charge.

On the straight trajectory x(t) = x0 + t v with |v| < c, the retarded
potentials have a closed form in the charge's *present* position
(Heaviside-Feynman form; Jackson, Classical Electrodynamics, 3rd ed.,
section 14.1).  With w = y - x(t), k = c^2 - v.v and
D = sqrt((w.v)^2 + k |w|^2) / c,

    phi = q / (4 pi eps D),   a = mu q v / (4 pi D),

the curl of a is Heaviside's field mu q k (v x w) / (4 pi c^2 D^3)
and the electric field is q k w / (4 pi eps c^2 D^3) (Jackson section
11.10).  d_i a_i = -(mu q / 4 pi) v_i ((w.v) v_i + k w_i) / (c^2 D^3),
and eps mu d_t phi = -(d_x a_x + d_y a_y + d_z a_z), since d/dt =
-v.grad under uniform motion: the Lorenz gauge holds term by term.
lienard_wiechert forms them all from the one separation w, in plain
floats, since it runs at every row, and from the same w its distance
|w| and a bound on the rounding of the potentials.  Nothing in it is
divided by 1 - n.v/c, so it stays finite up to the last float below c.

The emission time is the verification route.  solve_retarded_time
solves t' + |y - x(t')| / c = t, which has exactly one root when the
trajectory stays subluminal, because g(t') = t - t' - |y - x(t')| / c
is strictly decreasing (its derivative is n.v/c - 1 < 0).  On the
straight trajectory the equation is a quadratic in the delay t - t',
solved in closed form.  From the emission point, the textbook form

    phi = q / (4 pi eps r (1 - n.v/c)),   a = mu q v / (4 pi r (1 - n.v/c)),

with r = |y - x(t')| and n the unit vector from the emission point
toward the field point, gives the same potentials by an independent
derivation, since D = r (1 - n.v/c).  1 / (1 - n.v/c) is the Doppler
factor: an approaching charge (n.v > 0) is amplified, a receding one
attenuated.  selfcheck compares the two routes.
"""

from __future__ import annotations

import functools
import math

from .. import exterior3, kernels
from .._core import two_product, two_sum
from ..errors import (CoincidentPointsError, OutOfDomainError,
                      SuperluminalError)
from ..geometry import Point3, Vec3, norm3
from ..sources import PointSource
from .base import PotentialResult
from .medium import VACUUM, MediumConstants

EPS = 2.0 ** -52
_SPLIT = 134217729.0      # Veltkamp's splitting constant 2^27 + 1


def solve_retarded_time(src: PointSource, y: Point3, t: float,
                        c: float = VACUUM.c) -> float:
    """Emission time t' with t' + |y - x(t')|/c = t.

    With w = y - x(t) and k = c^2 - v.v the delay tau = t - t' is the
    positive root of k tau^2 - 2 (w.v) tau - |w|^2 = 0.  Each branch
    below adds like signs, so neither cancels.  Where (w.v)^2 + k |w|^2
    overflows, the root is taken for w scaled by s (see _separation)
    and the delay scaled back."""
    _, _, _, _, _, _, s, k, wv, w2, disc = _separation(src, y, t, c)
    if w2 == 0.0:
        return t     # y is the present position: zero delay
    root = math.sqrt(disc)
    tau = (wv + root) / k if wv >= 0.0 else w2 / (root - wv)
    return t - tau / s


def _separation(src: PointSource, y: Point3, t: float, c: float,
                scale: bool = False) -> tuple:
    """(p_x, p_y, p_z, w_x, w_y, w_z, s, k, w.v, |w|^2, disc): the
    present position p = x0 + t v, the separation w = y - p scaled by
    s, k = c^2 - v.v and disc = (w.v)^2 + k |w|^2 of the scaled w.

    s is 1, or, where scale is set or disc overflows (|w| beyond
    ~1e146 m), the power of two that brings the largest |w_i| into
    [0.5, 1), which scales exactly.  SuperluminalError where |v| >= c;
    OutOfDomainError where w is not finite, since no float holds the
    separation."""
    x0, v = src.x0, src.v
    vx, vy, vz = v.x, v.y, v.z
    vv = vx * vx + vy * vy + vz * vz
    if vv >= c * c:
        raise SuperluminalError(
            "trajectory speed %g is not below c = %g" % (math.sqrt(vv), c))
    k = c * c - vv
    px, py, pz = x0.x + t * vx, x0.y + t * vy, x0.z + t * vz
    wx, wy, wz = y.x - px, y.y - py, y.z - pz
    w2 = wx * wx + wy * wy + wz * wz
    wv = wx * vx + wy * vy + wz * vz
    disc = wv * wv + k * w2
    s = 1.0
    if scale or not disc < math.inf:
        big = max(abs(wx), abs(wy), abs(wz))
        if not big < math.inf:
            raise OutOfDomainError(
                "separation from the charge overflows at %r" % (y,))
        s = math.ldexp(1.0, -math.frexp(big)[1])
        wx, wy, wz = wx * s, wy * s, wz * s
        w2 = wx * wx + wy * wy + wz * wz
        wv = wx * vx + wy * vy + wz * vz
        disc = wv * wv + k * w2
    return px, py, pz, wx, wy, wz, s, k, wv, w2, disc


def lienard_wiechert(src: PointSource, y: Point3, t: float,
                     medium: MediumConstants = VACUUM,
                     want_b: bool = False,
                     want_e: bool = False) -> PotentialResult:
    """Potentials of the moving charge at (y, t), with a bound on their
    rounding; its magnetic field as res.b when want_b is set, and its
    electric field as res.e and its Lorenz-gauge terms as res.gauge when
    want_e is set (else None).

    From w = y - x(t), k = c^2 - v.v and D = sqrt((w.v)^2 + k |w|^2) / c,

        phi = q / (4 pi eps D),   a = mu q v / (4 pi D),
        b   = mu q k (v x w) / (4 pi c^2 D^3),
        e   = q k w / (4 pi eps c^2 D^3),
        d_i a_i = -(mu q / 4 pi) v_i ((w.v) v_i + k w_i) / (c^2 D^3),

    and eps mu d_t phi = -(d_x a_x + d_y a_y + d_z a_z).  b, e and the
    gauge terms are proportional to k, which keeps only the last bits of
    c^2 as v nears c: they take k with its rounding put back (_k_error),
    and D formed again from that k, so they stay accurate up to the last
    float below c.  phi and a keep the rounded k, which their bound
    accounts for.  w is scaled by s (see _separation) and s is applied
    last: 1 / D = s / D_s and w / D^3 = s^2 w_s / D_s^3, for w_s = s w
    and D_s = s D, so neither D, the products with w nor D^3 overflows;
    as s is a power of two, phi and a are those of the unscaled w.  A
    field point at the present position, or within the free kernel's
    coincidence floor of it, is refused with CoincidentPointsError.
    res.diagnostics holds "distance" = |w| (meters) and "a_error", the
    bound on each component of a.

    Rounding.  Both potentials are proportional to 1 / D.  Let
    W = y - x0 - t v exactly, w the separation as formed, and
    D(x) = sqrt((x.v)^2 + k |x|^2) / c, a norm in x.  With u = EPS / 2,
    the computed 1 / D is off for three reasons.

    * w is off W by dw, taken exactly from its three roundings (t v,
      x0 + t v and y - x(t), by Dekker's product and Knuth's two-sum).
      As D is a norm, |D(w) - D(W)| <= D(dw), which is rho times the D
      formed.
    * disc = (w.v)^2 + k |w|^2 is off its exact value by at most
      eta disc.  w.v, a sum of three products, is within 3u |w| |v|,
      which e_wv = 4u |w| |v| covers, and |w|^2 within 3u of itself.
      k = c*c - v.v is off c^2 - v.v by dk, taken exactly from its six
      roundings (_k_error).  The squaring, the product and the sum
      add 5u disc at most, so

          eta disc <= 2 |w.v| e_wv + 3 e_wv^2 + dk |w|^2 + 5u disc.

      As v nears c, k holds only the last few bits of c^2, and the
      dk |w|^2 term is the one that counts where w is nearly normal
      to v; along v, (w.v)^2 dominates and k hardly matters.
    * the root, 4 pi (pi rounds by 0.36u), the product with it, the
      quotient and the products that form phi and a round by 7u at
      most.

    So phi_true / phi lies within [1/R, R] for
    R = (1 / sqrt(1 - eta)) (1 / (1 - rho')) (1 + 8u), with
    rho' = rho / sqrt(1 - eta), since D(w) >= sqrt(1 - eta) times the
    D formed.  R - 1 is a relative bound that times |phi| bounds the
    error of phi (res.error), and times |a| that of each component of a.
    Where eta or rho' reaches 1, nothing bounds D, and both bounds are
    inf.  At the last float speed below c, where k keeps only a few
    bits, dk is ~10% of k, so eta stays near 0.1 where w is normal to v.
    """
    c = medium.c
    px, py, pz, wx, wy, wz, s, k, wv, w2, disc = _separation(
        src, y, t, c, True)
    if w2 == 0.0:
        raise CoincidentPointsError(
            "field point coincides with the emission point")
    distance = math.sqrt(w2) / s
    if distance < kernels.norm_floor(y.norm(), norm3(px, py, pz)):
        raise kernels.coincident(y, Point3(px, py, pz))
    x0, v = src.x0, src.v
    vx, vy, vz = v.x, v.y, v.z
    root = math.sqrt(disc)                      # c D_s
    f = c * s / (4.0 * math.pi * root)          # 1 / (4 pi D)
    m = medium.mu * src.q * f
    phi = (src.q / medium.eps) * f
    a = Vec3(vx * m, vy * m, vz * m)

    # the bound, from the separation as formed
    e_wv = 2.0 * EPS * math.sqrt(w2 * (vx * vx + vy * vy + vz * vz))
    dk = _k_error(vx, vy, vz, c)
    eta = ((2.0 * abs(wv) * e_wv + 3.0 * e_wv * e_wv
            + abs(dk) * (1.0 + EPS) * w2) / disc + 3.0 * EPS)
    h = _SPLIT * t
    t_hi = h - (h - t)
    t_lo = t - t_hi
    dw = []
    for yi, xi, vi, qi in ((y.x, x0.x, vx, px), (y.y, x0.y, vy, py),
                           (y.z, x0.z, vz, pz)):
        # w_i = yi - (xi + vi t) rounds three times: the product p, the
        # sum qi and the difference; each error exactly
        p = vi * t
        h = _SPLIT * vi
        v_hi = h - (h - vi)
        v_lo = vi - v_hi
        err_p = ((v_hi * t_hi - p) + v_hi * t_lo + v_lo * t_hi) + v_lo * t_lo
        h = qi - xi
        err_q = (xi - (qi - h)) + (p - h)
        wi = yi - qi
        h = wi - yi
        err_w = (yi - (wi - h)) + (-qi - h)
        dw.append((err_q + err_p - err_w) * s)
    dx, dy, dz = dw
    dv = dx * vx + dy * vy + dz * vz
    rho = math.sqrt((dv * dv + k * (dx * dx + dy * dy + dz * dz)) / disc)
    r = math.sqrt(max(0.0, 1.0 - eta))
    if r <= rho:
        error = a_error = math.inf
    else:
        grow = eta / (r * (1.0 + r))            # 1 / sqrt(1 - eta) - 1
        grow += (1.0 + grow) * rho / (r - rho)
        rel = grow + 4.0 * EPS * (1.0 + grow)
        error, a_error = rel * abs(phi), rel * a.norm()

    b = e = gauge = None
    if want_b or want_e:
        k += dk
        root = math.sqrt(wv * wv + k * w2)
        cube = c / (4.0 * math.pi * root * root * root)   # 1/(4 pi c^2 D_s^3)
    if want_b:
        g = medium.mu * src.q * k * cube
        b = Vec3((vy * wz - vz * wy) * g * s * s,
                 (vz * wx - vx * wz) * g * s * s,
                 (vx * wy - vy * wx) * g * s * s)
    if want_e:
        g = (src.q / medium.eps) * k * cube
        e = Vec3(wx * g * s * s, wy * g * s * s, wz * g * s * s)
        g = -medium.mu * src.q * cube
        dx = vx * (wv * vx + k * wx) * g * s * s
        dy = vy * (wv * vy + k * wy) * g * s * s
        dz = vz * (wv * vz + k * wz) * g * s * s
        gauge = (dx, dy, dz, -(dx + dy + dz))
    return PotentialResult(y, a, phi=phi, error=error, converged=True,
                           diagnostics={"distance": distance,
                                        "a_error": a_error},
                           b=b, e=e, gauge=gauge)


@functools.lru_cache(maxsize=64)
def _k_error(vx: float, vy: float, vz: float, c: float) -> float:
    """(c^2 - v.v) - k for k = c*c - v.v as _separation forms it: the
    exact errors of its six roundings, summed by fsum to within u of
    their sum.  Exact wherever no product of v's components underflows.
    Cached: it depends on the charge's v and the medium's c alone, and
    runs at every row."""
    cc, e_cc = two_product(c, c)
    px, e_x = two_product(vx, vx)
    py, e_y = two_product(vy, vy)
    pz, e_z = two_product(vz, vz)
    s, e_s = two_sum(px, py)
    vv, e_vv = two_sum(s, pz)
    _, e_k = two_sum(cc, -vv)
    # k + e_k = cc - vv, cc + e_cc = c^2 and vv + e_vv + e_s + e_x + e_y
    # + e_z = v.v, so (c^2 - v.v) - k = e_k + e_cc - e_vv - e_s - ...
    return math.fsum((e_k, e_cc, -e_vv, -e_s, -e_x, -e_y, -e_z))


def lorenz_gauge_terms(src: PointSource, y: Point3, t: float,
                       medium: MediumConstants = VACUUM,
                       h: float | None = None,
                       dt: float | None = None) -> tuple:
    """(d_x a_x, d_y a_y, d_z a_z, eps mu dphi/dt) at (y, t), by central
    differences of lienard_wiechert's potentials with steps h and dt:
    the stencil route that selfcheck holds the closed forms to."""
    if h is None:
        h = exterior3.default_step(y)
    if dt is None:
        dt = h / medium.c

    terms = []
    for ax in range(3):
        hi = lienard_wiechert(src, y.shifted(ax, +h), t, medium).a
        lo = lienard_wiechert(src, y.shifted(ax, -h), t, medium).a
        terms.append((hi.as_tuple()[ax] - lo.as_tuple()[ax]) / (2.0 * h))

    phi_hi = lienard_wiechert(src, y, t + dt, medium).phi
    phi_lo = lienard_wiechert(src, y, t - dt, medium).phi
    dphi_dt = (phi_hi - phi_lo) / (2.0 * dt)
    terms.append(medium.eps * medium.mu * dphi_dt)
    return tuple(terms)


def lorenz_gauge_residual(src: PointSource, y: Point3, t: float,
                          medium: MediumConstants = VACUUM,
                          h: float | None = None,
                          dt: float | None = None) -> tuple[float, float]:
    """(residual, scale) for div A + eps mu dphi/dt at (y, t), from
    lorenz_gauge_terms.

    The scale is the sum of the magnitudes of the two contributions;
    a correct evaluator leaves a residual that is finite-difference
    noise, orders of magnitude below the scale."""
    *div, term = lorenz_gauge_terms(src, y, t, medium, h, dt)
    div_a = 0.0
    mag = 0.0
    for d in div:
        div_a += d
        mag += abs(d)
    return div_a + term, mag + abs(term)
