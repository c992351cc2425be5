"""Retarded potentials of a uniformly moving point charge.

On the straight trajectory x(t) = x0 + t v with |v| < c, the retarded
potentials have a closed form in the charge's *present* position
(Heaviside-Feynman form; Jackson, Classical Electrodynamics, 3rd ed.,
section 14.1).  With w = y - x(t), k = c^2 - v.v and
D = sqrt((w.v)^2 + k |w|^2) / c,

    phi = q / (4 pi eps D),   a = mu q v / (4 pi D),

and the curl of a is Heaviside's field mu q k (v x w) / (4 pi c^2 D^3)
(Jackson section 11.10).  lienard_wiechert forms all three from the
one separation w, in plain floats, since it runs at every stencil
point of every timed row; rounding_bound bounds the rounding of the
potentials.  Nothing in it is divided by 1 - n.v/c, so it stays finite
up to the last float below c.

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
                     want_b: bool = False) -> PotentialResult:
    """Potentials of the moving charge at (y, t), and its magnetic field
    as res.b when want_b is set (else res.b is None).

    From w = y - x(t), k = c^2 - v.v and D = sqrt((w.v)^2 + k |w|^2) / c,

        phi = q / (4 pi eps D),   a = mu q v / (4 pi D),
        b   = mu q k (v x w) / (4 pi c^2 D^3).

    w is scaled by s (see _separation), always for b, and s is applied
    last: 1 / D = s / D_s and b = s^2 (v x w_s) / D_s^3 times the
    constants, for w_s = s w and D_s = s D, so neither D, v x w nor
    D^3 overflows.  A field point at the present position, or within
    the free kernel's coincidence floor of it, is refused with
    CoincidentPointsError.

    res.error is NaN: the rounding bound costs more than the potentials,
    so it is formed apart, by rounding_bound, where it is written.
    """
    c = medium.c
    px, py, pz, wx, wy, wz, s, k, wv, w2, disc = _separation(
        src, y, t, c, want_b)
    if w2 == 0.0:
        raise CoincidentPointsError(
            "field point coincides with the emission point")
    if math.sqrt(w2) / s < kernels.norm_floor(y.norm(), norm3(px, py, pz)):
        raise kernels.coincident(y, Point3(px, py, pz))
    v = src.v
    root = math.sqrt(disc)                      # c D_s
    f = c * s / (4.0 * math.pi * root)          # 1 / (4 pi D)
    m = medium.mu * src.q * f
    b = None
    if want_b:
        g = medium.mu * src.q * k * c / (4.0 * math.pi * root * root * root)
        b = Vec3((v.y * wz - v.z * wy) * g * s * s,
                 (v.z * wx - v.x * wz) * g * s * s,
                 (v.x * wy - v.y * wx) * g * s * s)
    return PotentialResult(y, Vec3(v.x * m, v.y * m, v.z * m),
                           phi=(src.q / medium.eps) * f, error=math.nan,
                           converged=True, b=b)


def rounding_bound(src: PointSource, y: Point3, t: float,
                   res: PotentialResult,
                   medium: MediumConstants = VACUUM) -> tuple[float, float]:
    """(bound on the error of res.phi, bound on the error of each
    component of res.a), for res = lienard_wiechert(src, y, t, medium).

    Both potentials are proportional to 1 / D.  Let W = y - x0 - t v
    exactly, w the separation as formed (scaled by s, exactly), and
    D(x) = sqrt((x.v)^2 + k |x|^2) / c, a norm in x.  With u = EPS / 2,
    the computed 1 / D is off for three reasons.

    * w is off W by dw, taken exactly from its three roundings
      (_w_rounding).  As D is a norm, |D(w) - D(W)| <= D(dw), which
      is rho times the D formed.
    * disc = (w.v)^2 + k |w|^2 is off its exact value by at most
      eta disc.  w.v, a sum of three products, is within 3u |w| |v|,
      which e = 4u |w| |v| covers, and |w|^2 within 3u of itself.
      k = c*c - v.v is off c^2 - v.v by dk, taken exactly from its six
      roundings (_k_rounding).  The squaring, the product and the sum
      add 5u disc at most, so

          eta disc <= 2 |w.v| e + 3 e^2 + dk |w|^2 + 5u disc.

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
    error of phi, and times |a| that of each component of a.  Where
    eta or rho' reaches 1, nothing bounds D, and both bounds are inf.
    At the last float speed below c, where k keeps only a few bits,
    dk is ~10% of k, so eta stays near 0.1 where w is normal to v.
    """
    c = medium.c
    v = src.v
    vx, vy, vz = v.x, v.y, v.z
    vv = vx * vx + vy * vy + vz * vz
    _, _, _, wx, wy, wz, s, k, wv, w2, disc = _separation(src, y, t, c, True)
    e = 2.0 * EPS * math.sqrt(w2 * vv)
    dk = _k_rounding(vx, vy, vz, c)
    eta = (2.0 * abs(wv) * e + 3.0 * e * e + dk * w2) / disc + 3.0 * EPS
    dx, dy, dz = _w_rounding(src, y, t)
    dx, dy, dz = dx * s, dy * s, dz * s
    dv = dx * vx + dy * vy + dz * vz
    rho = math.sqrt((dv * dv + k * (dx * dx + dy * dy + dz * dz)) / disc)
    r = math.sqrt(max(0.0, 1.0 - eta))
    if r <= rho:
        return math.inf, math.inf
    grow = eta / (r * (1.0 + r))                # 1 / sqrt(1 - eta) - 1
    grow += (1.0 + grow) * rho / (r - rho)
    rel = grow + 4.0 * EPS * (1.0 + grow)
    return rel * abs(res.phi), rel * res.a.norm()


def _w_rounding(src: PointSource, y: Point3,
                t: float) -> tuple[float, float, float]:
    """w - (y - x0 - t v), component by component, for
    w = y - (x0 + t v) as lienard_wiechert forms it, from the exact
    error of each of its three roundings."""
    x0, v = src.x0, src.v
    dws = []
    for yi, xi, vi in ((y.x, x0.x, v.x), (y.y, x0.y, v.y), (y.z, x0.z, v.z)):
        p, err_p = two_product(vi, t)
        q, err_q = two_sum(xi, p)
        _, err_w = two_sum(yi, -q)
        dws.append(err_q + err_p - err_w)
    return dws[0], dws[1], dws[2]


@functools.lru_cache(maxsize=64)
def _k_rounding(vx: float, vy: float, vz: float, c: float) -> float:
    """A bound on |k - (c^2 - v.v)| for k = c*c - v.v as _separation
    forms it: the exact errors of its six roundings, summed by fsum to
    within u of their sum, which 1 + EPS covers.  Exact wherever no
    product of v's components underflows.  Cached: it depends on the
    charge's v and the medium's c alone, and runs at every row."""
    cc, e_cc = two_product(c, c)
    px, e_x = two_product(vx, vx)
    py, e_y = two_product(vy, vy)
    pz, e_z = two_product(vz, vz)
    s, e_s = two_sum(px, py)
    vv, e_vv = two_sum(s, pz)
    _, e_k = two_sum(cc, -vv)
    # k + e_k = cc - vv, cc + e_cc = c^2 and vv + e_vv + e_s + e_x + e_y
    # + e_z = v.v, so k - (c^2 - v.v) = -(e_k + e_cc - e_vv - e_s - ...)
    return abs(math.fsum((e_k, e_cc, -e_vv, -e_s, -e_x, -e_y, -e_z))) \
        * (1.0 + EPS)


def lorenz_gauge_residual(src: PointSource, y: Point3, t: float,
                          medium: MediumConstants = VACUUM,
                          h: float | None = None,
                          dt: float | None = None) -> tuple[float, float]:
    """(residual, scale) for div A + eps mu dphi/dt at (y, t).

    The scale is the sum of the magnitudes of the two contributions;
    a correct evaluator leaves a residual that is finite-difference
    noise, orders of magnitude below the scale."""
    if h is None:
        h = exterior3.default_step(y)
    if dt is None:
        dt = h / medium.c

    div_a = 0.0
    mag = 0.0
    for ax in range(3):
        hi = lienard_wiechert(src, y.shifted(ax, +h), t, medium).a
        lo = lienard_wiechert(src, y.shifted(ax, -h), t, medium).a
        d = (hi.as_tuple()[ax] - lo.as_tuple()[ax]) / (2.0 * h)
        div_a += d
        mag += abs(d)

    phi_hi = lienard_wiechert(src, y, t + dt, medium).phi
    phi_lo = lienard_wiechert(src, y, t - dt, medium).phi
    dphi_dt = (phi_hi - phi_lo) / (2.0 * dt)
    term = medium.eps * medium.mu * dphi_dt
    residual = div_a + term
    return residual, mag + abs(term)
