"""Retarded potentials of a moving point charge.

The emission-time equation  t' + |y - x(t')| / c = t  has exactly one
root when the trajectory stays subluminal, because the mismatch
g(t') = t - t' - |y - x(t')|/c is strictly decreasing (its derivative
is n.v/c - 1 < 0).  On the straight trajectory x(t) = x0 + t v the
equation is a quadratic in the delay t - t' (Jackson, Classical
Electrodynamics, 3rd ed., section 14.1), solved in closed form.

Potentials follow the usual retarded form: the static Coulomb/vector
factors evaluated at the emission point, amplified by the Doppler
factor 1 / (1 - n.v/c), where n points from the emission point toward
the field point.  An approaching charge (n.v > 0) is amplified,
a receding one attenuated.  The potentials are not exact: positions
far from the origin round, and the Doppler factor amplifies that;
rounding_bound gives a first-order bound on their rounding.

solve_retarded_time and lienard_wiechert run at every stencil point of
every timed row, so both are written out in floats, with the operations
of the Point3/Vec3 expressions they replaced in the same order: the
same bits, without the objects.  lienard_wiechert measures the
separation y - x(t') once and keeps the free kernel's coincidence floor.

present_b gives the magnetic field of the uniformly moving charge from
its present position (Heaviside's field; Jackson section 11.10), the
curl of a = mu q v / (4 pi D), with no emission point formed.
"""

from __future__ import annotations

import math

from .. import exterior3, kernels
from ..errors import (CoincidentPointsError, OutOfDomainError,
                      SuperluminalError)
from ..geometry import Point3, Vec3, norm3
from ..sources import PointSource
from .base import PotentialResult
from .medium import VACUUM, MediumConstants

EPS = 2.0 ** -52
_SPLIT = 134217729.0     # 2^27 + 1, splits a double into two halves


def solve_retarded_time(src: PointSource, y: Point3, t: float,
                        c: float = VACUUM.c) -> float:
    """Emission time t' with t' + |y - x(t')|/c = t.

    With w = y - x(t) and k = c^2 - v.v the delay tau = t - t' is the
    positive root of k tau^2 - 2 (w.v) tau - |w|^2 = 0.  Each branch
    below adds like signs, so neither cancels.  Where (w.v)^2 + k |w|^2
    overflows (|w| beyond ~1e146 m), the root is taken for w scaled by
    a power of two, which is exact, and the delay scaled back.  Where
    w itself overflows, no float holds the separation, and the point
    is refused with OutOfDomainError."""
    x0, v = src.x0, src.v
    vx, vy, vz = v.x, v.y, v.z
    vv = vx * vx + vy * vy + vz * vz
    if vv >= c * c:
        raise SuperluminalError(
            "trajectory speed %g is not below c = %g" % (math.sqrt(vv), c))
    k = c * c - vv
    wx = y.x - (x0.x + t * vx)
    wy = y.y - (x0.y + t * vy)
    wz = y.z - (x0.z + t * vz)
    w2 = wx * wx + wy * wy + wz * wz
    if w2 == 0.0:
        return t     # y is the present position: zero delay
    wv = wx * vx + wy * vy + wz * vz
    disc = wv * wv + k * w2
    scale = 1.0
    if not disc < math.inf:
        scale = _unit_scale(wx, wy, wz, y)
        wx, wy, wz = wx * scale, wy * scale, wz * scale
        w2 = wx * wx + wy * wy + wz * wz
        wv = wx * vx + wy * vy + wz * vz
        disc = wv * wv + k * w2
    root = math.sqrt(disc)
    tau = (wv + root) / k if wv >= 0.0 else w2 / (root - wv)
    return t - tau / scale


def _unit_scale(wx: float, wy: float, wz: float, y: Point3) -> float:
    """The power of two that brings the largest |w_i| into [0.5, 1);
    OutOfDomainError where a component of w is not finite."""
    big = max(abs(wx), abs(wy), abs(wz))
    if not big < math.inf:
        raise OutOfDomainError(
            "separation from the charge overflows at %r" % (y,))
    return math.ldexp(1.0, -math.frexp(big)[1])


def present_b(src: PointSource, y: Point3, t: float,
              medium: MediumConstants = VACUUM) -> Vec3:
    """Magnetic field of the uniformly moving charge at (y, t).

    With w = y - x(t) from the present position, k = c^2 - v.v and
    D = sqrt((w.v)^2 + k |w|^2) / c,

        b = mu q k (v x w) / (4 pi c^2 D^3),

    the curl of a = mu q v / (4 pi D) (Heaviside; Jackson section
    11.10).  w is scaled by a power of two into [0.5, 1) before D^3 is
    formed, so neither v x w nor D^3 overflows, and the scale is
    applied last: b = s^2 (v x w_s) / D_s^3 times the constants, for
    w_s = s w and D_s = s D.
    """
    c = medium.c
    x0, v = src.x0, src.v
    vx, vy, vz = v.x, v.y, v.z
    wx = y.x - (x0.x + t * vx)
    wy = y.y - (x0.y + t * vy)
    wz = y.z - (x0.z + t * vz)
    s = _unit_scale(wx, wy, wz, y)
    wx, wy, wz = wx * s, wy * s, wz * s
    k = c * c - (vx * vx + vy * vy + vz * vz)
    wv = wx * vx + wy * vy + wz * vz
    d = math.sqrt(wv * wv + k * (wx * wx + wy * wy + wz * wz)) / c
    f = medium.mu * src.q * k / (4.0 * math.pi * c * c * d * d * d)
    return Vec3((vy * wz - vz * wy) * f * s * s,
                (vz * wx - vx * wz) * f * s * s,
                (vx * wy - vy * wx) * f * s * s)


def lienard_wiechert(src: PointSource, y: Point3, t: float,
                     medium: MediumConstants = VACUUM) -> PotentialResult:
    """Scalar and vector potentials of the moving charge at (y, t).

        phi = (q / eps) * kernel(y, x_ret) * doppler
        a   = mu * q * kernel(y, x_ret) * doppler * v

    with x_ret = x(t'), r = |y - x_ret|, n = (y - x_ret) / r, the
    kernel 1 / (4 pi r) and doppler = 1 / (1 - n.v/c), all from the one
    r.  Its diagnostics hold t_ret, doppler, r_ret and n, from which
    rounding_bound bounds the rounding of phi and a, on request.
    """
    c = medium.c
    t_ret = solve_retarded_time(src, y, t, c)
    x0, v = src.x0, src.v
    vx, vy, vz = v.x, v.y, v.z
    xx = x0.x + t_ret * vx
    xy = x0.y + t_ret * vy
    xz = x0.z + t_ret * vz
    sx, sy, sz = y.x - xx, y.y - xy, y.z - xz
    r = norm3(sx, sy, sz)
    if r == 0.0:
        raise CoincidentPointsError(
            "field point coincides with the emission point")
    nx, ny, nz = sx / r, sy / r, sz / r
    doppler = 1.0 / (1.0 - (nx * vx + ny * vy + nz * vz) / c)
    if r < kernels.norm_floor(y.norm(), norm3(xx, xy, xz)):
        raise kernels.coincident(y, Point3(xx, xy, xz))
    k = 1.0 / (4.0 * math.pi * r)
    phi = (src.q / medium.eps) * k * doppler
    s = medium.mu * src.q * k * doppler
    return PotentialResult(y, Vec3(vx * s, vy * s, vz * s), phi, {
        "t_ret": t_ret,
        "doppler": doppler,
        "r_ret": r,
        "n": Vec3(nx, ny, nz),
    })


def rounding_bound(src: PointSource, y: Point3, t: float,
                   res: PotentialResult,
                   medium: MediumConstants = VACUUM) -> tuple[float, float]:
    """(bound on the error of res.phi, bound on the error of each
    component of res.a), for res = lienard_wiechert(src, y, t, medium).

    Both potentials are proportional to 1 / D, with D = r - sep.v / c,
    sep = y - x(t') and r = |sep|, so their relative error is dD / D
    plus the rounding of forming them.  Let g = n - v / c, the gradient
    of D in sep.  Then dD = g . dsep, and sep is off for three reasons:

    * w = y - (x0 + t v), from which the delay is solved, is off by dw,
      taken exactly from its three roundings (_w_rounding); the delay
      tau = t - t' moves by n.dw / (c - n.v) (differentiate
      c tau = |w + tau v|), which moves sep by v times that.  dw is
      counted twice, which covers the terms beyond first order.
    * the delay rounds in the root: k = c^2 - v.v is off by ~u c^2,
      which moves tau by u r / (2 D) of itself, so by u doppler / 2;
      with the roundings of w.v, |w|^2 and the root (|w| <= 2 r) tau is
      within 26 u doppler of itself.  t' = t - tau rounds by u |t'|.
      Each moves sep along v, so dD = (g.v) dt' for each.
    * forming x0 + t' v and y - x_ret rounds by u (|t'| |v| + |x_ret|)
      and u r, in any direction; |x_ret| <= |y| + r.

    With u = EPS / 2 and D = r / doppler:

        |dD| <= |g.v| (2 doppler |dw| / c + EPS |t'| + 13 EPS doppler tau)
                + |g| EPS (|t'| |v| + |x_ret| + r).

    Forming 1 - n.v / c loses ~7 u doppler, and r, the kernel and the
    products a few u more: EPS (6 + 4 doppler) covers them.  That
    relative bound times |phi| bounds the error of phi, and times |a|
    that of each component of a.  The g factors matter: ahead of a
    charge at 0.99 c, |g| is ~0.01, while a dw of an ulp of a position
    3e8 m from the origin moves D by nearly that ulp, through
    g.v / (c - n.v) of ~0.99.
    """
    d = res.diagnostics
    v, n, c = src.v, d["n"], medium.c
    doppler, r, t_ret = d["doppler"], d["r_ret"], d["t_ret"]
    vv = (v.x * v.x + v.y * v.y + v.z * v.z) / (c * c)
    nv = (n.x * v.x + n.y * v.y + n.z * v.z) / c
    gv = abs(nv - vv)                           # |g.v| / c
    g = math.sqrt(max(0.0, 1.0 - 2.0 * nv + vv))
    span = abs(t_ret) * c * math.sqrt(vv)       # |t'| |v|
    rel = ((gv * c * EPS * (abs(t_ret) + 13.0 * doppler * (t - t_ret))
            + gv * 2.0 * doppler * _w_rounding(src, y, t)
            + g * EPS * (span + y.norm() + 2.0 * r)) * doppler / r
           + EPS * (6.0 + 4.0 * doppler))
    return rel * abs(res.phi), rel * res.a.norm()


def _w_rounding(src: PointSource, y: Point3, t: float) -> float:
    """|w - (y - x0 - t v)| for w = y - src.position(t) as
    solve_retarded_time forms it, from the exact error of each of its
    three roundings: Dekker's product over Veltkamp's split, and
    Knuth's two-sum."""
    h = _SPLIT * t
    t_hi = h - (h - t)
    t_lo = t - t_hi
    x0, v = src.x0, src.v
    dws = []
    for yi, xi, vi in ((y.x, x0.x, v.x), (y.y, x0.y, v.y), (y.z, x0.z, v.z)):
        p = vi * t
        q = xi + p
        w = yi - q
        h = _SPLIT * vi
        v_hi = h - (h - vi)
        v_lo = vi - v_hi
        err_p = ((v_hi * t_hi - p) + v_hi * t_lo + v_lo * t_hi) + v_lo * t_lo
        h = q - xi
        err_q = (xi - (q - h)) + (p - h)
        h = w - yi
        err_w = (yi - (w - h)) - (q + h)
        dws.append(err_q + err_p - err_w)
    return norm3(*dws)


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
