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
a receding one attenuated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import exterior3, kernels
from ..errors import CoincidentPointsError, SuperluminalError
from ..geometry import Point3, Vec3
from ..sources import PointSource
from .base import PotentialResult
from .medium import VACUUM, MediumConstants


@dataclass(frozen=True)
class RetardedState:
    """Geometry of the emission event for one (field point, time)."""

    t_ret: float
    x_ret: Point3
    v_ret: Vec3
    n: Vec3          # unit, emission point -> field point
    r_ret: float     # |y - x_ret|
    doppler: float   # 1 / (1 - n.v/c)


def solve_retarded_time(src: PointSource, y: Point3, t: float,
                        c: float = VACUUM.c) -> float:
    """Emission time t' with t' + |y - x(t')|/c = t.

    With w = y - x(t) and k = c^2 - v.v the delay tau = t - t' is the
    positive root of k tau^2 - 2 (w.v) tau - |w|^2 = 0.  Each branch
    below adds like signs, so neither cancels."""
    v = src.v
    vv = v.dot(v)
    if vv >= c * c:
        raise SuperluminalError(
            "trajectory speed %g is not below c = %g" % (math.sqrt(vv), c))
    k = c * c - vv
    w = y - src.position(t)
    w2 = w.dot(w)
    if w2 == 0.0:
        return t     # y is the present position: zero delay
    wv = w.dot(v)
    root = math.sqrt(wv * wv + k * w2)
    tau = (wv + root) / k if wv >= 0.0 else w2 / (root - wv)
    return t - tau


def retarded_state(src: PointSource, y: Point3, t: float,
                   medium: MediumConstants = VACUUM) -> RetardedState:
    t_ret = solve_retarded_time(src, y, t, medium.c)
    x_ret = src.position(t_ret)
    v_ret = src.velocity(t_ret)
    sep = y - x_ret
    r = sep.norm()
    if r == 0.0:
        raise CoincidentPointsError(
            "field point coincides with the emission point")
    n = sep / r
    beta_n = n.dot(v_ret) / medium.c
    return RetardedState(t_ret, x_ret, v_ret, n, r, 1.0 / (1.0 - beta_n))


def lienard_wiechert(src: PointSource, y: Point3, t: float,
                     medium: MediumConstants = VACUUM) -> PotentialResult:
    """Scalar and vector potentials of the moving charge at (y, t).

        phi = (q / eps) * kernel(y, x_ret) * doppler
        a   = mu * q * kernel(y, x_ret) * doppler * v_ret
    """
    st = retarded_state(src, y, t, medium)
    k = kernels.free_kernel(y, st.x_ret)
    phi = (src.q / medium.eps) * k * st.doppler
    a = (medium.mu * src.q * k * st.doppler) * st.v_ret
    return PotentialResult(y, a, phi, {
        "t_ret": st.t_ret,
        "doppler": st.doppler,
        "r_ret": st.r_ret,
    })


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
