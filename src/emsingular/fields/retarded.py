"""Retarded potentials of a moving point charge.

The emission-time equation  t' + |y - x(t')| / c = t  has exactly one
root when the trajectory stays subluminal, because the mismatch
g(t') = t - t' - |y - x(t')|/c is strictly decreasing (its derivative
is n.v/c - 1 < 0).  The solver brackets the root by doubling and then
polishes with safeguarded Newton steps.

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
from ..errors import CoincidentPointsError, ConvergenceError, SuperluminalError
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
                        c: float = VACUUM.c, tol: float = 1e-12,
                        max_iter: int = 200) -> float:
    """Emission time t' with t' + |y - x(t')|/c = t.

    Newton stops once a step falls below tol times the light delay
    t - t', or below a few ulps of t' (a large |t| with a short delay
    leaves the delay coarser than tol can resolve)."""

    def g(tp: float) -> float:
        return t - tp - (y - src.position(tp)).norm() / c

    def check_speed(tp: float) -> None:
        sp = src.velocity(tp).norm()
        if sp >= c:
            raise SuperluminalError(
                "trajectory speed %g exceeds c = %g at t = %g" % (sp, c, tp))

    check_speed(t)
    r_now = (y - src.position(t)).norm()
    if r_now == 0.0:
        return t     # y is the present position: zero delay
    # g(t) < 0 now; expand downward until g turns positive
    hi = t
    step = max(r_now / c, 1e-9 * (1.0 + abs(t)))
    lo = t - step
    for _ in range(200):
        check_speed(lo)
        if g(lo) > 0.0:
            break
        step *= 2.0
        lo = t - step
    else:
        raise ConvergenceError("failed to bracket the emission time")

    tp = 0.5 * (lo + hi)
    for _ in range(max_iter):
        sep = y - src.position(tp)
        r = sep.norm()
        gv = t - tp - r / c
        if r > 0.0:
            dg = -1.0 + sep.dot(src.velocity(tp)) / (r * c)
        else:
            dg = -1.0
        if gv > 0.0:
            lo = tp
        else:
            hi = tp
        t_next = tp - gv / dg
        # tested before the bracket guard: at the root the Newton step
        # is zero and lands on a bracket end, which is no reason to bisect
        if abs(t_next - tp) <= max(tol * (t - t_next),
                                   4.0 * math.ulp(t_next)):
            check_speed(t_next)
            return t_next
        if not (lo < t_next < hi):
            t_next = 0.5 * (lo + hi)
        tp = t_next
    raise ConvergenceError("emission-time iteration did not converge")


def retarded_state(src: PointSource, y: Point3, t: float,
                   medium: MediumConstants = VACUUM,
                   tol: float = 1e-12) -> RetardedState:
    t_ret = solve_retarded_time(src, y, t, medium.c, tol)
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
                     medium: MediumConstants = VACUUM,
                     tol: float = 1e-12) -> PotentialResult:
    """Scalar and vector potentials of the moving charge at (y, t).

        phi = (q / eps) * kernel(y, x_ret) * doppler
        a   = mu * q * kernel(y, x_ret) * doppler * v_ret
    """
    st = retarded_state(src, y, t, medium, tol)
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
