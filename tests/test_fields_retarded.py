"""Retarded potentials of moving point charges.

The uniform-motion case has a closed form: with gamma = 1/sqrt(1-b^2)
and l = y - x(t) the separation from the *present* position,

    phi = q gamma / (4 pi eps sqrt(gamma^2 l_par^2 + l_perp^2))
    a   = eps mu v phi

which exercises the emission-time solver and the Doppler factor
together.  On-axis the emission time itself is elementary, so the
Doppler factor can be pinned to 1/(1 -+ beta) exactly.
"""

import math
from decimal import Decimal, localcontext

import pytest

from emsingular.errors import (CoincidentPointsError, SuperluminalError)
from emsingular.fields.medium import C0, EPS0
from emsingular.fields import electro, retarded
from emsingular.geometry import Point3, Vec3
from emsingular.sources import static_point_charge, uniform_point_charge

Q = 2.5e-9


def boosted_phi(q, x0, v, y, t):
    """Closed-form potential of a uniformly moving charge."""
    beta = v.norm() / C0
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    ell = y - (x0 + t * v)
    vhat = v / v.norm()
    l_par = ell.dot(vhat)
    l_perp2 = ell.norm() ** 2 - l_par * l_par
    return q * gamma / (4.0 * math.pi * EPS0
                        * math.sqrt(gamma * gamma * l_par * l_par + l_perp2))


# ---------------------------------------------------------------- static

def test_static_charge_reduces_to_coulomb():
    at = Point3(0.2, -0.1, 0.35)
    y = Point3(1.3, 0.7, -0.4)
    src = static_point_charge(Q, at)
    res = retarded.lienard_wiechert(src, y, t=4.7)
    ref = electro.point_charge_potential(Q, at, y)
    assert res.phi == pytest.approx(ref.phi, rel=1e-14)
    assert res.a.norm() == 0.0
    assert res.diagnostics["doppler"] == pytest.approx(1.0, rel=1e-15)


def test_static_emission_time_lags_by_light_travel():
    at = Point3(0.0, 0.0, 0.0)
    y = Point3(3.0, 0.0, 4.0)   # r = 5
    src = static_point_charge(Q, at)
    t_ret = retarded.solve_retarded_time(src, y, t=1.0)
    assert t_ret == pytest.approx(1.0 - 5.0 / C0, rel=1e-13)


# -------------------------------------------------------- uniform motion

def test_boosted_coulomb_closed_form():
    v = Vec3(0.5 * C0, 0.0, 0.0)
    x0 = Point3(0.0, 0.0, 0.0)
    src = uniform_point_charge(Q, x0, v)
    t = 2.0e-9
    for y in (Point3(1.0, 0.0, 0.0),
              Point3(0.0, 1.0, 0.0),
              Point3(0.7, -0.4, 0.5),
              Point3(-1.2, 0.3, 0.1)):
        res = retarded.lienard_wiechert(src, y, t, tol=1e-12)
        assert res.phi == pytest.approx(boosted_phi(Q, x0, v, y, t), rel=1e-8)


def test_boosted_vector_potential_is_v_phi_over_c2():
    v = Vec3(0.0, 0.4 * C0, 0.0)
    src = uniform_point_charge(Q, Point3(0.0, 0.0, 0.0), v)
    y = Point3(0.6, 0.9, -0.3)
    res = retarded.lienard_wiechert(src, y, t=1.0e-9)
    expect = (res.phi / (C0 * C0)) * v
    assert res.a.x == pytest.approx(expect.x, abs=1e-25)
    assert res.a.y == pytest.approx(expect.y, rel=1e-13)
    assert res.a.z == pytest.approx(expect.z, abs=1e-25)


def test_doppler_factor_on_axis():
    # Charge runs along +x through the origin at t = 0.  Ahead of it the
    # factor is 1/(1-beta), behind it 1/(1+beta); both follow from the
    # elementary on-axis emission-time solution.
    beta = 0.6
    v = Vec3(beta * C0, 0.0, 0.0)
    src = uniform_point_charge(Q, Point3(0.0, 0.0, 0.0), v)
    ahead = retarded.retarded_state(src, Point3(2.0, 0.0, 0.0), t=0.0)
    behind = retarded.retarded_state(src, Point3(-2.0, 0.0, 0.0), t=0.0)
    assert ahead.doppler == pytest.approx(1.0 / (1.0 - beta), rel=1e-12)
    assert behind.doppler == pytest.approx(1.0 / (1.0 + beta), rel=1e-12)
    # emission times: t' = -Y / (c (1 -+ beta))
    assert ahead.t_ret == pytest.approx(-2.0 / (C0 * (1.0 - beta)), rel=1e-12)
    assert behind.t_ret == pytest.approx(-2.0 / (C0 * (1.0 + beta)), rel=1e-12)


def test_doppler_amplifies_approach_attenuates_recession():
    v = Vec3(0.0, 0.0, 0.5 * C0)
    src = uniform_point_charge(Q, Point3(0.0, 0.0, 0.0), v)
    toward = retarded.retarded_state(src, Point3(0.3, 0.1, 5.0), t=0.0)
    away = retarded.retarded_state(src, Point3(0.3, 0.1, -5.0), t=0.0)
    assert toward.doppler > 1.0
    assert away.doppler < 1.0


# ---------------------------------------------------------------- solver

def test_emission_time_satisfies_light_cone():
    v = Vec3(0.3 * C0, 0.1 * C0, -0.2 * C0)
    src = uniform_point_charge(Q, Point3(0.5, -0.2, 0.1), v)
    for t in (0.0, 3.0e-9, -1.0e-9):
        for y in (Point3(2.0, 1.0, 0.0), Point3(-1.0, 0.4, 2.5)):
            t_ret = retarded.solve_retarded_time(src, y, t, tol=1e-13)
            assert t_ret < t
            r = (y - src.position(t_ret)).norm()
            assert r == pytest.approx(C0 * (t - t_ret), rel=1e-12)


def exact_delay(x0, v, y, t):
    """t - t' for uniform motion, in 60-digit decimal arithmetic: the
    root of (c^2 - v^2) tau^2 - 2 (R.v) tau - R^2 = 0 with R = y - x(t)."""
    with localcontext() as ctx:
        ctx.prec = 60
        R = [Decimal(a) - Decimal(b) - Decimal(w) * Decimal(t)
             for a, b, w in zip(y.as_tuple(), x0.as_tuple(), v.as_tuple())]
        V = [Decimal(w) for w in v.as_tuple()]
        rv = sum(a * b for a, b in zip(R, V))
        r2 = sum(a * a for a in R)
        k = Decimal(C0) ** 2 - sum(a * a for a in V)
        return (rv + (rv * rv + k * r2).sqrt()) / k


@pytest.mark.parametrize("t", [2.0e-9, 1.0e3])
@pytest.mark.parametrize("beta, offset", [
    ((0.5, 0.0, 0.0), (0.0, 1.0, 0.0)),
    ((0.3, 0.1, -0.2), (0.7, -0.4, 0.5)),
    ((0.0, 0.6, 0.0), (0.05, 0.02, 0.0)),
    ((-0.55, 0.2, 0.1), (-1.2, 0.3, 0.1)),
])
def test_emission_time_matches_exact_root(t, beta, offset):
    # field point a few ns of light travel from the charge's present
    # position; the charge passes near the origin at time t
    v = Vec3(*(b * C0 for b in beta))
    x0 = Point3(0.1, -0.2, 0.3) - t * v
    y = Point3(*(a + b for a, b in zip((x0 + t * v).as_tuple(), offset)))
    t_ret = retarded.solve_retarded_time(uniform_point_charge(Q, x0, v),
                                         y, t)
    delay = exact_delay(x0, v, y, t)
    err = abs(Decimal(t_ret) - (Decimal(t) - delay))
    # at t = 1e3 the float spacing of t' (1.1e-13 s) is coarser than
    # 1e-13 of a ns delay: there t' must land within 4 ulps
    bound = max(Decimal(1e-13) * delay, Decimal(4.0 * math.ulp(t_ret)))
    assert err <= bound


def test_emission_time_is_deterministic():
    v = Vec3(0.25 * C0, 0.0, 0.35 * C0)
    src = uniform_point_charge(Q, Point3(0.0, 0.3, 0.0), v)
    y = Point3(1.1, -0.7, 0.9)
    first = retarded.solve_retarded_time(src, y, t=2.0e-9)
    second = retarded.solve_retarded_time(src, y, t=2.0e-9)
    assert first == second   # bitwise


def test_superluminal_trajectory_rejected():
    src = uniform_point_charge(Q, Point3(0.0, 0.0, 0.0), Vec3(1.5 * C0, 0, 0))
    with pytest.raises(SuperluminalError):
        retarded.solve_retarded_time(src, Point3(1.0, 0.0, 0.0), t=0.0)


def test_lightspeed_trajectory_rejected():
    src = uniform_point_charge(Q, Point3(0.0, 0.0, 0.0), Vec3(C0, 0.0, 0.0))
    with pytest.raises(SuperluminalError):
        retarded.lienard_wiechert(src, Point3(0.0, 2.0, 0.0), t=0.0)


def test_field_point_on_trajectory_rejected():
    src = static_point_charge(Q, Point3(0.7, 0.0, 0.0))
    with pytest.raises(CoincidentPointsError):
        retarded.retarded_state(src, Point3(0.7, 0.0, 0.0), t=0.0)


# ------------------------------------------------------------------ gauge

def test_lorenz_residual_small_for_uniform_motion():
    v = Vec3(0.4 * C0, 0.0, 0.2 * C0)
    src = uniform_point_charge(Q, Point3(0.0, 0.0, 0.0), v)
    y = Point3(0.8, 0.5, -0.6)
    residual, scale = retarded.lorenz_gauge_residual(src, y, t=1.5e-9)
    assert scale > 0.0
    assert abs(residual) <= 1e-4 * scale


def test_lorenz_residual_small_for_static_charge():
    src = static_point_charge(Q, Point3(0.1, 0.2, 0.3))
    residual, scale = retarded.lorenz_gauge_residual(src, Point3(1.0, 1.0, 1.0),
                                                     t=0.0)
    # a = 0 and phi is time independent: both terms vanish identically,
    # so only the div-a magnitudes feed the scale
    assert abs(residual) <= 1e-10 * max(scale, 1e-30) + 1e-30
