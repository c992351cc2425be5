"""Retarded potentials of moving point charges.

lienard_wiechert evaluates the present-position form.  The
uniform-motion case has a second closed form: with
gamma = 1/sqrt(1-b^2) and l = y - x(t) the separation from the
*present* position,

    phi = q gamma / (4 pi eps sqrt(gamma^2 l_par^2 + l_perp^2))
    a   = eps mu v phi

and a third route goes through the emission time and the Doppler
factor, phi = q / (4 pi eps r (1 - n.v/c)), which selfcheck's
boosted_coulomb compares with lienard_wiechert.  The tests here take
the emission time and the Doppler factor from solve_retarded_time.
On-axis the emission time itself is elementary, so the Doppler factor
can be pinned to 1/(1 -+ beta) exactly.  Off-axis it is the positive root of a quadratic in the
delay, solved in closed form and checked here against the same root
in 60-digit decimals.
"""

import csv
import math
import random
import textwrap
from decimal import Decimal, localcontext

import pytest

from emsingular import cli
from emsingular.errors import (CoincidentPointsError, SuperluminalError)
from emsingular.fields.medium import C0, EPS0, MU0
from emsingular.fields import retarded
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


def emission(src, y, t):
    """(t', r, doppler) at the emission point, from solve_retarded_time:
    r = |y - x(t')| and doppler = 1 / (1 - n.v/c)."""
    t_ret = retarded.solve_retarded_time(src, y, t)
    sep = y - src.position(t_ret)
    r = sep.norm()
    return t_ret, r, 1.0 / (1.0 - (sep / r).dot(src.v) / C0)


# ---------------------------------------------------------------- static

def test_static_charge_reduces_to_coulomb():
    at = Point3(0.2, -0.1, 0.35)
    y = Point3(1.3, 0.7, -0.4)
    src = static_point_charge(Q, at)
    res = retarded.lienard_wiechert(src, y, t=4.7)
    ref = Q / (4.0 * math.pi * EPS0 * (y - at).norm())
    assert res.phi == pytest.approx(ref, rel=1e-14)
    assert res.a.norm() == 0.0
    assert emission(src, y, 4.7)[2] == pytest.approx(1.0, rel=1e-15)


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
        res = retarded.lienard_wiechert(src, y, t)
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
    t_ahead, _, ahead = emission(src, Point3(2.0, 0.0, 0.0), 0.0)
    t_behind, _, behind = emission(src, Point3(-2.0, 0.0, 0.0), 0.0)
    assert ahead == pytest.approx(1.0 / (1.0 - beta), rel=1e-12)
    assert behind == pytest.approx(1.0 / (1.0 + beta), rel=1e-12)
    # emission times: t' = -Y / (c (1 -+ beta))
    assert t_ahead == pytest.approx(-2.0 / (C0 * (1.0 - beta)), rel=1e-12)
    assert t_behind == pytest.approx(-2.0 / (C0 * (1.0 + beta)), rel=1e-12)


def test_doppler_amplifies_approach_attenuates_recession():
    v = Vec3(0.0, 0.0, 0.5 * C0)
    src = uniform_point_charge(Q, Point3(0.0, 0.0, 0.0), v)
    toward = emission(src, Point3(0.3, 0.1, 5.0), 0.0)[2]
    away = emission(src, Point3(0.3, 0.1, -5.0), 0.0)[2]
    assert toward > 1.0
    assert away < 1.0


# ---------------------------------------------------------------- solver

def test_emission_time_satisfies_light_cone():
    v = Vec3(0.3 * C0, 0.1 * C0, -0.2 * C0)
    src = uniform_point_charge(Q, Point3(0.5, -0.2, 0.1), v)
    for t in (0.0, 3.0e-9, -1.0e-9):
        for y in (Point3(2.0, 1.0, 0.0), Point3(-1.0, 0.4, 2.5)):
            t_ret = retarded.solve_retarded_time(src, y, t)
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


EPS = 2.0 ** -52


@pytest.mark.parametrize("t", [1.0e-3, 1.0, 1.0e3])
def test_emission_time_of_fast_charge_is_rounding_accurate(t):
    """At beta = 0.99 the emission time is off the exact root by no more
    than its conditioning and the root's own rounding allow.

    Input conditioning: w = y - (x0 + t v) is formed with a few roundings
    of size eps (|y| + |x0| + |t||v|) per component.  From c tau = |w + v tau|,
    d tau = n.dw / (c - n.v), so an error dw moves the delay by at most
    |dw| / (c - |v|); 4 eps (|y| + |x0| + |t||v|) / (c - |v|) covers it.
    Root rounding: k = c^2 - v.v is formed with error eps c^2, a relative
    error eps / (1 - beta^2) that passes into tau, as do a few relative
    eps from the square root and the division; 8 eps tau / (1 - beta^2)
    covers them.  Forming t' = t - tau and rounding it adds 2 ulp(t').
    """
    rng = random.Random(int(t * 1e3))
    beta = 0.99
    for direction in ((1.0, 0.0, 0.0), (0.6, -0.8, 0.0), (-0.48, 0.6, 0.64)):
        v = Vec3(*(beta * C0 * a for a in direction))
        # the charge passes near the origin at time t
        x0 = Point3(0.1, -0.2, 0.3) - t * v
        src = uniform_point_charge(Q, x0, v)
        for _ in range(40):
            y = Point3(rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2))
            t_ret = retarded.solve_retarded_time(src, y, t)
            delay = exact_delay(x0, v, y, t)
            err = abs(Decimal(t_ret) - (Decimal(t) - delay))
            speed = v.norm()
            bound = (4.0 * EPS * (y.norm() + x0.norm() + abs(t) * speed)
                     / (C0 - speed)
                     + 8.0 * EPS * float(delay) / (1.0 - beta * beta)
                     + 2.0 * math.ulp(t_ret))
            assert err <= Decimal(bound), (direction, y)


FAST_CHARGE_SCENE = """\
schema: 1
sources:
  - type: point_charge
    q: 1.0e-9
    position: [-296794533.42, 0, 0]
    velocity: [296794533.42, 0, 0]
grid:
  x: {start: 0.5, stop: 2.0, count: 4}
  y: {start: -0.5, stop: 0.5, count: 3}
  z: 0.2
  time: 1.0
outputs: [phi, a]
"""


def test_run_fast_charge_rows_are_ok(tmp_path):
    # 0.99 c, passing the origin at t = 1 s
    scene = tmp_path / "scene.yaml"
    scene.write_text(textwrap.dedent(FAST_CHARGE_SCENE))
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", str(scene), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert len(rows) == 12
    assert [r["status"] for r in rows] == ["ok"] * 12
    x0 = Point3(-296794533.42, 0.0, 0.0)
    v = Vec3(296794533.42, 0.0, 0.0)
    for r in rows:
        y = Point3(float(r["x"]), float(r["y"]), float(r["z"]))
        want = boosted_phi(1.0e-9, x0, v, y, float(r["t"]))
        assert float(r["phi"]) == pytest.approx(want, rel=1e-8)


PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def exact_potentials(q, x0, v, y, t):
    """(phi, a) of the uniformly moving charge in 60-digit decimals,
    from its present position: with l = y - x0 - t v,
    phi = q / (4 pi eps0 D), D^2 = |l|^2 (1 - v.v/c^2) + (l.v)^2/c^2,
    and a = mu0 q v / (4 pi D)."""
    with localcontext() as ctx:
        ctx.prec = 60
        L = [Decimal(a) - Decimal(b) - Decimal(w) * Decimal(t)
             for a, b, w in zip(y.as_tuple(), x0.as_tuple(), v.as_tuple())]
        V = [Decimal(w) for w in v.as_tuple()]
        c2 = Decimal(C0) ** 2
        lv = sum(a * b for a, b in zip(L, V))
        d = (sum(a * a for a in L) * (1 - sum(w * w for w in V) / c2)
             + lv * lv / c2).sqrt()
        phi = Decimal(q) / (4 * PI_60 * Decimal(EPS0) * d)
        a = [Decimal(MU0) * Decimal(q) * w / (4 * PI_60 * d) for w in V]
        return phi, a


def test_fast_charge_rows_report_their_rounding(tmp_path):
    # 0.99 c at 3e8 m from the origin: the emission point x0 + t' v
    # rounds by ~3e-8 m and phi by up to 7e-10 of itself, which each
    # row's quad_error must bound, and not by more than 100x
    scene = tmp_path / "scene.yaml"
    scene.write_text(textwrap.dedent(FAST_CHARGE_SCENE))
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", str(scene), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    x0 = Point3(-296794533.42, 0.0, 0.0)
    v = Vec3(296794533.42, 0.0, 0.0)
    worst = Decimal(0)
    for r in rows:
        y = Point3(float(r["x"]), float(r["y"]), float(r["z"]))
        phi, _ = exact_potentials(1.0e-9, x0, v, y, float(r["t"]))
        err = abs(Decimal(r["phi"]) - phi)
        bound = Decimal(r["quad_error"])
        assert err <= bound, (r["x"], r["y"])
        worst = max(worst, err / bound)
    assert worst >= Decimal("0.01")


@pytest.mark.parametrize("t", [2.0e-9, 1.37, 1.0e3])
@pytest.mark.parametrize("beta", [0.0, 0.5, 0.99])
def test_point_charge_rounding_bound_is_honest(t, beta):
    # the charge passes near the origin at time t, from up to |t| c away;
    # each bound holds, and the worst point's error is within 100x of it
    rng = random.Random(int(t * 1e3) + int(100 * beta))
    worst_phi = worst_a = Decimal(0)
    for direction in ((1.0, 0.0, 0.0), (0.6, -0.8, 0.0), (-0.48, 0.6, 0.64)):
        v = Vec3(*(beta * C0 * a for a in direction))
        x0 = Point3(0.1, -0.2, 0.3) - t * v
        src = uniform_point_charge(Q, x0, v)
        for _ in range(20):
            y = Point3(rng.uniform(-2, 2), rng.uniform(-2, 2),
                       rng.uniform(-2, 2))
            res = retarded.lienard_wiechert(src, y, t)
            bound_phi = Decimal(res.error)
            bound_a = Decimal(res.diagnostics["a_error"])
            phi, a = exact_potentials(Q, x0, v, y, t)
            err_phi = abs(Decimal(res.phi) - phi)
            assert err_phi <= bound_phi, (direction, y)
            worst_phi = max(worst_phi, err_phi / bound_phi)
            for got, want in zip(res.a.as_tuple(), a):
                err_a = abs(Decimal(got) - want)
                assert err_a <= bound_a, (direction, y)
                if bound_a:
                    worst_a = max(worst_a, err_a / bound_a)
    assert worst_phi >= Decimal("0.01")
    assert beta == 0.0 or worst_a >= Decimal("0.01")


# 0.9999999999999998 c, the last float speed below c along it
FOUND_VELOCITY = [192458610.4692093, 104212127.93720242, -204878094.29205224]
FOUND_POSITION = [-3.7515771173536905, 8.429062560554879, -11.453830364718732]
FOUND_POINT = [-3.3650592564451975, 8.639114938893009, -11.864375566208414]


@pytest.mark.parametrize("t", [2.0e-9, 1.37, 1.0e3])
def test_point_charge_rounding_bound_holds_at_the_last_float_below_c(t):
    # at beta = 1 - 2^-52, k = c*c - v.v keeps a bit or two of its
    # 60-digit value; every bound still holds, and stays finite
    rng = random.Random(int(t * 1e3) + 52)
    speed = (1.0 - 2.0 ** -52) * C0
    velocities = [Vec3(*(speed * a for a in direction)) for direction in
                  ((1.0, 0.0, 0.0), (0.6, -0.8, 0.0), (-0.48, 0.6, 0.64))]
    velocities.append(Vec3(*FOUND_VELOCITY))
    for v in velocities:
        x0 = Point3(0.1, -0.2, 0.3) - t * v
        src = uniform_point_charge(Q, x0, v)
        ys = [Point3(rng.uniform(-2, 2), rng.uniform(-2, 2),
                     rng.uniform(-2, 2)) for _ in range(20)]
        ys.append(Point3(*FOUND_POINT) - Point3(*FOUND_POSITION)
                  + src.position(2.0e-9))
        for y in ys:
            res = retarded.lienard_wiechert(src, y, t)
            bound_phi, bound_a = res.error, res.diagnostics["a_error"]
            assert math.isfinite(bound_phi) and math.isfinite(bound_a)
            phi, a = exact_potentials(Q, x0, v, y, t)
            assert abs(Decimal(res.phi) - phi) <= Decimal(bound_phi), (v, y)
            for got, want in zip(res.a.as_tuple(), a):
                assert abs(Decimal(got) - want) <= Decimal(bound_a), (v, y)


@pytest.mark.parametrize("t", [0.0, 2.0e-9])
def test_point_charge_bound_normal_to_v_at_the_last_float_below_c(t):
    # at beta = 1 - 2^-52 with y - x(t) normal to v, k = c*c - v.v keeps
    # a bit or two of its 60-digit value and phi is ~5% off; with k's
    # rounding formed exactly the bound is finite, holds and is tight
    # (t = 0 along x is the charge at the origin seen from (0, 1, 0)).
    # t stays small, so x0 lies within ~1 m: at t = 1.37 s, w's own
    # rounding along v moves D by most of itself, and the bound is inf
    speed = (1.0 - 2.0 ** -52) * C0
    worst = Decimal(0)
    for direction, normal in (((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
                              ((0.6, -0.8, 0.0), (0.8, 0.6, 0.0)),
                              ((-0.48, 0.6, 0.64), (0.0, 0.64, -0.6))):
        v = Vec3(*(speed * a for a in direction))
        x0 = Point3(0.0, 0.0, 0.0) - t * v
        src = uniform_point_charge(Q, x0, v)
        for r in (1.0, 0.37, 25.0):
            y = Point3(*(r * a for a in normal))
            res = retarded.lienard_wiechert(src, y, t)
            bound_phi, bound_a = res.error, res.diagnostics["a_error"]
            assert math.isfinite(bound_phi) and math.isfinite(bound_a)
            phi, a = exact_potentials(Q, x0, v, y, t)
            err = abs(Decimal(res.phi) - phi)
            assert err <= Decimal(bound_phi), (v, y)
            worst = max(worst, err / Decimal(bound_phi))
            for got, want in zip(res.a.as_tuple(), a):
                assert abs(Decimal(got) - want) <= Decimal(bound_a), (v, y)
    assert worst >= Decimal("0.01")


def test_run_charge_at_the_last_float_below_c(tmp_path):
    # there 1 - n.v/c of the emission-point form rounds to 0, and the
    # run stopped with "internal error: ZeroDivisionError"
    scene = tmp_path / "scene.yaml"
    x = FOUND_POINT[0]
    scene.write_text(textwrap.dedent("""\
    schema: 1
    sources:
      - type: point_charge
        q: 1.0e-9
        position: %r
        velocity: %r
    grid:
      x: {start: %r, stop: %r, count: 3}
      y: %r
      z: %r
      time: 2.0e-9
    outputs: [phi, a]
    """ % (FOUND_POSITION, FOUND_VELOCITY, x, x + 0.2, FOUND_POINT[1],
           FOUND_POINT[2])))
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", str(scene), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert [r["status"] for r in rows] == ["ok"] * 3
    for r in rows:
        assert all(math.isfinite(float(r[key])) for key in r
                   if key != "status"), r
        y = Point3(float(r["x"]), float(r["y"]), float(r["z"]))
        phi, _ = exact_potentials(1.0e-9, Point3(*FOUND_POSITION),
                                  Vec3(*FOUND_VELOCITY), y, 2.0e-9)
        assert abs(Decimal(r["phi"]) - phi) <= Decimal(r["quad_error"])


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
        retarded.lienard_wiechert(src, Point3(0.7, 0.0, 0.0), t=0.0)


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


def test_far_charge_is_not_coincident():
    # |y|^2 overflows; the coincidence floor, 1e-12 of |y|, must not
    at = Point3(2e154, 0.0, 0.0)
    res = retarded.lienard_wiechert(static_point_charge(Q, at),
                                    Point3(2e154, 1e144, 0.0), t=0.0)
    assert res.phi == pytest.approx(Q / (4.0 * math.pi * EPS0 * 1e144),
                                    rel=1e-14)
    assert emission(static_point_charge(Q, at), Point3(2e154, 1e144, 0.0),
                    0.0)[1] == 1e144


@pytest.mark.parametrize("x, velocity", [
    (1e150, [0.0, 0.0, 0.0]),
    (1e150, [1.5e8, -1.0e8, 0.5e8]),
    (1e300, [1.5e8, -1.0e8, 0.5e8]),
])
def test_run_far_charge_rows_are_ok(tmp_path, x, velocity):
    # beyond ~1e146 m, (w.v)^2 + k |w|^2 in the emission-time solve
    # overflows; the row must still hold the closed-form potential,
    # within its quad_error, and finite fields
    scene = tmp_path / "scene.yaml"
    scene.write_text(textwrap.dedent("""\
    schema: 1
    sources:
      - type: point_charge
        q: 1.0e-9
        position: [0.0, 0.0, 0.0]
        velocity: %s
    grid:
      x: %r
      y: 0.0
      z: 0.0
      time: 1.0
    outputs: [phi, a, e]
    """ % (velocity, x)))
    out = tmp_path / "map.csv"
    assert cli.main(["run", "--scene", str(scene), "--out", str(out)]) == 0
    with open(out) as fh:
        (row,) = list(csv.DictReader(ln for ln in fh
                                     if not ln.startswith("#")))
    assert row["status"] == "ok"
    phi, a = exact_potentials(1.0e-9, Point3(0.0, 0.0, 0.0),
                              Vec3(*velocity), Point3(x, 0.0, 0.0), 1.0)
    bound = Decimal(row["quad_error"])
    assert abs(Decimal(row["phi"]) - phi) <= bound
    assert abs(Decimal(row["phi"]) - phi) <= Decimal(1e-13) * phi
    if velocity == [0.0, 0.0, 0.0]:
        assert float(row["phi"]) == pytest.approx(
            1.0e-9 / (4.0 * math.pi * EPS0 * x), rel=1e-14)
    for key in ("a_x", "a_y", "a_z", "e_x", "e_y", "e_z"):
        assert math.isfinite(float(row[key])), key
