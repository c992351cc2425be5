"""Electrostatic evaluators: Coulomb, dipole, plates."""

import math
import random

import mpmath
import pytest

from emsingular.errors import (CoincidentPointsError, InvalidGeometryError,
                               OnSupportError, OutOfDomainError)
from emsingular.fields import electro, retarded
from emsingular.fields.medium import EPS0, VACUUM, MediumConstants
from emsingular.geometry import Point3, Vec3
from emsingular.kernels import coincident_floor
from emsingular.sources import DipoleSource, static_point_charge


# point charges are fields.retarded's; a static one is Coulomb's


def test_point_charge_coulomb_value():
    q = 2e-9
    res = retarded.lienard_wiechert(static_point_charge(q, Point3(0, 0, 0)),
                                    Point3(3.0, 0.0, 4.0), 0.0)
    assert res.phi == pytest.approx(q / (4.0 * math.pi * EPS0 * 5.0),
                                    rel=1e-14)
    assert res.a.norm() == 0.0


def test_point_charge_medium_scaling():
    doubled = MediumConstants.from_eps_mu(2.0 * VACUUM.eps, VACUUM.mu)
    y = Point3(1.0, 1.0, 0.0)
    src = static_point_charge(1e-9, Point3(0, 0, 0))
    base = retarded.lienard_wiechert(src, y, 0.0)
    half = retarded.lienard_wiechert(src, y, 0.0, medium=doubled)
    assert half.phi == pytest.approx(0.5 * base.phi, rel=1e-14)


def test_point_charge_coincident_raises():
    with pytest.raises(CoincidentPointsError):
        retarded.lienard_wiechert(static_point_charge(1.0, Point3(1, 2, 3)),
                                  Point3(1, 2, 3), 0.0)


def test_dipole_axis_and_equator():
    m = 1e-12
    dip = DipoleSource(Point3(0, 0, 0), Vec3(0, 0, m))
    on_axis = electro.dipole_potential(dip, Point3(0, 0, 2.0))
    assert on_axis.phi == pytest.approx(
        m / (4.0 * math.pi * EPS0 * 4.0), rel=1e-13)
    equator = electro.dipole_potential(dip, Point3(1.5, 0.0, 0.0))
    assert equator.phi == 0.0


def test_dipole_angular_dependence():
    m = 1e-12
    dip = DipoleSource(Point3(0, 0, 0), Vec3(0, 0, m))
    r, theta = 2.0, 0.7
    y = Point3(r * math.sin(theta), 0.0, r * math.cos(theta))
    res = electro.dipole_potential(dip, y)
    expected = m * math.cos(theta) / (4.0 * math.pi * EPS0 * r * r)
    assert res.phi == pytest.approx(expected, rel=1e-13)


def _unit(rng):
    u = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
    return u / u.norm()


def test_dipole_rounding_bound_is_honest():
    # seeded dipoles, every other point near or on the equatorial plane,
    # where m . (y - x0) cancels; the bound holds at every point against
    # 40 digits, and is within 100x of the error wherever that error is
    # at least u / 4 of the uncancelled scale sum_i |m_i s_i| / 4 pi eps d^3
    rng = random.Random(7)
    tight = [0, 0]
    with mpmath.workdps(40):
        for i in range(200):
            at = Point3(*(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3, 6)
                          for _ in range(3)))
            u = _unit(rng)
            dip = DipoleSource(at, 10.0 ** rng.uniform(-15, -9) * u)
            w = _unit(rng)
            if i % 2:
                w = w - w.dot(u) * u
                w = w / w.norm() + rng.choice([0.0, 1e-12, 1e-6, 1e-3]) * u
            y = at + 10.0 ** rng.uniform(-3, 2) * w
            res = electro.dipole_potential(dip, y)
            s = [mpmath.mpf(a) - mpmath.mpf(b)
                 for a, b in zip(y.as_tuple(), at.as_tuple())]
            m = [mpmath.mpf(c) for c in dip.moment.as_tuple()]
            den = (4 * mpmath.pi * mpmath.mpf(VACUUM.eps)
                   * mpmath.sqrt(sum(c * c for c in s)) ** 3)
            exact = sum(a * b for a, b in zip(m, s)) / den
            err = abs(mpmath.mpf(res.phi) - exact)
            assert err <= res.error, (i, y)
            if err >= 2.0 ** -55 * sum(abs(a * b) for a, b in zip(m, s)) / den:
                assert res.error <= 100 * err, (i, y)
                tight[i % 2] += 1
    assert min(tight) >= 40


# ---------------------------------------------------------------------------
# line charge between grounded plates


def _plate_wire_mp(z0, lam, L, x, z):
    """The image series' sum (lam / 4 pi eps) ln(N / D) in the cosine
    form, N, D = 1 - 2q cos(b -+ c) + q^2, at 60 digits from the exact
    float inputs."""
    with mpmath.workdps(60):
        k = mpmath.pi / mpmath.mpf(L)
        b, c = k * mpmath.mpf(z), k * mpmath.mpf(z0)
        q = mpmath.exp(-k * abs(mpmath.mpf(x)))
        num = 1 - 2 * q * mpmath.cos(b + c) + q * q
        den = 1 - 2 * q * mpmath.cos(b - c) + q * q
        return (mpmath.mpf(lam) / (4 * mpmath.pi * mpmath.mpf(VACUUM.eps))
                * mpmath.log(num / den))


def test_plate_wire_rounding_bound_is_honest():
    rng = random.Random(20261020)
    cases = [(0.733, 1e-9, 1.0, 0.0, 0.733 + 1e-9)]
    for _ in range(600):
        L = rng.choice([1.0, 0.37, 2.5, 4e3])
        z0 = rng.uniform(0.02, 0.98) * L
        x = rng.choice([0.0, 10.0 ** rng.uniform(-7.0, -3.0),
                        rng.uniform(9.5, 10.5), rng.uniform(0.0, 2.0)])
        x *= rng.choice([-L, L])
        gap = 10.0 ** rng.uniform(-12.0, -2.0) * L
        z = rng.choice([z0 + gap, z0 - gap, gap, L - gap,
                        rng.uniform(0.0, L)])
        cases.append((z0, rng.choice([1e-9, -3e-9]), L, x, z))
    worst = 0.0
    for z0, lam, L, x, z in cases:
        y = Point3(x, 0.0, z)
        if math.hypot(x, z - z0) < coincident_floor(y, Point3(0, 0, z0)):
            with pytest.raises(OnSupportError):
                electro.plate_wire_potential(z0, lam, L, y)
            continue
        res = electro.plate_wire_potential(z0, lam, L, y)
        assert res.converged
        bound = res.error
        err = abs(mpmath.mpf(res.phi) - _plate_wire_mp(z0, lam, L, x, z))
        assert err <= bound
        worst = max(worst, float(err / bound))
    # a bound that is too loose fails as well
    assert worst >= 0.01


def test_plate_wire_series_matches_closed_form():
    # the image series (lam / pi eps) sum_n (1/n) sin(nb) sin(nc) q^n,
    # summed term by term, against the closed form it sums to
    z0, lam, L = 0.4, 1e-9, 1.0
    k = math.pi / L
    for y in (Point3(0.2, 0.0, 0.6), Point3(-0.35, 3.0, 0.15),
              Point3(1.2, 0.0, 0.85)):
        q = math.exp(-k * abs(y.x))
        terms = [math.sin(n * k * y.z) * math.sin(n * k * z0) * q ** n / n
                 for n in range(1, 200)]
        series = lam / (math.pi * VACUUM.eps) * math.fsum(terms)
        res = electro.plate_wire_potential(z0, lam, L, y)
        assert res.converged
        assert res.phi == pytest.approx(series, rel=1e-10)


@pytest.mark.parametrize("x", [0.01, 0.05, 0.1])
def test_plate_wire_error_bounds_the_slow_tail(x):
    # near the wire plane the series terms fall off like q^n / n with q
    # close to 1; the closed form must still land within its reported
    # error of the series' exact sum
    lam, L = 1e-9, 1.0
    for k in range(1, 20):
        for j in range(1, 10):
            z0, y = 0.1 * j, Point3(x, 0.0, 0.05 * k)
            res = electro.plate_wire_potential(z0, lam, L, y)
            exact = _plate_wire_mp(z0, lam, L, x, y.z)
            assert abs(mpmath.mpf(res.phi) - exact) <= \
                res.error


def test_plate_wire_boundary_values_are_zero():
    z0, lam, L = 0.3, 1e-9, 2.0
    top = electro.plate_wire_potential(z0, lam, L, Point3(0.5, 0.0, 2.0))
    bottom = electro.plate_wire_potential(z0, lam, L, Point3(0.5, 0.0, 0.0))
    assert top.phi == 0.0
    assert bottom.phi == 0.0


def test_plate_wire_on_plane_abel_limit():
    # one form for every x: the wire plane x = 0 (Abel's sum of the
    # image series) is the limit of the values beside it, to rounding
    z0, lam, L = 0.4, 1e-9, 1.0
    for z in (0.7, 0.4 + 1e-9, 0.05):
        on = electro.plate_wire_potential(z0, lam, L, Point3(0.0, 0.0, z))
        for x in (5e-324, 1e-300, 1e-20):
            for side in (x, -x):
                near = electro.plate_wire_potential(z0, lam, L,
                                                    Point3(side, 0.0, z))
                assert abs(near.phi - on.phi) <= (
                    near.error
                    + on.error)


def test_plate_wire_symmetric_in_x():
    z0, lam, L = 0.6, 2e-9, 1.5
    plus = electro.plate_wire_potential(z0, lam, L, Point3(0.4, 0.0, 0.9))
    minus = electro.plate_wire_potential(z0, lam, L, Point3(-0.4, 5.0, 0.9))
    assert plus.phi == pytest.approx(minus.phi, rel=1e-14)


def test_plate_wire_reciprocity_in_heights():
    # swapping source and field heights leaves the potential unchanged
    lam, L = 1e-9, 1.0
    x = 0.3
    a1 = electro.plate_wire_potential(0.25, lam, L, Point3(x, 0.0, 0.65))
    a2 = electro.plate_wire_potential(0.65, lam, L, Point3(x, 0.0, 0.25))
    assert a1.phi == pytest.approx(a2.phi, rel=1e-12)


def test_plate_wire_domain_and_support_errors():
    z0, lam, L = 0.4, 1e-9, 1.0
    with pytest.raises(OutOfDomainError):
        electro.plate_wire_potential(z0, lam, L, Point3(0.1, 0.0, 1.2))
    with pytest.raises(OutOfDomainError):
        electro.plate_wire_potential(z0, lam, L, Point3(0.1, 0.0, -0.1))
    with pytest.raises(OnSupportError):
        electro.plate_wire_potential(z0, lam, L, Point3(0.0, 2.0, z0))
    with pytest.raises(OnSupportError):      # refused by distance, off x = 0
        electro.plate_wire_potential(z0, lam, L, Point3(1e-300, 0.0, z0))
    with pytest.raises(InvalidGeometryError):
        electro.plate_wire_potential(1.5, lam, L, Point3(0.1, 0.0, 0.5))
    with pytest.raises(InvalidGeometryError):
        electro.plate_wire_potential(0.4, lam, -1.0, Point3(0.1, 0.0, 0.5))


def test_plate_wire_sign_tracks_charge():
    z0, L = 0.4, 1.0
    y = Point3(0.2, 0.0, 0.45)  # near the wire: dominated by it
    pos = electro.plate_wire_potential(z0, 1e-9, L, y)
    neg = electro.plate_wire_potential(z0, -1e-9, L, y)
    assert pos.phi > 0.0
    assert neg.phi == pytest.approx(-pos.phi, rel=1e-14)


def test_plate_wire_field_vanishes_far_down_the_gap():
    # modes decay like exp(-pi x / L): at x = 10 L the potential is
    # invisible at double precision
    res = electro.plate_wire_potential(0.5, 1e-9, 1.0,
                                       Point3(10.0, 0.0, 0.5))
    scale = abs(electro.plate_wire_potential(0.5, 1e-9, 1.0,
                                             Point3(0.3, 0.0, 0.5)).phi)
    assert abs(res.phi) < 1e-12 * scale


def test_plate_wire_far_beyond_overflow_is_off_the_wire():
    # |y|^2 overflows: the coincidence floor must stay finite, and
    # phi = 0, exact where exp(-k |x|) underflows, reports no error
    for x in (1e200, 1e308, -1e308):
        res = electro.plate_wire_potential(0.5, 1e-9, 1.0,
                                           Point3(x, 0.0, 0.5))
        assert res.phi == 0.0
        assert res.error == 0.0


def test_dipole_far_away_is_zero_not_an_overflow():
    # |y - x0|^3 overflows from ~5.6e102 m and |y - x0|^2 from ~1.3e154
    dip = DipoleSource(Point3(0.0, 0.0, 0.0), Vec3(1e-12, 0.0, 0.0))
    for x in (1e120, 1e200, -1e308):
        assert electro.dipole_potential(dip, Point3(x, 0.0, 0.0)).phi == 0.0
    # where phi is still above underflow, its error bounds the phi lost
    res = electro.dipole_potential(dip, Point3(1e120, 0.0, 0.0))
    exact = mpmath.mpf(1e-12) / (4 * mpmath.pi * mpmath.mpf(VACUUM.eps)
                                 * mpmath.mpf(1e120) ** 2)
    assert exact <= res.error <= 4 * exact
