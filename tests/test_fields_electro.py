"""Electrostatic evaluators: Coulomb, dipole, plates."""

import math

import pytest

from emsingular.errors import (CoincidentPointsError, InvalidGeometryError,
                               OnSupportError, OutOfDomainError)
from emsingular.fields import electro
from emsingular.fields.medium import EPS0, VACUUM, MediumConstants
from emsingular.geometry import Point3, Vec3
from emsingular.quad import QuadConfig
from emsingular.sources import DipoleSource

CFG = QuadConfig(abs_tol=1e-13, rel_tol=1e-10)


def test_point_charge_coulomb_value():
    q = 2e-9
    res = electro.point_charge_potential(q, Point3(0, 0, 0),
                                         Point3(3.0, 0.0, 4.0))
    assert res.phi == pytest.approx(q / (4.0 * math.pi * EPS0 * 5.0),
                                    rel=1e-14)
    assert res.a.norm() == 0.0


def test_point_charge_medium_scaling():
    doubled = MediumConstants.from_eps_mu(2.0 * VACUUM.eps, VACUUM.mu)
    y = Point3(1.0, 1.0, 0.0)
    base = electro.point_charge_potential(1e-9, Point3(0, 0, 0), y)
    half = electro.point_charge_potential(1e-9, Point3(0, 0, 0), y,
                                          medium=doubled)
    assert half.phi == pytest.approx(0.5 * base.phi, rel=1e-14)


def test_point_charge_coincident_raises():
    with pytest.raises(CoincidentPointsError):
        electro.point_charge_potential(1.0, Point3(1, 2, 3),
                                       Point3(1, 2, 3))


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


def test_derive_e_is_coulomb_field():
    q = 1e-9
    phi = lambda p: electro.point_charge_potential(  # noqa: E731
        q, Point3(0, 0, 0), p).phi
    e = electro.derive_e(phi)
    y = Point3(1.0, 2.0, -2.0)
    r = y.norm()
    expected = q / (4.0 * math.pi * EPS0 * r * r)
    got = e(y)
    assert got.norm() == pytest.approx(expected, rel=1e-7)
    # radially outward for positive charge
    assert got.dot(y - Point3(0, 0, 0)) > 0.0


# ---------------------------------------------------------------------------
# line charge between grounded plates


def test_plate_wire_series_matches_closed_form():
    z0, lam, L = 0.4, 1e-9, 1.0
    for y in (Point3(0.2, 0.0, 0.6), Point3(-0.35, 3.0, 0.15),
              Point3(1.2, 0.0, 0.85)):
        series = electro.plate_wire_potential(z0, lam, L, y, CFG)
        closed = electro.plate_wire_closed(z0, lam, L, y)
        assert series.diagnostics["converged"]
        assert series.phi == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("x", [0.01, 0.05, 0.1])
def test_plate_wire_error_bounds_the_slow_tail(x):
    # near the wire plane the terms fall off like q^n / n with q close
    # to 1, and the last few terms are far smaller than the tail
    lam, L = 1e-9, 1.0
    for k in range(1, 20):
        for j in range(1, 10):
            z0, y = 0.1 * j, Point3(x, 0.0, 0.05 * k)
            res = electro.plate_wire_potential(z0, lam, L, y, CFG)
            closed = electro.plate_wire_closed(z0, lam, L, y)
            assert abs(res.phi - closed) <= res.diagnostics["series_error"]


def test_plate_wire_boundary_values_are_zero():
    z0, lam, L = 0.3, 1e-9, 2.0
    top = electro.plate_wire_potential(z0, lam, L, Point3(0.5, 0.0, 2.0),
                                       CFG)
    bottom = electro.plate_wire_potential(z0, lam, L, Point3(0.5, 0.0, 0.0),
                                          CFG)
    assert top.phi == 0.0
    assert bottom.phi == 0.0


def test_plate_wire_on_plane_abel_limit():
    # x = 0 column: the closed form is continuous in x, so the Abel
    # value must be its x -> 0 limit
    z0, lam, L = 0.4, 1e-9, 1.0
    y0 = Point3(0.0, 0.0, 0.7)
    abel = electro.plate_wire_potential(z0, lam, L, y0, CFG)
    assert abel.diagnostics.get("closed_form")
    approach = electro.plate_wire_closed(z0, lam, L, Point3(1e-9, 0.0, 0.7))
    assert abel.phi == pytest.approx(approach, rel=1e-6)


def test_plate_wire_symmetric_in_x():
    z0, lam, L = 0.6, 2e-9, 1.5
    plus = electro.plate_wire_potential(z0, lam, L, Point3(0.4, 0.0, 0.9),
                                        CFG)
    minus = electro.plate_wire_potential(z0, lam, L, Point3(-0.4, 5.0, 0.9),
                                         CFG)
    assert plus.phi == pytest.approx(minus.phi, rel=1e-14)


def test_plate_wire_reciprocity_in_heights():
    # swapping source and field heights leaves the potential unchanged
    lam, L = 1e-9, 1.0
    x = 0.3
    a1 = electro.plate_wire_potential(0.25, lam, L, Point3(x, 0.0, 0.65),
                                      CFG)
    a2 = electro.plate_wire_potential(0.65, lam, L, Point3(x, 0.0, 0.25),
                                      CFG)
    assert a1.phi == pytest.approx(a2.phi, rel=1e-12)


def test_plate_wire_domain_and_support_errors():
    z0, lam, L = 0.4, 1e-9, 1.0
    with pytest.raises(OutOfDomainError):
        electro.plate_wire_potential(z0, lam, L, Point3(0.1, 0.0, 1.2), CFG)
    with pytest.raises(OutOfDomainError):
        electro.plate_wire_potential(z0, lam, L, Point3(0.1, 0.0, -0.1),
                                     CFG)
    with pytest.raises(OnSupportError):
        electro.plate_wire_potential(z0, lam, L, Point3(0.0, 2.0, z0), CFG)
    with pytest.raises(InvalidGeometryError):
        electro.plate_wire_potential(1.5, lam, L, Point3(0.1, 0.0, 0.5),
                                     CFG)
    with pytest.raises(InvalidGeometryError):
        electro.plate_wire_potential(0.4, lam, -1.0, Point3(0.1, 0.0, 0.5),
                                     CFG)


def test_plate_wire_sign_tracks_charge():
    z0, L = 0.4, 1.0
    y = Point3(0.2, 0.0, 0.45)  # near the wire: dominated by it
    pos = electro.plate_wire_potential(z0, 1e-9, L, y, CFG)
    neg = electro.plate_wire_potential(z0, -1e-9, L, y, CFG)
    assert pos.phi > 0.0
    assert neg.phi == pytest.approx(-pos.phi, rel=1e-14)


def test_plate_wire_field_vanishes_far_down_the_gap():
    # modes decay like exp(-pi x / L): at x = 10 L the potential is
    # invisible at double precision
    res = electro.plate_wire_potential(0.5, 1e-9, 1.0,
                                       Point3(10.0, 0.0, 0.5), CFG)
    scale = abs(electro.plate_wire_potential(0.5, 1e-9, 1.0,
                                             Point3(0.3, 0.0, 0.5),
                                             CFG).phi)
    assert abs(res.phi) < 1e-12 * scale
