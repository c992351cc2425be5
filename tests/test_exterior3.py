"""Exterior calculus operators: exact tables and numerical derivatives.

Composed-operator identities (dd = 0, delta delta = 0, Laplacian
comparisons) use h = 1e-3: roundoff in a second central difference
grows like eps / h^2, so a microscopic h would drown the identity in
noise.  Truncation of a single central difference is O(h^2), hence the
10 * h^2 tolerances.
"""

import math

import pytest

from emsingular.exterior3 import (BASIS, ETA_SIGN, HODGE_TABLE, FormField,
                                  codifferential, codifferential_field,
                                  d_field, d_numeric, eta, hodge,
                                  hodge_numeric, laplacian, wedge)
from emsingular.geometry import Point3, Vec3

H = 1e-3
TOL2 = 10.0 * H * H  # second-difference identity budget


def test_basis_counts():
    assert [len(BASIS[p]) for p in range(4)] == [1, 3, 3, 1]


def test_hodge_table_is_involutive_with_plus_sign():
    # ## = +1 on every degree in R^3
    for idx, (cidx, sign) in HODGE_TABLE.items():
        c2, sign2 = HODGE_TABLE[cidx]
        assert c2 == idx
        assert sign * sign2 == 1


def test_hodge_table_signs_against_volume_pairing():
    # dx^I ^ #dx^I must be +dx^dy^dz; spot check the mixed-sign entry
    assert HODGE_TABLE[(1,)] == ((0, 2), -1)
    assert HODGE_TABLE[(0,)] == ((1, 2), 1)
    assert HODGE_TABLE[(2,)] == ((0, 1), 1)
    # and via wedge on constant forms
    for axis in range(3):
        one = FormField(1, {(axis,): lambda p, t: 1.0})
        vol = wedge(one, hodge(one))
        assert vol((0, 1, 2), Point3(0.3, -0.2, 0.9)) == pytest.approx(1.0)


def test_hodge_numeric_matches_table():
    comp = {(0,): 2.0, (1,): -3.0, (2,): 5.0}
    out = hodge_numeric(comp)
    assert out == {(1, 2): 2.0, (0, 2): 3.0, (0, 1): 5.0}


def test_eta_signs():
    assert [ETA_SIGN[p] for p in range(4)] == [1, -1, 1, -1]
    a = FormField(1, {(0,): lambda p, t: 7.0})
    assert eta(a)((0,), Point3(0, 0, 0)) == -7.0
    b = FormField(2, {(0, 1): lambda p, t: 7.0})
    assert eta(b) is b  # even degrees untouched


def test_wedge_anticommutes_on_one_forms():
    dx = FormField(1, {(0,): lambda p, t: 1.0})
    dy = FormField(1, {(1,): lambda p, t: 1.0})
    pt = Point3(1.0, 2.0, 3.0)
    assert wedge(dx, dy)((0, 1), pt) == 1.0
    assert wedge(dy, dx)((0, 1), pt) == -1.0
    assert wedge(dx, dx).components in ({}, {(0, 0): None}) or \
        wedge(dx, dx)((0, 1), pt) == 0.0


def test_wedge_one_form_with_its_star_gives_norm_squared():
    v = Vec3(1.0, -2.0, 2.0)
    a = FormField.from_vector_field(lambda p: v)
    vol = wedge(a, hodge(a))
    got = vol((0, 1, 2), Point3(0.1, 0.2, 0.3))
    assert got == pytest.approx(v.dot(v), rel=1e-14)


def test_d_of_scalar_is_gradient():
    f = FormField.scalar(lambda p, t: p.x ** 2 * p.y + 3.0 * p.z)
    pt = Point3(1.2, -0.7, 0.4)
    got = d_numeric(f, pt, h=1e-5)
    assert got[(0,)] == pytest.approx(2.0 * pt.x * pt.y, abs=1e-8)
    assert got[(1,)] == pytest.approx(pt.x ** 2, abs=1e-8)
    assert got[(2,)] == pytest.approx(3.0, abs=1e-8)


def test_d_of_one_form_is_curl_pattern():
    # a = -y dx + x dy has da = 2 dx^dy
    a = FormField.one_form(
        lambda p, t: -p.y, lambda p, t: p.x, lambda p, t: 0.0)
    got = d_numeric(a, Point3(0.5, 0.25, -1.0), h=1e-5)
    assert got[(0, 1)] == pytest.approx(2.0, abs=1e-9)
    assert got[(0, 2)] == pytest.approx(0.0, abs=1e-9)
    assert got[(1, 2)] == pytest.approx(0.0, abs=1e-9)


def test_dd_is_zero():
    f = FormField.scalar(lambda p, t: math.sin(p.x) * p.y + p.z ** 3)
    ddf = d_numeric(d_field(f, h=H), Point3(0.4, 0.8, -0.3), h=H)
    for idx, v in ddf.items():
        assert abs(v) < TOL2, (idx, v)


def test_codifferential_of_radial_one_form():
    # delta(x dx + y dy + z dz) = -3 under this realization
    a = FormField.one_form(
        lambda p, t: p.x, lambda p, t: p.y, lambda p, t: p.z)
    got = codifferential(a, Point3(0.3, -0.6, 1.1), h=1e-5)
    assert got[()] == pytest.approx(-3.0, abs=1e-8)


def test_codifferential_is_minus_divergence_on_one_forms():
    a = FormField.one_form(
        lambda p, t: p.x * p.y,
        lambda p, t: p.z ** 2,
        lambda p, t: -p.x + p.y * p.z)
    pt = Point3(0.9, 0.2, -0.5)
    got = codifferential(a, pt, h=1e-5)[()]
    div = pt.y + 0.0 + pt.y  # d/dx(xy) + d/dy(z^2) + d/dz(-x + yz)
    assert got == pytest.approx(-div, abs=1e-8)


def test_delta_delta_is_zero():
    b = FormField(2, {
        (0, 1): lambda p, t: p.x * p.z,
        (0, 2): lambda p, t: p.y ** 2,
        (1, 2): lambda p, t: math.cos(p.x),
    })
    dd = codifferential(codifferential_field(b, h=H),
                        Point3(0.7, -0.4, 0.2), h=H)
    for idx, v in dd.items():
        assert abs(v) < TOL2, (idx, v)


def test_laplacian_equals_minus_componentwise_laplace():
    # scalar x^2: flat Laplacian 2, Hodge-de Rham operator gives -2
    f = FormField.scalar(lambda p, t: p.x ** 2)
    got = laplacian(f, Point3(0.2, 0.4, 0.6), h=H)
    assert got[()] == pytest.approx(-2.0, abs=TOL2)

    # harmonic polynomial: zero
    g = FormField.scalar(lambda p, t: p.x ** 2 - p.y ** 2)
    got = laplacian(g, Point3(1.1, 0.3, -0.8), h=H)
    assert abs(got[()]) < TOL2

    # 1-form with polynomial components: componentwise
    a = FormField.one_form(
        lambda p, t: p.y ** 2, lambda p, t: 0.0, lambda p, t: p.z ** 2)
    got = laplacian(a, Point3(0.5, 0.5, 0.5), h=H)
    assert got[(0,)] == pytest.approx(-2.0, abs=TOL2)
    assert got[(1,)] == pytest.approx(0.0, abs=TOL2)
    assert got[(2,)] == pytest.approx(-2.0, abs=TOL2)


def test_laplacian_annihilates_reciprocal_distance():
    f = FormField.scalar(lambda p, t: 1.0 / p.norm())
    pt = Point3(1.0, 0.7, -0.4)
    got = laplacian(f, pt, h=H)
    # scale: |f''| ~ 2/r^3
    scale = 2.0 / pt.norm() ** 3
    assert abs(got[()]) < TOL2 * scale * 10.0


def test_invalid_degree_and_component_keys_rejected():
    with pytest.raises(ValueError):
        FormField(4, {})
    with pytest.raises(ValueError):
        FormField(1, {(0, 1): lambda p, t: 0.0})


def test_on_support_error_from_nonfinite_stencil():
    from emsingular.errors import OnSupportError

    def comp(p, t):
        return math.inf if p.x <= 0.0 else 1.0 / p.x

    f = FormField.scalar(comp)
    with pytest.raises(OnSupportError):
        d_numeric(f, Point3(1e-6, 0.0, 0.0), h=1e-5)
