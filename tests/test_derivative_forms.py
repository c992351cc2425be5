"""Each electric source's own e and Lorenz-gauge terms, against 60-digit
derivatives of its potentials.

The row writes e and the residual from the closed forms the sources
return with their potentials: Heaviside's e and b and d_i a_i for a
moving charge (b against the curl of a), Coulomb's field for a static
one, the dipole field and the gradient of the plate wire's log1p form.
Each is held here to mpmath.diff of the same potentials written out in
60 digits, to within 1e-12 of its own size, or of the part's scale
where the quantity cancels: |e| for e and |b| for b, and
eps mu |v| |grad phi|, the size any d_i a_i can reach, for the gauge
terms.

For the moving charge the reference takes eps = 1 / (mu c^2) in 60
digits.  The float constants agree to ~1e-16 only, and near c e is the
difference of -grad phi and -da/dt, each ~c^2 / k times e, so that
mismatch alone would move the reference's e by ~20% at the last float
below c.
"""

import math

import mpmath
import pytest

from emsingular.fields import electro, retarded
from emsingular.fields.medium import VACUUM
from emsingular.geometry import Point3, Vec3
from emsingular.sources import (DipoleSource, static_point_charge,
                                uniform_point_charge)

TOL = 1e-12
LAST_BELOW_C = math.nextafter(VACUUM.c, 0.0)


def mp_gradient(f, y):
    """grad f at y (three floats) for f of an mpf 3-list."""
    out = []
    for i in range(3):
        def along(u, i=i):
            p = [mpmath.mpf(c) for c in y]
            p[i] = u
            return f(p)
        out.append(mpmath.diff(along, mpmath.mpf(y[i])))
    return out


def assert_close(got, want, scale, name):
    for g, w in zip(got, want):
        assert abs(mpmath.mpf(g) - w) <= TOL * max(abs(w), scale), (
            name, g, float(w))


def assert_no_gauge(res):
    # the electric sources have a = 0, so every gauge term is 0
    assert res.a.as_tuple() == (0.0, 0.0, 0.0)
    assert res.gauge is None


def mp_charge(q, x0, v, eps, mu, c):
    """(phi, a) of the charge at (y, t), from its present position."""
    def potentials(y, t):
        w = [y[i] - x0[i] - t * v[i] for i in range(3)]
        wv = sum(wi * vi for wi, vi in zip(w, v))
        k = c * c - sum(vi * vi for vi in v)
        d = mpmath.sqrt(wv * wv + k * sum(wi * wi for wi in w)) / c
        phi = q / (4 * mpmath.pi * eps * d)
        return phi, [mu * q * vi / (4 * mpmath.pi * d) for vi in v]
    return potentials


# (speed, field point): x0 = 0 and t = 0 put w = y exactly; the charge
# moves along x, so (2, 0, 0) and (-1.5, 0, 0) lie along v, (0, 1, 0.5)
# is normal to it and (0.7, -0.4, 0.2) oblique
CHARGE_CASES = [(speed, y) for speed in (0.3 * VACUUM.c, LAST_BELOW_C)
                for y in ((2.0, 0.0, 0.0), (-1.5, 0.0, 0.0),
                          (0.0, 1.0, 0.5), (0.7, -0.4, 0.2))]


@pytest.mark.parametrize("speed, y", CHARGE_CASES)
def test_moving_charge_e_and_gauge_terms(speed, y):
    q, v = 1e-9, (speed, 0.0, 0.0)
    src = uniform_point_charge(q, Point3(0.0, 0.0, 0.0), Vec3(*v))
    res = retarded.lienard_wiechert(src, Point3(*y), 0.0, VACUUM,
                                    want_e=True)
    with mpmath.workdps(60):
        mu, c = mpmath.mpf(VACUUM.mu), mpmath.mpf(VACUUM.c)
        eps = 1 / (mu * c * c)
        mv = [mpmath.mpf(vi) for vi in v]
        pot = mp_charge(mpmath.mpf(q), [0, 0, 0], mv, eps, mu, c)
        zero = mpmath.mpf(0)
        grad = mp_gradient(lambda p: pot(p, zero)[0], y)
        da_dt = [mpmath.diff(lambda t, i=i: pot(y, t)[1][i], zero)
                 for i in range(3)]
        e = [-g - d for g, d in zip(grad, da_dt)]
        div = [mp_gradient(lambda p, i=i: pot(p, zero)[1][i], y)[i]
               for i in range(3)]
        term = eps * mu * mpmath.diff(lambda t: pot(y, t)[0], zero)
        e_scale = mpmath.sqrt(sum(x * x for x in e))
        assert_close(res.e.as_tuple(), e, e_scale, "e")
        gauge_scale = eps * mu * abs(mv[0]) * mpmath.sqrt(
            sum(g * g for g in grad))
        assert_close(res.gauge, div + [term], gauge_scale, "gauge")


# off v, where b is not 0; (0, 1, 0) and (0.7, -0.4, 0.2) at the last
# float below c had b 5.7% and 10.5% off, from the rounded k
@pytest.mark.parametrize("speed, y", [
    (speed, y) for speed in (0.3 * VACUUM.c, LAST_BELOW_C)
    for y in ((0.0, 1.0, 0.0), (0.0, 1.0, 0.5), (0.7, -0.4, 0.2))])
def test_moving_charge_b_is_the_curl_of_a(speed, y):
    q, v = 1e-9, (speed, 0.0, 0.0)
    src = uniform_point_charge(q, Point3(0.0, 0.0, 0.0), Vec3(*v))
    res = retarded.lienard_wiechert(src, Point3(*y), 0.0, VACUUM,
                                    want_b=True)
    with mpmath.workdps(60):
        mu, c = mpmath.mpf(VACUUM.mu), mpmath.mpf(VACUUM.c)
        pot = mp_charge(mpmath.mpf(q), [0, 0, 0],
                        [mpmath.mpf(vi) for vi in v], 1 / (mu * c * c), mu, c)
        zero = mpmath.mpf(0)
        da = [mp_gradient(lambda p, i=i: pot(p, zero)[1][i], y)
              for i in range(3)]       # da[i][j] = d_j a_i
        b = [da[2][1] - da[1][2], da[0][2] - da[2][0], da[1][0] - da[0][1]]
        assert_close(res.b.as_tuple(), b,
                     mpmath.sqrt(sum(x * x for x in b)), "b")


def test_static_charge_e_is_coulombs_and_its_gauge_terms_are_0():
    q, at = -2e-9, (0.25, -0.5, 1.0)
    src = static_point_charge(q, Point3(*at))
    for y in ((1.0, 2.0, -2.0), (0.25, -0.5, 1.5), (-3e3, 1e-3, 7.0)):
        res = retarded.lienard_wiechert(src, Point3(*y), 0.0, VACUUM,
                                        want_e=True)
        with mpmath.workdps(60):
            eps = mpmath.mpf(VACUUM.eps)

            def phi(p):
                r = mpmath.sqrt(sum((p[i] - at[i]) ** 2 for i in range(3)))
                return q / (4 * mpmath.pi * eps * r)

            e = [-g for g in mp_gradient(phi, y)]
            assert_close(res.e.as_tuple(), e,
                         mpmath.sqrt(sum(x * x for x in e)), y)
        assert all(g == 0.0 for g in res.gauge), y


@pytest.mark.parametrize("y", [(0.3, 0.2, 0.6), (-1.0, 2.5, 0.1),
                               (0.3, 0.2, 0.5), (2.0, -1.0, 0.5)],
                         ids=["off_plane", "off_plane_far",
                              "equatorial", "equatorial_far"])
def test_dipole_e(y):
    # the moment is along z, so z = 0.5 is the equatorial plane, where
    # phi = 0 and e = -m / (4 pi eps d^3)
    at, m = (0.0, 1.0, 0.5), (0.0, 0.0, 1e-12)
    res = electro.dipole_potential(DipoleSource(Point3(*at), Vec3(*m)),
                                   Point3(*y), VACUUM, want_e=True)
    assert_no_gauge(res)
    with mpmath.workdps(60):
        eps = mpmath.mpf(VACUUM.eps)

        def phi(p):
            s = [p[i] - at[i] for i in range(3)]
            d = mpmath.sqrt(sum(x * x for x in s))
            return (sum(m[i] * s[i] for i in range(3))
                    / (4 * mpmath.pi * eps * d ** 3))

        e = [-g for g in mp_gradient(phi, y)]
        assert_close(res.e.as_tuple(), e,
                     mpmath.sqrt(sum(x * x for x in e)), y)


def mp_plate_wire(z0, lam, gap):
    """phi of the line charge between the plates as the image sum's
    closed form (1/4) ln(N / D), in mpmath."""
    def phi(p):
        k = mpmath.pi / gap
        b, c = k * p[2], k * z0
        q = mpmath.exp(-k * abs(p[0]))
        num = 1 - 2 * q * mpmath.cos(b + c) + q * q
        den = 1 - 2 * q * mpmath.cos(b - c) + q * q
        return lam / (4 * mpmath.pi * mpmath.mpf(VACUUM.eps)) * mpmath.log(
            num / den)
    return phi


STEP = 1e-3     # the difference step of a row point in the unit ball


@pytest.mark.parametrize("y", [
    (0.0, 0.2, 0.7), (0.0, 0.0, 0.1),
    (3 * STEP * 0.6, 0.0, 0.4 + 3 * STEP * 0.8),
    (-3 * STEP, 0.3, 0.4),
    (0.3, 0.0, 1.0 - 0.5 * STEP), (-0.05, 0.0, 0.5 * STEP),
    (0.3, 0.0, 1.0), (0.3, 0.0, 0.0),
], ids=["x0", "x0_low", "3h_from_wire", "3h_from_wire_in_plane",
        "half_h_from_top", "half_h_from_bottom", "top_plate",
        "bottom_plate"])
def test_plate_wire_e(y):
    z0, lam, gap = 0.4, 1e-9, 1.0
    res = electro.plate_wire_potential(z0, lam, gap, Point3(*y), VACUUM,
                                       want_e=True)
    assert_no_gauge(res)
    assert res.e.y == 0.0        # the wire runs along y
    with mpmath.workdps(60):
        phi = mp_plate_wire(mpmath.mpf(z0), mpmath.mpf(lam),
                            mpmath.mpf(gap))
        if y[2] in (0.0, gap):
            # on a plate the closed form is 0: differentiate one-sided,
            # into the gap
            sign = 1 if y[2] == 0.0 else -1
            ez = -mpmath.diff(lambda z: phi([mpmath.mpf(y[0]), 0, z]),
                              mpmath.mpf(y[2]), direction=sign)
            e = [mpmath.mpf(0), mpmath.mpf(0), ez]
        else:
            # phi depends on |x|: at x = 0 the central difference gives
            # its derivative, 0, by symmetry
            e = [-g for g in mp_gradient(phi, y)]
        assert_close(res.e.as_tuple(), e,
                     mpmath.sqrt(sum(x * x for x in e)), y)
