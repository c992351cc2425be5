"""The vector-valued adaptive driver of the numerical core.

helix_integrals and solenoid_integrals refine all their components, the
potential's and the Biot-Savart field's, in one pass on shared nodes.
Here that pass is held against one scalar pass per component, against
tight references, and at the driver's edges: panel exhaustion and a
NaN in one component.
"""

import math

import pytest

from emsingular._core import _ref

TOL = (1e-12, 1e-9, 2000)   # abs_tol, rel_tol, max_sub as QuadConfig
# references: scalar passes at 1e-14 relative, or at their rounding
# floor: within 1e-3 of a wire the estimates stall near 3e-13 for the
# potential, and near 3e-11 for the field, whose 1/R^3 peak is sharper
REF_TOL = (1e-16, 1e-14, 4000)
REF_FLOOR_A, REF_FLOOR_B = 1e-12, 1e-10
# the |K15 - G7| estimates do not see rounding; where a component is 0
# by symmetry (the odd ones on the axis), each route's rounding noise,
# a few ulps of the largest component it integrates with, is all it has
NOISE = 8 * 2.0 ** -52

# the helix of the magneto_bmap benchmark scenes: 20 m of wire of
# radius 0.6 at pitch 0.08, from s0 = -10 m
HELIX_A, HELIX_PITCH, HELIX_LENGTH = 0.6, 0.08, 20.0
HELIX_P = math.sqrt(1.0 - HELIX_PITCH ** 2) / HELIX_A
HELIX_S0 = -0.5 * HELIX_LENGTH


def _near_wire(d):
    # cylindrical (r, phi, z) at distance d outward of the wire point
    # s = 0.3; the wire runs along phi there, so d is the distance
    s = 0.3
    return (HELIX_A + d, HELIX_P * s, HELIX_PITCH * s)


HELIX_POINTS = {
    "1e-3 from wire": _near_wire(1e-3),
    "4 cm from wire": _near_wire(0.04),
    "on axis": (0.0, 0.0, 0.3),
    "100x radius": (100.0 * HELIX_A, 0.5, 1.0),
}

# cylinder sheet of radius 1.5 and length 1: (r, z) of each field point
SHEET_A, SHEET_L = 1.5, 1.0
SHEET_POINTS = {
    "1e-3 from sheet": (SHEET_A + 1e-3, 0.4),
    "4 cm from sheet": (SHEET_A - 0.04, 0.7),
    "on axis": (0.0, 0.3),
    "100x radius": (100.0 * SHEET_A, 0.5),
}


def _helix_integrands(r, phi, z):
    """sin(u)/R, cos(u)/R, 1/R, then the components of t x (y - x) / R^3
    in the field point's frame, from the wire point and its tangent."""
    def sep(s):
        u = HELIX_P * s - phi
        # y - x(s) with y = (r, 0, z), and the unit tangent at s
        d = (r - HELIX_A * math.cos(u), -HELIX_A * math.sin(u),
             z - HELIX_PITCH * s)
        t = (-HELIX_A * HELIX_P * math.sin(u), HELIX_A * HELIX_P * math.cos(u),
             HELIX_PITCH)
        return u, d, t, math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)

    def cross(k):
        i, j = (k + 1) % 3, (k + 2) % 3

        def f(s):
            _, d, t, rad = sep(s)
            return (t[i] * d[j] - t[j] * d[i]) / rad ** 3
        return f

    return (lambda s: math.sin(sep(s)[0]) / sep(s)[3],
            lambda s: math.cos(sep(s)[0]) / sep(s)[3],
            lambda s: 1.0 / sep(s)[3], cross(0), cross(1), cross(2))


def _sheet_integrands(r, z):
    """F cos u and F, then H cos u, (r - a cos u) G and (a - r cos u) G,
    with G and H written from the antiderivatives of the axial
    integrals of 1/R^3 and (z - z')/R^3; the test points lie between
    the sheet's ends, where neither cancels."""
    def c1(u):
        # the squared chord to the sheet's line at azimuth u
        return (r - SHEET_A * math.cos(u)) ** 2 + (SHEET_A * math.sin(u)) ** 2

    def F(u):
        root = math.sqrt(c1(u))
        return math.asinh(z / root) - math.asinh((z - SHEET_L) / root)

    def G(u):
        ends = [zz / math.sqrt(c1(u) + zz * zz) for zz in (z, z - SHEET_L)]
        return (ends[0] - ends[1]) / c1(u)

    def H(u):
        return (1.0 / math.sqrt(c1(u) + (z - SHEET_L) ** 2)
                - 1.0 / math.sqrt(c1(u) + z * z))

    return (lambda u: F(u) * math.cos(u), F,
            lambda u: H(u) * math.cos(u),
            lambda u: (r - SHEET_A * math.cos(u)) * G(u),
            lambda u: (SHEET_A - r * math.cos(u)) * G(u))


def _helix_pass(r, phi, z, tol=TOL):
    """(values, errors, evaluations, converged) of the one vector pass."""
    panel = _ref._helix_panel(r, phi, z, HELIX_A, HELIX_PITCH, HELIX_P)
    return _ref._adaptive_panels(panel, HELIX_S0, HELIX_S0 + HELIX_LENGTH,
                                 *tol)


def _helix_scalar(r, phi, z, tol=TOL):
    """One scalar pass per component, as helix_integrals ran before."""
    return [_ref._adaptive(f, HELIX_S0, HELIX_S0 + HELIX_LENGTH, *tol)
            for f in _helix_integrands(r, phi, z)]


def _sheet_pass(r, z, tol=TOL):
    panel = _ref._solenoid_panel(r, z, SHEET_A, SHEET_L)
    return _ref._adaptive_panels(panel, 0.0, math.pi, 0.5 * tol[0],
                                 *tol[1:])


def _sheet_scalar(r, z, tol=TOL):
    return [_ref._adaptive(f, 0.0, math.pi, 0.5 * tol[0], *tol[1:])
            for f in _sheet_integrands(r, z)]


def _agree(values, errors, scalar, name):
    noise = NOISE * max(abs(v) for v in values)
    for v, e, (sv, se, _, sok) in zip(values, errors, scalar):
        assert sok == 1
        assert abs(v - sv) <= e + se + noise, name


@pytest.mark.parametrize("name", sorted(HELIX_POINTS))
def test_helix_one_pass_agrees_with_three_scalar_passes(name):
    # the potential's three components
    r, phi, z = HELIX_POINTS[name]
    values, errors, n, ok = _helix_pass(r, phi, z)
    assert ok == 1
    _agree(values[:3], errors[:3], _helix_scalar(r, phi, z)[:3], name)
    # helix_integrals is that pass: the values, the summed errors of a
    # and of b, and the node count at [-2]
    got = _ref.helix_integrals(r, phi, z, HELIX_A, HELIX_PITCH, HELIX_P,
                               HELIX_S0, HELIX_S0 + HELIX_LENGTH, *TOL)
    assert got == (*values, sum(errors[:3]), sum(errors[3:]), n, 1)


@pytest.mark.parametrize("name", sorted(HELIX_POINTS))
def test_helix_field_agrees_with_three_scalar_passes(name):
    # the Biot-Savart field's three components, on the same nodes
    r, phi, z = HELIX_POINTS[name]
    values, errors, _, ok = _helix_pass(r, phi, z)
    assert ok == 1
    _agree(values[3:], errors[3:], _helix_scalar(r, phi, z)[3:], name)


@pytest.mark.parametrize("name", sorted(SHEET_POINTS))
def test_solenoid_one_pass_agrees_with_two_scalar_passes(name):
    # the potential's two components
    r, z = SHEET_POINTS[name]
    values, errors, n, ok = _sheet_pass(r, z)
    assert ok == 1
    _agree(values[:2], errors[:2], _sheet_scalar(r, z)[:2], name)
    got = _ref.solenoid_integrals(r, z, SHEET_A, SHEET_L, *TOL)
    assert got == (*(2.0 * v for v in values), 2.0 * sum(errors[:2]),
                   2.0 * sum(errors[2:]), n, 1)


@pytest.mark.parametrize("name", sorted(SHEET_POINTS))
def test_solenoid_field_agrees_with_three_scalar_passes(name):
    r, z = SHEET_POINTS[name]
    values, errors, _, ok = _sheet_pass(r, z)
    assert ok == 1
    _agree(values[2:], errors[2:], _sheet_scalar(r, z)[2:], name)


@pytest.mark.parametrize("name", sorted(HELIX_POINTS))
def test_helix_component_errors_are_honest(name):
    r, phi, z = HELIX_POINTS[name]
    values, errors, _, _ = _helix_pass(r, phi, z)
    refs = _helix_scalar(r, phi, z, REF_TOL)
    for k, (v, e, (ref, ref_err, _, _)) in enumerate(zip(values, errors,
                                                         refs)):
        floor = REF_FLOOR_A if k < 3 else REF_FLOOR_B
        part = values[:3] if k < 3 else values[3:]
        assert ref_err <= floor * abs(ref) + 1e-16
        assert abs(v - ref) <= e + ref_err + NOISE * max(map(abs, part)), (
            name, k)


@pytest.mark.parametrize("name", sorted(SHEET_POINTS))
def test_solenoid_component_errors_are_honest(name):
    r, z = SHEET_POINTS[name]
    values, errors, _, _ = _sheet_pass(r, z)
    refs = _sheet_scalar(r, z, REF_TOL)
    for k, (v, e, (ref, ref_err, _, _)) in enumerate(zip(values, errors,
                                                         refs)):
        floor = REF_FLOOR_A if k < 2 else REF_FLOOR_B
        part = values[:2] if k < 2 else values[2:]
        assert ref_err <= floor * abs(ref) + 1e-16
        assert abs(v - ref) <= e + ref_err + NOISE * max(map(abs, part)), (
            name, k)


def test_exhausted_panels_are_flagged_unconverged():
    r, phi, z = HELIX_POINTS["1e-3 from wire"]
    values, errors, n, ok = _helix_pass(r, phi, z, (1e-12, 1e-9, 8))
    assert ok == 0
    assert n == 15 * (2 * 8 - 1)     # 8 panels, each of 15 nodes
    assert all(math.isfinite(v) for v in values)
    assert max(e / abs(v) for v, e in zip(values, errors)) > 1e-9


def _two_components(f, g):
    def panel(lo, hi):
        (vf, ef), (vg, eg) = _ref._panel(f, lo, hi), _ref._panel(g, lo, hi)
        return (vf, vg), (ef, eg)

    return panel


def _spike(at):
    # inf at one node gives that panel a NaN error estimate
    return lambda x: math.inf if x == at else math.sin(40.0 * x)


SMOOTH_INTEGRAL = 1.0 - math.cos(1.0)      # of sin(x) on [0, 1]


def test_nan_in_one_component_of_first_panel_is_refined_away():
    # 0.5 is the middle node of [0, 1] only; bisecting that panel first,
    # as the NaN rule does, leaves no node on it
    values, errors, _, ok = _ref._adaptive_panels(
        _two_components(_spike(0.5), math.sin), 0.0, 1.0, 1e-14, 1e-12,
        2000)
    assert ok == 1
    exact = (1.0 - math.cos(40.0)) / 40.0
    assert abs(values[0] - exact) <= errors[0] + 1e-15
    assert abs(values[1] - SMOOTH_INTEGRAL) <= errors[1] + 1e-15


def test_nan_in_one_component_of_later_panel_is_passed_over():
    # 0.75 is the middle node of [0.5, 1]: that panel's NaN error ranks
    # it last, so it is never bisected and the pass cannot converge
    values, errors, n, ok = _ref._adaptive_panels(
        _two_components(_spike(0.75), math.sin), 0.0, 1.0, 1e-14, 1e-12,
        300)
    assert ok == 0
    assert n == 15 * (2 * 300 - 1)
    assert not math.isfinite(values[0]) and math.isnan(errors[0])
    # the other component is unharmed
    assert abs(values[1] - SMOOTH_INTEGRAL) <= errors[1] <= 1e-12


def _potential_view(panel):
    """The helix panel's first three components: the potential's."""
    def potential(lo, hi):
        values, errors = panel(lo, hi)
        return values[:3], errors[:3]
    return potential


def _potential_nodes(r, phi, z):
    panel = _ref._helix_panel(r, phi, z, HELIX_A, HELIX_PITCH, HELIX_P)
    return _ref._adaptive_panels(_potential_view(panel), HELIX_S0,
                                 HELIX_S0 + HELIX_LENGTH, *TOL)[2]


def test_one_pass_needs_half_the_nodes_of_three():
    # the magneto_bmap helix at field points 4 cm to 3 m from the wire:
    # the potential's three components in one pass on the helix panel,
    # against three scalar passes
    one = three = 0
    for d in (0.04, 0.1, 0.3, 1.0, 3.0):
        r, phi, z = _near_wire(d)
        one += _potential_nodes(r, phi, z)
        three += sum(n for _, _, n, _ in _helix_scalar(r, phi, z)[:3])
    assert three >= 2 * one


def test_field_pass_needs_a_fifth_of_the_nodes_of_seven():
    # b was once the curl of a over 7 stencil points (the row point and
    # +-h on each Cartesian axis, h = 1e-3 max(1, |y|)), a pass over the
    # potential's components at each; one pass now gives a and b
    one = seven = 0
    for d in (0.04, 0.1, 0.3, 1.0, 3.0):
        r, phi, z = _near_wire(d)
        one += _helix_pass(r, phi, z)[2]
        y = (r * math.cos(phi), r * math.sin(phi), z)
        h = 1e-3 * max(1.0, math.hypot(r, z))
        stencil = [y] + [tuple(c + s * h * (i == k) for i, c in enumerate(y))
                         for k in range(3) for s in (1.0, -1.0)]
        for x_, y_, z_ in stencil:
            seven += _potential_nodes(math.hypot(x_, y_),
                                      math.atan2(y_, x_), z_)
    assert seven >= 5 * one
