"""The vector-valued adaptive driver of the numerical core.

helix_integrals and solenoid_integrals refine all their components in
one pass on shared nodes.  Here that pass is held against one scalar
pass per component (the route the core took before), against tight
references, and at the driver's edges: panel exhaustion and a NaN in
one component.
"""

import math

import pytest

from emsingular._core import _ref

TOL = (1e-12, 1e-9, 2000)   # abs_tol, rel_tol, max_sub as QuadConfig
# references: scalar passes at 1e-14 relative, or at their rounding
# floor: within 1e-3 of a wire the estimates stall near 3e-13
REF_TOL = (1e-16, 1e-14, 4000)

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
    c0 = r * r + HELIX_A ** 2 + z * z
    two_ar = 2.0 * HELIX_A * r

    def rad(s):
        u = HELIX_P * s - phi
        return math.sqrt(c0 + HELIX_PITCH * s * (HELIX_PITCH * s - 2.0 * z)
                         - two_ar * math.cos(u))

    return (lambda s: math.sin(HELIX_P * s - phi) / rad(s),
            lambda s: math.cos(HELIX_P * s - phi) / rad(s),
            lambda s: 1.0 / rad(s))


def _sheet_integrands(r, z):
    c0 = r * r + SHEET_A ** 2
    two_ar = 2.0 * SHEET_A * r

    def F(u):
        root = math.sqrt(c0 - two_ar * math.cos(u))
        return math.asinh(z / root) - math.asinh((z - SHEET_L) / root)

    return (lambda u: F(u) * math.cos(u), F)


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


@pytest.mark.parametrize("name", sorted(HELIX_POINTS))
def test_helix_one_pass_agrees_with_three_scalar_passes(name):
    r, phi, z = HELIX_POINTS[name]
    values, errors, _, ok = _helix_pass(r, phi, z)
    assert ok == 1
    for v, e, (sv, se, _, sok) in zip(values, errors,
                                      _helix_scalar(r, phi, z)):
        assert sok == 1
        assert abs(v - sv) <= e + se, name
    # helix_integrals is that pass: the values, their summed error and
    # the node count at [-2]
    got = _ref.helix_integrals(r, phi, z, HELIX_A, HELIX_PITCH, HELIX_P,
                               HELIX_S0, HELIX_S0 + HELIX_LENGTH, *TOL)
    assert got == (*values, sum(errors), _helix_pass(r, phi, z)[2], 1)


@pytest.mark.parametrize("name", sorted(SHEET_POINTS))
def test_solenoid_one_pass_agrees_with_two_scalar_passes(name):
    r, z = SHEET_POINTS[name]
    values, errors, n, ok = _sheet_pass(r, z)
    assert ok == 1
    for v, e, (sv, se, _, sok) in zip(values, errors, _sheet_scalar(r, z)):
        assert sok == 1
        assert abs(v - sv) <= e + se, name
    got = _ref.solenoid_integrals(r, z, SHEET_A, SHEET_L, *TOL)
    assert got == (0.0, 2.0 * values[0], 2.0 * values[1],
                   2.0 * (errors[0] + errors[1]), n, 1)


@pytest.mark.parametrize("name", sorted(HELIX_POINTS))
def test_helix_component_errors_are_honest(name):
    r, phi, z = HELIX_POINTS[name]
    values, errors, _, _ = _helix_pass(r, phi, z)
    for v, e, (ref, ref_err, _, _) in zip(values, errors,
                                          _helix_scalar(r, phi, z, REF_TOL)):
        assert ref_err <= 1e-12 * abs(ref) + 1e-16
        assert abs(v - ref) <= e + ref_err, name


@pytest.mark.parametrize("name", sorted(SHEET_POINTS))
def test_solenoid_component_errors_are_honest(name):
    r, z = SHEET_POINTS[name]
    values, errors, _, _ = _sheet_pass(r, z)
    for v, e, (ref, ref_err, _, _) in zip(values, errors,
                                          _sheet_scalar(r, z, REF_TOL)):
        assert ref_err <= 1e-12 * abs(ref) + 1e-16
        assert abs(v - ref) <= e + ref_err, name


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


def test_one_pass_needs_half_the_nodes_of_three():
    # the magneto_bmap helix at field points 4 cm to 3 m from the wire
    one = three = 0
    for d in (0.04, 0.1, 0.3, 1.0, 3.0):
        r, phi, z = _near_wire(d)
        one += _helix_pass(r, phi, z)[2]
        three += sum(n for _, _, n, _ in _helix_scalar(r, phi, z))
    assert three >= 2 * one
