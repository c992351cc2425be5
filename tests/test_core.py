"""The chart quadratures of the numerical core against mpmath.

loop_phi_integral, helix_integrals and solenoid_integrals integrate all
their components, the potential's and the Biot-Savart field's, on shared
Gauss-Legendre panels graded by the zeros of the source's squared
distance, and bound each component's error a priori.  Here every
component is held against a 30-digit reference at four field points per
source: 1e-3 m from the wire or sheet, 4 cm from it, on the axis and at
100 times the radius.  The reported error must be at least the true
error, and within 100 times it wherever the true error is above 1e-14
of the integral of the integrand's modulus (on the axis some components
vanish by symmetry, so the value itself is no scale there).  The helix
and sheet components are also held against one scalar pass each of the
Gauss-Kronrod route that quad.integrate_adaptive runs on.
"""

import math

import mpmath as mp
import pytest
from mpmath.calculus.quadrature import GaussLegendre

from emsingular._core import _chart, _ref
from emsingular._core._gl import N as GAUSS_N

TOL = (1e-12, 1e-9, 2000)   # abs_tol, rel_tol, max_sub as QuadConfig
DPS = 30
TIGHT = 1e-14               # true errors below this share are not graded
SLACK = 100.0               # a graded error is within this factor

# the helix of the magneto_bmap benchmark scenes: 20 m of wire of
# radius 0.6 at pitch 0.08, from s0 = -10 m
HELIX_A, HELIX_PITCH, HELIX_LENGTH = 0.6, 0.08, 20.0
HELIX_P = math.sqrt(1.0 - HELIX_PITCH ** 2) / HELIX_A
HELIX_S0 = -0.5 * HELIX_LENGTH
HELIX_S1 = HELIX_S0 + HELIX_LENGTH
NEAR_S = 0.3


def _near_wire(d):
    # cylindrical (r, phi, z) at distance d outward of the wire point
    # s = NEAR_S; the wire runs along phi there, so d is the distance
    return (HELIX_A + d, HELIX_P * NEAR_S, HELIX_PITCH * NEAR_S)


# (field point, the chart points the reference grades toward and the
# distance there)
HELIX_POINTS = {
    "1e-3 from wire": (_near_wire(1e-3), [(NEAR_S, 1e-3)]),
    "4 cm from wire": (_near_wire(0.04), [(NEAR_S, 0.04)]),
    "on axis": ((0.0, 0.0, 0.3), []),
    "100x radius": ((100.0 * HELIX_A, 0.5, 1.0), []),
}

# a loop of radius 1.2: (r, z) of each field point; the nearest wire
# point is at psi = 0
LOOP_A = 1.2
LOOP_POINTS = {
    "1e-3 from wire": ((LOOP_A + 6e-4, 8e-4), [(0.0, 1e-3 / LOOP_A)]),
    "4 cm from wire": ((LOOP_A - 0.04, 0.0), [(0.0, 0.04 / LOOP_A)]),
    "on axis": ((0.0, 0.3), []),
    "100x radius": ((100.0 * LOOP_A, 5.0), []),
}

# a cylinder sheet of radius 1.5 and length 1: (r, z) of each point
SHEET_A, SHEET_L = 1.5, 1.0
SHEET_POINTS = {
    "1e-3 from sheet": ((SHEET_A + 1e-3, 0.4), [(0.0, 1e-3 / SHEET_A)]),
    "4 cm from sheet": ((SHEET_A - 0.04, 0.7), [(0.0, 0.04 / SHEET_A)]),
    "on axis": ((0.0, 0.3), []),
    "100x radius": ((100.0 * SHEET_A, 0.5), []),
}


# ---------------------------------------------------------------------------
# the 30-digit reference


def _reference_edges(s0, s1, step, nearest):
    """Panel edges for the reference rule: no panel longer than step,
    and around each (s, d) of `nearest` panels of d / 4 out to d, then
    growing by 1.5 a panel, so the complex zeros near s + i d stay
    several half-lengths from every panel."""
    points = {s0, s1}
    n = math.ceil((s1 - s0) / step)
    points.update(s0 + (s1 - s0) * k / n for k in range(1, n))
    for s, d in nearest:
        offsets = [d * k / 4.0 for k in range(1, 5)]
        while offsets[-1] < step:
            offsets.append(1.5 * offsets[-1])
        points.update(s + sign * o for o in [0.0] + offsets
                      for sign in (-1.0, 1.0))
    return sorted(p for p in points if s0 <= p <= s1)


def _reference(integrand, edges):
    """(values, moduli): the 24-point Gauss-Legendre rule of mpmath at
    DPS digits on each panel, for every component and for its modulus."""
    with mp.workdps(DPS):
        rule = GaussLegendre(mp.mp).calc_nodes(4, mp.mp.prec)
        values = moduli = None
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = (mp.mpf(lo) + mp.mpf(hi)) / 2
            half = (mp.mpf(hi) - mp.mpf(lo)) / 2
            for x, w in rule:
                f = integrand(mid + half * x)
                if values is None:
                    values = [mp.mpf(0)] * len(f)
                    moduli = [mp.mpf(0)] * len(f)
                for j, v in enumerate(f):
                    values[j] += w * half * v
                    moduli[j] += w * half * abs(v)
        return values, moduli


def _helix_integrand(r, phi, z):
    r, phi, z = mp.mpf(r), mp.mpf(phi), mp.mpf(z)
    a, p, big_p = mp.mpf(HELIX_A), mp.mpf(HELIX_PITCH), mp.mpf(HELIX_P)

    def f(s):
        u = big_p * s - phi
        cu, su = mp.cos(u), mp.sin(u)
        dz = z - p * s
        w = 1 / mp.sqrt(r * r + a * a - 2 * a * r * cu + dz * dz)
        w3 = w ** 3
        return (su * w, cu * w, w, (a * big_p * cu * dz + a * p * su) * w3,
                (p * (r - a * cu) + a * big_p * su * dz) * w3,
                a * big_p * (a - r * cu) * w3)
    return f


def _loop_integrand(r, z):
    r, z, a = mp.mpf(r), mp.mpf(z), mp.mpf(LOOP_A)

    def f(psi):
        cu = mp.cos(psi)
        w = 1 / mp.sqrt(r * r + a * a + z * z - 2 * a * r * cu)
        w3 = w ** 3
        return cu * w, z * cu * w3, (a - r * cu) * w3
    return f


def _sheet_integrand(r, z):
    r, z, a, length = (mp.mpf(r), mp.mpf(z), mp.mpf(SHEET_A),
                       mp.mpf(SHEET_L))
    z1 = z - length

    def f(u):
        cu = mp.cos(u)
        c1 = r * r + a * a - 2 * a * r * cu
        big_a, big_b = mp.sqrt(c1 + z * z), mp.sqrt(c1 + z1 * z1)
        big_f = mp.asinh(z / mp.sqrt(c1)) - mp.asinh(z1 / mp.sqrt(c1))
        big_g = (z / big_a - z1 / big_b) / c1
        big_h = 1 / big_b - 1 / big_a
        return (big_f * cu, big_f, big_h * cu, (r - a * cu) * big_g,
                (a - r * cu) * big_g)
    return f


# ---------------------------------------------------------------------------
# the program's components


def _components(monkeypatch, call):
    """Run a public chart quadrature and return it with what its one
    _gauss_panels pass returned: each component's value and bound."""
    seen = []

    def spy(*args):
        out = driver(*args)
        seen.append(out)
        return out

    driver = _chart._gauss_panels
    monkeypatch.setattr(_chart, "_gauss_panels", spy)
    result = call()
    assert len(seen) == 1
    return result, seen[0]


def _helix(monkeypatch, r, phi, z, tol=TOL, want_b=True):
    return _components(monkeypatch, lambda: _chart.helix_integrals(
        r, phi, z, HELIX_A, HELIX_PITCH, HELIX_P, HELIX_S0, HELIX_S1, *tol,
        want_b=want_b))


def _loop(monkeypatch, r, z, want_b=True):
    return _components(monkeypatch, lambda: _chart.loop_phi_integral(
        r, z, LOOP_A, *TOL, want_b=want_b))


def _sheet(monkeypatch, r, z, want_b=True):
    return _components(monkeypatch, lambda: _chart.solenoid_integrals(
        r, z, SHEET_A, SHEET_L, *TOL, want_b=want_b))


def _assert_honest(values, errors, reference, name):
    refs, moduli = reference
    for k, (v, e, ref, mod) in enumerate(zip(values, errors, refs, moduli)):
        true = float(abs(mp.mpf(v) - ref))
        assert true <= e, (name, k, true, e)
        if true > TIGHT * float(mod):
            assert e <= SLACK * true, (name, k, true, e)


@pytest.mark.parametrize("name", sorted(HELIX_POINTS))
def test_helix_component_errors_are_honest(monkeypatch, name):
    (r, phi, z), nearest = HELIX_POINTS[name]
    result, (values, errors, n, ok) = _helix(monkeypatch, r, phi, z)
    assert ok == 1
    # helix_integrals returns the pass: the values, the summed errors of
    # a and of b, and the node count at [-2]
    assert result == (*values, sum(errors[:3]), sum(errors[3:]), n, 1)
    edges = _reference_edges(HELIX_S0, HELIX_S1, math.pi / (8.0 * HELIX_P),
                             nearest)
    _assert_honest(values, errors,
                   _reference(_helix_integrand(r, phi, z), edges), name)


@pytest.mark.parametrize("name", sorted(LOOP_POINTS))
def test_loop_component_errors_are_honest(monkeypatch, name):
    # the pass integrates [0, pi]; loop_phi_integral doubles it
    (r, z), nearest = LOOP_POINTS[name]
    result, (values, errors, n, ok) = _loop(monkeypatch, r, z)
    assert ok == 1
    assert result == (2.0 * values[0], 2.0 * values[1], 2.0 * values[2],
                      2.0 * errors[0], 2.0 * (errors[1] + errors[2]), n, 1)
    edges = _reference_edges(0.0, math.pi, math.pi / 16.0, nearest)
    _assert_honest(values, errors,
                   _reference(_loop_integrand(r, z), edges), name)


@pytest.mark.parametrize("name", sorted(SHEET_POINTS))
def test_solenoid_component_errors_are_honest(monkeypatch, name):
    (r, z), nearest = SHEET_POINTS[name]
    result, (values, errors, n, ok) = _sheet(monkeypatch, r, z)
    assert ok == 1
    assert result == (*(2.0 * v for v in values), 2.0 * sum(errors[:2]),
                      2.0 * sum(errors[2:]), n, 1)
    edges = _reference_edges(0.0, math.pi, math.pi / 16.0, nearest)
    _assert_honest(values, errors,
                   _reference(_sheet_integrand(r, z), edges), name)


# ---------------------------------------------------------------------------
# against the Gauss-Kronrod route, one scalar pass per component


def _helix_floats(r, phi, z):
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


def _sheet_floats(r, z):
    """F cos u and F, then H cos u, (r - a cos u) G and (a - r cos u) G,
    with G and H written from the antiderivatives of the axial
    integrals of 1/R^3 and (z - z')/R^3; the test points lie between
    the sheet's ends, where neither cancels."""
    def c1(u):
        # the squared chord to the sheet's line at azimuth u
        return (r - SHEET_A * math.cos(u)) ** 2 + (SHEET_A * math.sin(u)) ** 2

    def big_f(u):
        root = math.sqrt(c1(u))
        return math.asinh(z / root) - math.asinh((z - SHEET_L) / root)

    def big_g(u):
        ends = [t / math.sqrt(c1(u) + t * t) for t in (z, z - SHEET_L)]
        return (ends[0] - ends[1]) / c1(u)

    def big_h(u):
        return (1.0 / math.sqrt(c1(u) + (z - SHEET_L) ** 2)
                - 1.0 / math.sqrt(c1(u) + z * z))

    return (lambda u: big_f(u) * math.cos(u), big_f,
            lambda u: big_h(u) * math.cos(u),
            lambda u: (r - SHEET_A * math.cos(u)) * big_g(u),
            lambda u: (SHEET_A - r * math.cos(u)) * big_g(u))


def _agree(values, errors, scalar, name):
    # the Gauss-Kronrod estimates do not see rounding; where a component
    # is 0 by symmetry (the odd ones on the axis), each route's rounding
    # noise, a few ulps of the largest component it integrates with, is
    # all it has
    noise = 8 * 2.0 ** -52 * max(abs(v) for v in values)
    for v, e, (sv, se, _, sok) in zip(values, errors, scalar):
        assert sok == 1
        assert abs(v - sv) <= e + se + noise, name


def _helix_scalar(r, phi, z, parts):
    return [_ref._adaptive(f, HELIX_S0, HELIX_S1, *TOL)
            for f in _helix_floats(r, phi, z)[parts]]


def _sheet_scalar(r, z, parts):
    return [_ref._adaptive(f, 0.0, math.pi, 0.5 * TOL[0], *TOL[1:])
            for f in _sheet_floats(r, z)[parts]]


@pytest.mark.parametrize("name", sorted(HELIX_POINTS))
def test_helix_one_pass_agrees_with_three_scalar_passes(monkeypatch, name):
    # the potential's three components
    (r, phi, z), _ = HELIX_POINTS[name]
    _, (values, errors, _, ok) = _helix(monkeypatch, r, phi, z)
    assert ok == 1
    _agree(values[:3], errors[:3], _helix_scalar(r, phi, z, slice(0, 3)),
           name)


@pytest.mark.parametrize("name", sorted(HELIX_POINTS))
def test_helix_field_agrees_with_three_scalar_passes(monkeypatch, name):
    # the Biot-Savart field's three components, on the same nodes
    (r, phi, z), _ = HELIX_POINTS[name]
    _, (values, errors, _, ok) = _helix(monkeypatch, r, phi, z)
    assert ok == 1
    _agree(values[3:], errors[3:], _helix_scalar(r, phi, z, slice(3, 6)),
           name)


@pytest.mark.parametrize("name", sorted(SHEET_POINTS))
def test_solenoid_one_pass_agrees_with_two_scalar_passes(monkeypatch, name):
    (r, z), _ = SHEET_POINTS[name]
    _, (values, errors, _, ok) = _sheet(monkeypatch, r, z)
    assert ok == 1
    _agree(values[:2], errors[:2], _sheet_scalar(r, z, slice(0, 2)), name)


@pytest.mark.parametrize("name", sorted(SHEET_POINTS))
def test_solenoid_field_agrees_with_three_scalar_passes(monkeypatch, name):
    (r, z), _ = SHEET_POINTS[name]
    _, (values, errors, _, ok) = _sheet(monkeypatch, r, z)
    assert ok == 1
    _agree(values[2:], errors[2:], _sheet_scalar(r, z, slice(2, 5)), name)


# ---------------------------------------------------------------------------
# the driver's edges


def test_exhausted_panels_are_flagged_unconverged(monkeypatch):
    (r, phi, z), _ = HELIX_POINTS["1e-3 from wire"]
    result, (values, errors, n, ok) = _helix(monkeypatch, r, phi, z,
                                             (1e-12, 1e-9, 8))
    assert ok == 0 and result[-1] == 0
    assert n == GAUSS_N * 8          # 8 panels, none bisected
    assert all(math.isfinite(v) for v in values)
    assert max(e / abs(v) for v, e in zip(values, errors)) > 1e-9


def test_potential_alone_skips_the_field(monkeypatch):
    # without want_b the pass integrates the three potential components
    # on fewer nodes, and they agree within their bounds
    (r, phi, z), _ = HELIX_POINTS["4 cm from wire"]
    both, (values, errors, n_both, _) = _helix(monkeypatch, r, phi, z)
    alone, (a_values, a_errors, n_alone, ok) = _helix(
        monkeypatch, r, phi, z, want_b=False)
    assert ok == 1 and n_alone < n_both
    assert alone[3:6] == (None, None, None) and alone[7] is None
    for v, e, w, f in zip(values[:3], errors[:3], a_values, a_errors):
        assert abs(v - w) <= e + f


def test_chart_start_is_accurate_to_its_own_size():
    # the helix places its nodes from u = P s - phi, less whole turns,
    # and dz = z - p s at each panel's start, formed with exact products:
    # each within 2 ulps of its own size, however large P s is
    with mp.workdps(40):
        assert mp.mpf(_chart._TWO_PI_LO) == mp.mpf(
            float(2 * mp.pi - mp.mpf(2 * math.pi)))
        for s in (-9.7, -0.3, 1e-9, 0.3, 7.123456789, 15.689471560592722):
            phi, z = HELIX_P * NEAR_S, HELIX_PITCH * NEAR_S
            u, dz = _chart._chart_start(s, HELIX_P, phi, z, HELIX_PITCH)
            exact = mp.mpf(HELIX_P) * s - mp.mpf(phi)
            turns = mp.nint(exact / (2 * mp.pi))
            assert abs(mp.mpf(u) - (exact - 2 * mp.pi * turns)) <= (
                2 * math.ulp(u)), s
            exact_dz = mp.mpf(z) - mp.mpf(HELIX_PITCH) * s
            assert abs(mp.mpf(dz) - exact_dz) <= 2 * math.ulp(dz), s


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
    # the Gauss-Kronrod route of quad.integrate_adaptive: 0.5 is the
    # middle node of [0, 1] only; bisecting that panel first, as the NaN
    # rule does, leaves no node on it
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
