"""Quadrature engines: frozen oracles, determinism, honest errors."""

import math
from fractions import Fraction

import mpmath
import numpy
import pytest

from emsingular import selfcheck
from emsingular._core import _ref
from emsingular._core._gk import WG, WGK, XGK
from emsingular._core._gl import N, W, X
from emsingular.quad import (QuadConfig, QuadResult, integrate_adaptive,
                             sum_series)

CFG = QuadConfig(abs_tol=1e-12, rel_tol=1e-9)

def test_smooth_polynomial():
    r = integrate_adaptive(lambda x: x ** 3, 0.0, 1.0, CFG)
    assert r.converged
    assert r.value == pytest.approx(0.25, rel=1e-12)
    assert abs(r.value - 0.25) <= 3.0 * r.error_estimate + 1e-15


def test_residue_oracle():
    # contour-integral value: Int_0^{2pi} dpsi / (5 - 4 cos psi) = 2 pi / 3
    r = integrate_adaptive(lambda x: 1.0 / (5.0 - 4.0 * math.cos(x)),
                           0.0, 2.0 * math.pi, CFG)
    assert r.converged
    assert r.value == pytest.approx(2.0 * math.pi / 3.0, rel=1e-10)


def test_orientation_and_degenerate_interval():
    fwd = integrate_adaptive(math.exp, 0.0, 1.0, CFG)
    rev = integrate_adaptive(math.exp, 1.0, 0.0, CFG)
    assert rev.value == -fwd.value
    zero = integrate_adaptive(math.exp, 0.5, 0.5, CFG)
    assert zero.value == 0.0 and zero.evaluations == 0 and zero.converged


def test_determinism_bitwise():
    def f(x):
        return math.sin(3.0 * x) / (1.0 + x * x)

    r1 = integrate_adaptive(f, 0.0, 5.0, CFG)
    r2 = integrate_adaptive(f, 0.0, 5.0, CFG)
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate
    assert r1.evaluations == r2.evaluations


def test_unconverged_is_flagged_not_raised():
    tight = QuadConfig(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=8)
    r = integrate_adaptive(lambda x: math.sin(50.0 * x), 0.0, 1.0, tight)
    assert not r.converged
    assert math.isfinite(r.value)


def _rule_on_monomial(nodes, weights, centre_weight, k):
    """Sum a symmetric rule over x^k on [-1, 1] in the order _panel
    uses: the centre node first, then each pair of nodes."""
    total = centre_weight * 0.0 ** k
    for x, w in zip(nodes, weights):
        total += w * ((-x) ** k + x ** k)
    return total


def test_gauss_kronrod_table_integrates_polynomials_exactly():
    # K15 is exact for degree <= 22 and G7 for degree <= 13; with the
    # table's rounding only, each sum is within a few ulps of 2/(k+1).
    # A table cut to 15 digits misses by up to ~45 ulps (k = 0: 27).
    kronrod = (XGK[:7], WGK[:7], WGK[7], 22)
    gauss = (XGK[1:7:2], WG[:3], WG[3], 13)
    for nodes, weights, centre, degree in (kronrod, gauss):
        for k in range(degree + 1):
            exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
            got = _rule_on_monomial(nodes, weights, centre, k)
            ulp = math.ulp(float(exact)) if exact else 0.0
            assert abs(Fraction(got) - exact) <= 8 * Fraction(ulp), (degree, k)


def test_gauss_legendre_table_integrates_polynomials_exactly():
    # the n-point rule of the chart quadratures is exact for degree
    # <= 2n - 1; with the table's rounding only, each sum is within a
    # few ulps of 2/(k+1)
    for k in range(2 * N):
        exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
        got = _rule_on_monomial(X, W, 0.0, k)
        ulp = math.ulp(float(exact)) if exact else 0.0
        assert abs(Fraction(got) - exact) <= 8 * Fraction(ulp), k


def test_gauss_legendre_table_matches_numpy():
    # numpy's nodes agree to a few ulps; its weights, formed in floats,
    # are up to 63 ulps off the 50-digit values the table holds
    x, w = numpy.polynomial.legendre.leggauss(N)
    for mine, theirs in zip(X, -x[:N // 2]):
        assert abs(mine - theirs) <= 4 * math.ulp(mine)
    for mine, theirs in zip(W, w[:N // 2]):
        assert abs(mine - theirs) <= 128 * math.ulp(mine)


def _quadratic_driver(f, a, b, abs_tol, rel_tol, max_sub):
    """Oracle: the adaptive driver as a linear scan for the worst panel
    and a full fsum re-sum after every subdivision (O(n^2) in panels)."""
    value, err = _ref._panel(f, a, b)
    panels = [(a, b, value, err)]
    evals = 15
    while True:
        total = math.fsum(p[2] for p in panels)
        total_err = math.fsum(p[3] for p in panels)
        if total_err <= max(abs_tol, rel_tol * abs(total)):
            return total, max(total_err, 1e-15 * abs(total)), evals, 1
        if len(panels) >= max_sub:
            return total, max(total_err, 1e-15 * abs(total)), evals, 0
        worst = 0
        for i in range(1, len(panels)):
            if panels[i][3] > panels[worst][3]:
                worst = i
        lo, hi, _, _ = panels[worst]
        mid = 0.5 * (lo + hi)
        v1, e1 = _ref._panel(f, lo, mid)
        v2, e2 = _ref._panel(f, mid, hi)
        evals += 30
        panels[worst] = (lo, mid, v1, e1)
        panels.append((mid, hi, v2, e2))


def _spike(at):
    # inf at one node gives that panel a NaN error estimate
    return lambda x: math.inf if x == at else math.sin(40.0 * x)


# (integrand, a, b, abs_tol, rel_tol, max_sub): each needs hundreds of
# panels, or stops at max_sub, or carries NaN error estimates (in panel
# 0 first, then in a later panel that the worst-first choice passes over)
DRIVER_CASES = {
    "sin_inverse": (lambda x: math.sin(1.0 / (x + 1e-3)), 0.0, 1.0,
                    1e-14, 1e-12, 2000),
    "two_peaks": (lambda x: (1.0 / math.sqrt(abs(x - 0.3) + 1e-15)
                             + 1.0 / math.sqrt(abs(x - 0.61) + 1e-15)),
                  0.0, 1.0, 1e-14, 1e-12, 2000),
    "oscillating_at_max_sub": (lambda x: math.cos(300.0 * x)
                               * math.exp(-0.1 * x), 0.0, 20.0,
                               1e-12, 1e-9, 400),
    "relative_only": (lambda x: math.sin(1.0 / (x + 1e-3)), 0.0, 1.0,
                      0.0, 1e-14, 2000),
    "nan_in_panel_0": (_spike(0.5), 0.0, 1.0, 1e-14, 1e-12, 2000),
    "nan_later": (_spike(0.75), 0.0, 1.0, 1e-14, 1e-12, 300),
}


@pytest.mark.parametrize("case", sorted(DRIVER_CASES))
def test_driver_matches_quadratic_oracle_bit_for_bit(case):
    f, a, b, abs_tol, rel_tol, max_sub = DRIVER_CASES[case]
    want = _quadratic_driver(f, a, b, abs_tol, rel_tol, max_sub)
    assert want[2] >= 15 + 30 * 100 or case.startswith("nan")
    got = _ref._adaptive(f, a, b, abs_tol, rel_tol, max_sub)
    # repr tells floats apart bit for bit (NaN aside) and equates NaNs
    assert repr(got) == repr(want)
    cfg = QuadConfig(abs_tol=abs_tol, rel_tol=rel_tol,
                     max_subdivisions=max_sub)
    res = integrate_adaptive(f, a, b, cfg)
    assert repr(res) == repr(QuadResult(want[0], want[1], want[2],
                                        bool(want[3])))


# ---------------------------------------------------------------------------
# series


def test_series_geometric_complex_oracle():
    # sum_n Im(w^n), w = exp(-1 + i); frozen Im(w/(1-w))
    w_abs = math.exp(-1.0)

    def term(n):
        return w_abs ** n * math.sin(float(n))

    r = sum_series(term, CFG)
    assert r.converged
    assert r.value == pytest.approx(0.41956978951241564, rel=1e-9)


def test_series_zero_run_needs_longer_consecutive():
    # terms 2, 3, 4 are exactly zero: three-in-a-row stopping quits at
    # n = 4 and misses the tail; consecutive=4 rides over the gap
    def term(n):
        return 0.0 if n in (2, 3, 4) else 0.5 ** n

    exact = 1.0 - (0.25 + 0.125 + 0.0625)
    early = sum_series(term, CFG, consecutive=3)
    assert early.value == pytest.approx(0.5, abs=1e-15)
    full = sum_series(term, CFG, consecutive=4)
    assert full.value == pytest.approx(exact, rel=1e-9)
    assert abs(full.value - exact) <= 3.0 * full.error_estimate


def test_series_max_terms_flags_nonconvergence():
    r = sum_series(lambda n: 1.0 / n, CFG, max_terms=50)
    assert not r.converged


# ---------------------------------------------------------------------------
# honesty of reported errors on near-singular integrands: each singular
# integrand with its singularity moved 1e-6 or 1e-9 outside [0, 1]


HONESTY_CASES = {
    "x^-1/4": (lambda x: (x + 1e-9) ** -0.25,
               4.0 / 3.0 * ((1.0 + 1e-9) ** 0.75 - 1e-9 ** 0.75)),
    "weak power": (lambda x: (x + 1e-6) ** -0.9,
                   10.0 * ((1.0 + 1e-6) ** 0.1 - 1e-6 ** 0.1)),
    "circle arc": (lambda x: 1.0 / math.sqrt(((1.0 - x) + 1e-6)
                                             * ((1.0 + x) + 1e-6)),
                   math.atan(1.0 / math.sqrt(1e-6 * (2.0 + 1e-6)))),
    "log-periodic": (lambda x: math.cos(math.log(x + 1e-6)),
                     0.5 * ((1.0 + 1e-6) * (math.cos(math.log1p(1e-6))
                                            + math.sin(math.log1p(1e-6)))
                            - 1e-6 * (math.cos(math.log(1e-6))
                                      + math.sin(math.log(1e-6))))),
    "both ends": (lambda x: 1.0 / math.sqrt((x + 1e-9) * ((1.0 - x) + 1e-9)),
                  math.pi - 4.0 * math.asin(math.sqrt(1e-9 / (1.0 + 2e-9)))),
}


@pytest.mark.parametrize("name", sorted(HONESTY_CASES))
def test_singular_error_estimates_are_honest(name):
    f, exact = HONESTY_CASES[name]
    r = integrate_adaptive(f, 0.0, 1.0, CFG)
    true_err = abs(r.value - exact)
    floor = 1e-15 * max(1.0, abs(exact))
    assert true_err <= 3.0 * max(r.error_estimate, floor), \
        (name, true_err, r.error_estimate)
    assert r.converged, name


# ---------------------------------------------------------------------------
# the exact values of the selfcheck's honesty gate, recomputed with mpmath


def _near(a, b):
    """Breakpoints from a to b, refined geometrically toward a."""
    return [a] + [a + (b - a) * mpmath.mpf(10) ** -k
                  for k in range(12, 0, -1)] + [b]


def _mp_honesty_integrals():
    mp, e6, e9 = mpmath, mpmath.mpf("1e-6"), mpmath.mpf("1e-9")
    two_pi = [k * mp.pi / 2 for k in range(5)]
    return {
        "x^3 on [0,1]": (lambda x: x ** 3, [0, 1]),
        "sin on [0,pi]": (mp.sin, [0, mp.pi]),
        "exp on [0,1]": (mp.exp, [0, 1]),
        "poisson kernel": (lambda x: 1 / (5 - 4 * mp.cos(x)), two_pi),
        "1/sqrt(x+1e-9)": (lambda x: 1 / mp.sqrt(x + e9), _near(0, 1)),
        "ln(x+1e-9)": (lambda x: mp.log(x + e9), _near(0, 1)),
        "1/(1+x^2)": (lambda x: 1 / (1 + x * x), [0, 1]),
        "gaussian tail": (lambda x: mp.exp(-x * x), list(range(11))),
        "(x+1e-6)^-1/4": (lambda x: (x + e6) ** mp.mpf(-0.25),
                          _near(0, 1)),
        "cos^2(10x)": (lambda x: mp.cos(10 * x) ** 2,
                       [k * mp.pi / 20 for k in range(21)]),
        "sin(50x)": (lambda x: mp.sin(50 * x),
                     [mp.mpf(k) / 32 for k in range(33)]),
        "|x| kink": (abs, [-1, 0, 1]),
        "near-singular 1/(x+0.01)": (lambda x: 1 / (x + mp.mpf("0.01")),
                                     _near(0, 1)),
        "sqrt(x) kink": (mp.sqrt, [0, 1]),
        "1/sqrt((1+e-x)(1+e+x))": (
            lambda x: 1 / mp.sqrt((1 + e9 - x) * (1 + e9 + x)),
            [1 - p for p in reversed(_near(0, 1))]),
        "ln(sin(x+1e-9))": (lambda x: mp.log(mp.sin(x + e9)),
                            _near(0, mp.pi / 2)),
        "cos(ln(x+1e-9))": (lambda x: mp.cos(mp.log(x + e9)),
                            _near(0, 1)),
        "periodic 1/(2+sin)": (lambda x: 1 / (2 + mp.sin(x)), two_pi),
        "exp(cos)": (lambda x: mp.exp(mp.cos(x)), two_pi),
        "ln((2+x)/(1+x))": (lambda x: mp.log((2 + x) / (1 + x)), [0, 1]),
    }


def test_honesty_exact_values_agree_with_mpmath():
    # a mistyped closed form would make its case a liar (or, with a
    # large enough estimate, vacuous); each must match a 40-digit
    # quadrature of the integrand written out again in mpmath
    cases = selfcheck._honesty_cases()
    with mpmath.workdps(40):
        integrals = _mp_honesty_integrals()
        assert sorted(integrals) == sorted(c[0] for c in cases)
        for name, _f, _a, _b, exact in cases:
            f, points = integrals[name]
            want, err = mpmath.quad(f, points, error=True)
            assert err < 1e-30 * abs(want), name
            assert abs(exact - want) <= 1e-15 * abs(want), \
                (name, exact, want)
