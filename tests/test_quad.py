"""Quadrature engines: frozen oracles, determinism, honest errors."""

import math
from fractions import Fraction

import pytest

from emsingular._core import _ref
from emsingular._core._gk import WG, WGK, XGK
from emsingular.quad import (QuadConfig, QuadResult, integrate_2d,
                             integrate_adaptive, integrate_periodic,
                             sum_series)

CFG = QuadConfig(abs_tol=1e-12, rel_tol=1e-9)

# frozen independently: 2 pi I0(1)
TWO_PI_I0_1 = 7.954926521012845274513219665


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


def test_inverse_sqrt_singular_endpoint():
    r = integrate_adaptive(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, CFG,
                           singularities=(0.0,))
    assert r.converged
    assert r.value == pytest.approx(2.0, rel=1e-9)
    # honest: true error within 3x the reported estimate
    assert abs(r.value - 2.0) <= 3.0 * r.error_estimate


def test_log_singularity_dilogarithm_oracle():
    # Int_0^1 -ln(x)/(1-x) dx = pi^2/6; log singularity at 0 only
    r = integrate_adaptive(lambda x: -math.log(x) / (1.0 - x),
                           0.0, 1.0, CFG, singularities=(0.0, 1.0))
    assert r.value == pytest.approx(math.pi ** 2 / 6.0, rel=1e-8)


def test_interior_singularity_split():
    r = integrate_adaptive(lambda x: 1.0 / math.sqrt(abs(x)), -1.0, 1.0,
                           CFG, singularities=(0.0,))
    assert r.converged
    assert r.value == pytest.approx(4.0, rel=1e-9)


def test_orientation_and_degenerate_interval():
    fwd = integrate_adaptive(math.exp, 0.0, 1.0, CFG)
    rev = integrate_adaptive(math.exp, 1.0, 0.0, CFG)
    assert rev.value == -fwd.value
    zero = integrate_adaptive(math.exp, 0.5, 0.5, CFG)
    assert zero.value == 0.0 and zero.evaluations == 0 and zero.converged


def test_determinism_bitwise():
    def f(x):
        return math.sin(3.0 * x) / (1.0 + x * x)

    r1 = integrate_adaptive(f, 0.0, 5.0, CFG, singularities=(0.0,))
    r2 = integrate_adaptive(f, 0.0, 5.0, CFG, singularities=(0.0,))
    assert r1.value == r2.value
    assert r1.error_estimate == r2.error_estimate
    assert r1.evaluations == r2.evaluations


def test_unconverged_is_flagged_not_raised():
    tight = QuadConfig(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=8)
    r = integrate_adaptive(lambda x: math.sin(50.0 * x), 0.0, 1.0, tight)
    assert not r.converged
    assert math.isfinite(r.value)


def test_result_addition_combines_fields():
    a = QuadResult(1.0, 0.25, 10, True)
    b = QuadResult(2.0, 0.5, 20, False)
    c = a + b
    assert (c.value, c.error_estimate, c.evaluations, c.converged) == \
        (3.0, 0.75, 30, False)


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
# periodic rule


def test_periodic_rational_trig_oracle():
    r = integrate_periodic(lambda x: 1.0 / (2.0 + math.sin(x)),
                           2.0 * math.pi, 32, CFG)
    assert r.converged
    assert r.value == pytest.approx(2.0 * math.pi / math.sqrt(3.0),
                                    rel=1e-12)


def test_periodic_exp_cos_oracle():
    r = integrate_periodic(lambda x: math.exp(math.cos(x)),
                           2.0 * math.pi, 32, CFG)
    assert r.value == pytest.approx(TWO_PI_I0_1, rel=1e-12)
    assert abs(r.value - TWO_PI_I0_1) <= 3.0 * max(r.error_estimate, 1e-15)


def test_periodic_rejects_silly_n():
    with pytest.raises(ValueError):
        integrate_periodic(math.cos, 2.0 * math.pi, 1, CFG)


# ---------------------------------------------------------------------------
# 2d


def test_2d_separable_polynomial():
    r = integrate_2d(lambda u, v: u * v, ((0.0, 1.0), (0.0, 1.0)), CFG)
    assert r.converged
    assert r.value == pytest.approx(0.25, rel=1e-10)


def test_2d_mixed_trig():
    r = integrate_2d(lambda u, v: math.sin(u) * v * v,
                     ((0.0, math.pi), (0.0, 1.0)), CFG)
    assert r.value == pytest.approx(2.0 / 3.0, rel=1e-9)


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
# honesty of reported errors on awkward singular integrands


@pytest.mark.parametrize("name,f,exact,sing", [
    ("x^-1/4", lambda x: x ** -0.25, 4.0 / 3.0, (0.0,)),
    ("weak power", lambda x: x ** -0.9, 10.0, (0.0,)),
    ("circle arc", lambda x: 1.0 / math.sqrt((1.0 - x) * (1.0 + x)),
     math.pi / 2.0, (1.0,)),
    ("log-periodic", lambda x: math.cos(math.log(x)), 0.5, (0.0,)),
    ("both ends", lambda x: 1.0 / math.sqrt(x * (1.0 - x)), math.pi,
     (0.0, 1.0)),
])
def test_singular_error_estimates_are_honest(name, f, exact, sing):
    r = integrate_adaptive(f, 0.0, 1.0, CFG, singularities=sing)
    true_err = abs(r.value - exact)
    floor = 1e-15 * max(1.0, abs(exact))
    assert true_err <= 3.0 * max(r.error_estimate, floor), \
        (name, true_err, r.error_estimate)
    assert r.converged, name
