"""The hot numerical kernels besides the chart quadratures (_chart):
Bessel K0, the adaptive Gauss-Kronrod driver of the generic quadrature
engine, the slab kernel series and the exact product and sum of two
doubles.

Everything here is scalar math on purpose: the functions are called
point by point from the field evaluators, and this inner loop dominates
runtime.  Functions return plain tuples of floats and ints.

_adaptive_panels, the worst-first Gauss-Kronrod 7/15 driver,
integrates k components over one interval on shared nodes, each
meeting the tolerance on its own; _adaptive is its scalar case for a
Python integrand, which quad.integrate_adaptive runs on (generic curves
and selfcheck).
"""

from __future__ import annotations

import heapq
import math

from ._gk import WG, WGK, XGK
from ._k0_table import SEGMENTS

_EULER_GAMMA = 0.57721566490153286


def bessel_k0(x: float) -> float:
    """Modified Bessel K0 for x > 0; relative accuracy ~1e-14 on (0, 700].

    Ascending series below 2, frozen Chebyshev segments (see _k0_table)
    on [2, 700], leading asymptotic form beyond (underflows near 745).
    """
    if x <= 0.0:
        raise ValueError("bessel_k0 requires x > 0, got %r" % (x,))
    if x <= 2.0:
        # K0 = -(ln(x/2) + gamma) I0(x) + sum_k H_k (x^2/4)^k / (k!)^2
        q = 0.25 * x * x
        i0 = 1.0
        s = 0.0
        term = 1.0
        h = 0.0
        for k in range(1, 30):
            term *= q / (k * k)
            h += 1.0 / k
            i0 += term
            s += term * h
            if term < 1e-18:
                break
        return -(math.log(0.5 * x) + _EULER_GAMMA) * i0 + s
    if x <= 700.0:
        for lo, hi, coefs in SEGMENTS:
            if x <= hi:
                s_lo, s_hi = 1.0 / hi, 1.0 / lo
                t = (2.0 / x - s_hi - s_lo) / (s_hi - s_lo)
                b1 = 0.0
                b2 = 0.0
                for c in reversed(coefs[1:]):
                    b1, b2 = c + 2.0 * t * b1 - b2, b1
                g = coefs[0] + t * b1 - b2
                return g * math.exp(-x) / math.sqrt(x)
    # asymptotic tail; exp(-x) underflows to 0 by x ~ 745 anyway
    if x > 746.0:
        return 0.0
    return math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) * (
        1.0 - 0.125 / x + (9.0 / 128.0) / (x * x)
    )


def _panel(f, a: float, b: float):
    """Gauss-Kronrod 7/15 panel: (kronrod value, |K15-G7| scaled)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    resk = WGK[7] * fc
    resg = WG[3] * fc
    for j in range(7):
        dx = half * XGK[j]
        f1 = f(mid - dx)
        f2 = f(mid + dx)
        resk += WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += WG[j // 2] * (f1 + f2)
    return resk * half, abs(resk - resg) * abs(half)


def _rank(err: float, i: int):
    """Heap key of panel i: largest error first, lowest index among
    equals, as a linear scan with `>` picks.  Nothing compares greater
    than NaN, so that scan keeps panel 0 when its error is NaN and
    passes over NaN errors elsewhere."""
    if err != err:
        return (-math.inf, 0) if i == 0 else (math.inf, i)
    return (-err, i)


def _adaptive_panels(panel, a: float, b: float, abs_tol: float,
                     rel_tol: float, max_sub: int):
    """Worst-first adaptive Gauss-Kronrod 7/15 driver for k integrals
    over one interval.

    panel(lo, hi) returns (values, errors), two k-tuples: each
    component's K15 value on [lo, hi] and its |K15 - G7| estimate.  The
    components share the panel's 15 nodes, so a source computes what
    they have in common once per node.

    Bisects the panel with the largest summed error (the lowest index
    among equals) until every component's summed error meets
    max(abs_tol, rel_tol * |its sum|) or max_sub panels exist.  The
    sums are math.fsum over all panels, per component.  A heap finds the
    worst panel, and running sums skip the fsum calls while some
    component's running error exceeds its threshold by more than its
    rounding bound, so n panels cost O(n log n) rather than O(n^2); for
    k = 1 the result is that of a linear scan and full re-sums after
    every bisection, bit for bit (tests/test_quad.py).

    Returns (values, errors, evaluations, converged): each component's
    value and its error, floored at 1e-15 of the value; evaluations
    counts integrand nodes, 15 per panel, each giving all k components.
    """
    vals, errs = panel(a, b)
    comps = range(len(vals))
    values = [[v] for v in vals]      # values[j][i]: component j, panel i
    errors = [[e] for e in errs]
    spans = [(a, b)]
    heap = [_rank(sum(errs), 0)]
    evals = 15
    # Each addition to a running sum rounds by at most half an ulp of
    # the largest magnitude the sum reaches, so after k additions it is
    # within k ulps of that magnitude of the exact sum.
    run_val, run_err = list(vals), list(errs)
    big_val = [abs(v) for v in vals]
    big_err = [abs(e) for e in errs]
    adds = 0
    while True:
        n = len(spans)
        # Four spare ulps cover fsum's own rounding and that of this
        # test.  An inf or NaN makes a comparison false and so takes the
        # exact path.
        spare = adds + 4
        exact = True
        if n < max_sub:
            for j in comps:
                low_err = run_err[j] - spare * math.ulp(big_err[j])
                high_val = abs(run_val[j]) + spare * math.ulp(big_val[j])
                if low_err > abs_tol and low_err > rel_tol * high_val:
                    exact = False
                    break
        if exact:
            totals = [math.fsum(v) for v in values]
            total_errs = [math.fsum(e) for e in errors]
            ok = all(e <= max(abs_tol, rel_tol * abs(t))
                     for t, e in zip(totals, total_errs))
            if ok or n >= max_sub:
                return (tuple(totals),
                        tuple(max(e, 1e-15 * abs(t))
                              for t, e in zip(totals, total_errs)),
                        evals, 1 if ok else 0)
            run_val, run_err = totals, total_errs
            big_val = [abs(t) for t in totals]
            big_err = [abs(e) for e in total_errs]
            adds = 1
        worst = heapq.heappop(heap)[1]
        lo, hi = spans[worst]
        mid = 0.5 * (lo + hi)
        vals1, errs1 = panel(lo, mid)
        vals2, errs2 = panel(mid, hi)
        evals += 30
        # swap the worst panel for its halves in the running sums, three
        # additions each, and note the magnitude of every partial sum
        for j in comps:
            vj, ej = values[j], errors[j]
            s1 = run_val[j] - vj[worst]
            s2 = s1 + vals1[j]
            run_val[j] = s2 + vals2[j]
            t1 = run_err[j] - ej[worst]
            t2 = t1 + errs1[j]
            run_err[j] = t2 + errs2[j]
            big_val[j] = max(big_val[j], abs(s1), abs(s2), abs(run_val[j]))
            big_err[j] = max(big_err[j], abs(t1), abs(t2), abs(run_err[j]))
            vj[worst] = vals1[j]
            vj.append(vals2[j])
            ej[worst] = errs1[j]
            ej.append(errs2[j])
        adds += 3
        spans[worst] = (lo, mid)
        spans.append((mid, hi))
        heapq.heappush(heap, _rank(sum(errs1), worst))
        heapq.heappush(heap, _rank(sum(errs2), n))


def _adaptive(f, a: float, b: float, abs_tol: float, rel_tol: float,
              max_sub: int):
    """One scalar integral of f: the 1-component case of
    _adaptive_panels, on _panel.  quad.integrate_adaptive runs on it.

    Returns (value, error_estimate, evaluations, converged).
    """
    def panel(lo: float, hi: float):
        value, err = _panel(f, lo, hi)
        return (value,), (err,)

    (value,), (err,), evals, ok = _adaptive_panels(panel, a, b, abs_tol,
                                                   rel_tol, max_sub)
    return value, err, evals, ok


# Veltkamp's splitting constant 2^27 + 1
_SPLIT = 134217729.0


def two_product(a: float, b: float) -> tuple[float, float]:
    """(a * b rounded, its exact error): Dekker's product over
    Veltkamp's split."""
    p = a * b
    h = _SPLIT * a
    a_hi = h - (h - a)
    a_lo = a - a_hi
    h = _SPLIT * b
    b_hi = h - (h - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def two_sum(a: float, b: float) -> tuple[float, float]:
    """(a + b rounded, its exact error): Knuth's two-sum."""
    s = a + b
    h = s - a
    return s, (a - (s - h)) + (b - h)


def plate_green_sum(rho: float, z: float, zp: float, L: float, tol: float,
                    n_max: int):
    """Dirichlet slab kernel series (1/(pi L)) sum sin sin K0(n pi rho / L).

    Truncates on the K0 envelope (immune to sine zeros); the reported
    error bounds the tail via K0(x + d) < K0(x) e^{-d}.
    Returns (value, tail_bound, n_terms, converged).
    """
    pref = 1.0 / (math.pi * L)
    kz = math.pi * z / L
    kzp = math.pi * zp / L
    step = math.pi * rho / L
    total = 0.0
    n = 0
    while n < n_max:
        n += 1
        arg = n * step
        if arg > 746.0:
            return pref * total, 0.0, n - 1, 1
        env = bessel_k0(arg)
        total += math.sin(n * kz) * math.sin(n * kzp) * env
        if pref * env < tol:
            q = math.exp(-step)
            tail = pref * env * q / (1.0 - q)
            return pref * total, tail, n, 1
    q = math.exp(-step)
    env = bessel_k0(n * step)
    return pref * total, pref * env * q / (1.0 - q), n, 0
