"""The hot numerical kernels: Bessel K0, the adaptive Gauss-Kronrod
driver, the loop, helix and cylinder-sheet quadratures and the slab
kernel series.

Everything here is scalar math on purpose: the functions are called
point by point from the field evaluators, and this inner loop dominates
runtime.  Functions return plain tuples of floats and ints.
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


def _adaptive(f, a: float, b: float, abs_tol: float, rel_tol: float,
              max_sub: int):
    """Worst-first adaptive Gauss-Kronrod 7/15 driver.

    Bisects the panel with the largest error estimate (the lowest index
    among equals) until the summed error meets max(abs_tol, rel_tol *
    |sum|) or max_sub panels exist.  Both sums are math.fsum over all
    panels.  A heap finds the worst panel, and running sums skip the two
    fsum calls while the running error exceeds the threshold by more
    than its rounding bound, so n panels cost O(n log n) rather than
    O(n^2); the result is the same bit for bit.  quad.integrate_adaptive
    runs on this driver too.

    Returns (value, error_estimate, evaluations, converged).
    """
    value, err = _panel(f, a, b)
    values = [value]
    errors = [err]
    spans = [(a, b)]
    heap = [_rank(err, 0)]
    evals = 15
    # Each addition to a running sum rounds by at most half an ulp of
    # the largest magnitude the sum reaches, so after k additions it is
    # within k ulps of that magnitude of the exact sum.
    run_val, run_err = value, err
    big_val, big_err = abs(value), abs(err)
    adds = 0
    while True:
        n = len(values)
        # Four spare ulps cover fsum's own rounding and that of this
        # test.  An inf or NaN makes a comparison false and so takes the
        # exact path.
        spare = adds + 4
        low_err = run_err - spare * math.ulp(big_err)
        high_val = abs(run_val) + spare * math.ulp(big_val)
        if n >= max_sub or not (low_err > abs_tol
                                and low_err > rel_tol * high_val):
            total = math.fsum(values)
            total_err = math.fsum(errors)
            if total_err <= max(abs_tol, rel_tol * abs(total)):
                return total, max(total_err, 1e-15 * abs(total)), evals, 1
            if n >= max_sub:
                return total, max(total_err, 1e-15 * abs(total)), evals, 0
            run_val, run_err = total, total_err
            big_val, big_err = abs(total), abs(total_err)
            adds = 1
        worst = heapq.heappop(heap)[1]
        lo, hi = spans[worst]
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        evals += 30
        # swap the worst panel for its halves in the running sums, three
        # additions each, and note the magnitude of every partial sum
        s1 = run_val - values[worst]
        s2 = s1 + v1
        run_val = s2 + v2
        t1 = run_err - errors[worst]
        t2 = t1 + e1
        run_err = t2 + e2
        big_val = max(big_val, abs(s1), abs(s2), abs(run_val))
        big_err = max(big_err, abs(t1), abs(t2), abs(run_err))
        adds += 3
        values[worst], errors[worst], spans[worst] = v1, e1, (lo, mid)
        values.append(v2)
        errors.append(e2)
        spans.append((mid, hi))
        heapq.heappush(heap, _rank(e1, worst))
        heapq.heappush(heap, _rank(e2, n))


def loop_phi_integral(r: float, z: float, a: float, abs_tol: float,
                      rel_tol: float, max_sub: int):
    """Int_0^{2pi} cos(psi) / sqrt(r^2+a^2+z^2 - 2 a r cos psi) dpsi.

    Even in psi, so integrated on [0, pi] and doubled.
    Returns (value, error_estimate, evaluations, converged).
    """
    c0 = r * r + a * a + z * z
    two_ar = 2.0 * a * r

    def f(psi: float) -> float:
        return math.cos(psi) / math.sqrt(c0 - two_ar * math.cos(psi))

    v, e, n, ok = _adaptive(f, 0.0, math.pi, 0.5 * abs_tol, rel_tol, max_sub)
    return 2.0 * v, 2.0 * e, n, ok


def helix_integrals(r: float, phi: float, z: float, a: float, p: float,
                    P: float, s0: float, s1: float, abs_tol: float,
                    rel_tol: float, max_sub: int):
    """The three helix quadratures over arc length s in [s0, s1]:

        I_sin = Int sin(P s - phi) / R ds
        I_cos = Int cos(P s - phi) / R ds
        I_one = Int 1 / R ds
        R^2   = r^2 + a^2 + z^2 + p^2 s^2 - 2 z p s - 2 a r cos(P s - phi)

    Returns (I_sin, I_cos, I_one, err, evaluations, converged).
    """
    c0 = r * r + a * a + z * z
    two_ar = 2.0 * a * r

    def rad(s: float) -> float:
        u = P * s - phi
        return math.sqrt(c0 + p * s * (p * s - 2.0 * z) - two_ar * math.cos(u))

    vs, es, ns, oks = _adaptive(
        lambda s: math.sin(P * s - phi) / rad(s), s0, s1, abs_tol, rel_tol,
        max_sub)
    vc, ec, nc, okc = _adaptive(
        lambda s: math.cos(P * s - phi) / rad(s), s0, s1, abs_tol, rel_tol,
        max_sub)
    vz, ez, nz, okz = _adaptive(
        lambda s: 1.0 / rad(s), s0, s1, abs_tol, rel_tol, max_sub)
    return vs, vc, vz, es + ec + ez, ns + nc + nz, oks and okc and okz


def solenoid_integrals(r: float, z: float, a: float, L0: float,
                       abs_tol: float, rel_tol: float, max_sub: int):
    """Azimuth quadratures for the cylinder sheet, inner integral closed.

    With c1(u) = r^2 + a^2 - 2 a r cos u, the closed-form inner integral
    over the axial coordinate is

        F(u) = asinh(z / sqrt(c1)) - asinh((z - L0) / sqrt(c1)),

    and the azimuthal components reduce (after shifting by the field
    azimuth, allowed by periodicity) to

        I_cos = Int_0^{2pi} F(u) cos u du   (even, computed on [0, pi])
        I_one = Int_0^{2pi} F(u) du
        I_sin = 0 exactly (odd part of an even integrand).

    Returns (I_sin, I_cos, I_one, err, evaluations, converged).
    """
    c0 = r * r + a * a
    two_ar = 2.0 * a * r

    def F(u: float) -> float:
        root = math.sqrt(c0 - two_ar * math.cos(u))
        return math.asinh(z / root) - math.asinh((z - L0) / root)

    vc, ec, nc, okc = _adaptive(lambda u: F(u) * math.cos(u), 0.0, math.pi,
                                0.5 * abs_tol, rel_tol, max_sub)
    v1, e1, n1, ok1 = _adaptive(F, 0.0, math.pi, 0.5 * abs_tol, rel_tol,
                                max_sub)
    return 0.0, 2.0 * vc, 2.0 * v1, 2.0 * (ec + e1), nc + n1, okc and ok1


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
