"""The hot numerical kernels: Bessel K0, the adaptive Gauss-Kronrod
driver, the loop, helix and cylinder-sheet quadratures and the slab
kernel series.

Everything here is scalar math on purpose: the functions are called
point by point from the field evaluators, and this inner loop dominates
runtime.  Functions return plain tuples of floats and ints.

One adaptive driver, _adaptive_panels, integrates k components over
one interval on shared nodes, and each component must meet the
tolerance on its own.  A scalar integral is the k = 1 case: _adaptive
for a Python integrand.  The loop, the helix and the cylinder sheet
each integrate their potential and their Biot-Savart field in one pass,
so the chord they share is computed once per node; evaluation counts
are nodes, each giving every component.  The loop and helix panels
inline their integrands, with no call per node.
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


# (node, Kronrod weight, Gauss weight or 0) for the seven node pairs
# +-XGK[j]; vector panels accumulate in this order, as _panel does
_PAIRS = tuple(zip(XGK[:7], WGK[:7],
                   (0.0, WG[0], 0.0, WG[1], 0.0, WG[2], 0.0)))


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


def loop_phi_integral(r: float, z: float, a: float, abs_tol: float,
                      rel_tol: float, max_sub: int):
    """The loop's potential and Biot-Savart integrals over the azimuth
    offset psi, with D = sqrt(r^2 + a^2 + z^2 - 2 a r cos psi):

        I_phi = Int_0^{2pi} cos(psi) / D dpsi
        J_r   = Int_0^{2pi} z cos(psi) / D^3 dpsi
        J_z   = Int_0^{2pi} (a - r cos psi) / D^3 dpsi

    a_phi, b_r and b_z are (mu I a / 4 pi) times them; b_phi vanishes,
    its integrand being odd in psi.  All three are even, so they are
    integrated on [0, pi] in one pass on shared nodes and doubled; each
    meets the tolerance on its own.  a_err is the error of I_phi, b_err
    the sum of those of J_r and J_z.

    Returns (I_phi, J_r, J_z, a_err, b_err, evaluations, converged).
    """
    (v, jr, jz), (e, er, ez), n, ok = _adaptive_panels(
        _loop_panel(r, z, a), 0.0, math.pi, 0.5 * abs_tol, rel_tol, max_sub)
    return 2.0 * v, 2.0 * jr, 2.0 * jz, 2.0 * e, 2.0 * (er + ez), n, ok


def _loop_panel(r: float, z: float, a: float):
    """Panel of cos(psi) / D, z cos(psi) / D^3 and (a - r cos psi) / D^3:
    one sine and square root per node.

    With s = sin(psi / 2), cos psi = 1 - 2 s^2, D^2 = (r - a)^2 + z^2
    + 4 a r s^2 and a - r cos psi = (a - r) + 2 r s^2: D^2 adds like
    signs and a - r cos psi cancels by no more than D, so both keep
    their accuracy near the wire, where 1 / D^3 peaks."""
    d0 = (r - a) * (r - a) + z * z
    four_ar = 4.0 * a * r
    a_r, two_r = a - r, 2.0 * r
    wk0, wg0 = WGK[7], WG[3]

    def panel(lo: float, hi: float):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        s2 = math.sin(0.5 * mid) ** 2
        cu = 1.0 - 2.0 * s2
        w = 1.0 / math.sqrt(d0 + four_ar * s2)
        w3 = w * w * w
        f0, f1, f2 = cu * w, z * cu * w3, (a_r + two_r * s2) * w3
        k0, k1, k2 = wk0 * f0, wk0 * f1, wk0 * f2
        g0, g1, g2 = wg0 * f0, wg0 * f1, wg0 * f2
        for x, wk, wg in _PAIRS:
            dx = half * x
            s2 = math.sin(0.5 * (mid - dx)) ** 2
            cu = 1.0 - 2.0 * s2
            w = 1.0 / math.sqrt(d0 + four_ar * s2)
            w3 = w * w * w
            f0, f1, f2 = cu * w, z * cu * w3, (a_r + two_r * s2) * w3
            s2 = math.sin(0.5 * (mid + dx)) ** 2
            cu = 1.0 - 2.0 * s2
            w = 1.0 / math.sqrt(d0 + four_ar * s2)
            w3 = w * w * w
            f0 += cu * w
            f1 += z * cu * w3
            f2 += (a_r + two_r * s2) * w3
            k0 += wk * f0
            k1 += wk * f1
            k2 += wk * f2
            if wg:
                g0 += wg * f0
                g1 += wg * f1
                g2 += wg * f2
        h = abs(half)
        return ((k0 * half, k1 * half, k2 * half),
                (abs(k0 - g0) * h, abs(k1 - g1) * h, abs(k2 - g2) * h))

    return panel


def _helix_panel(r: float, phi: float, z: float, a: float, p: float,
                 P: float):
    """Panel of the six helix integrands of helix_integrals: one cosine,
    sine and square root per node, each node inlined.

    With c = 1 - cos u, taken as sin(u)^2 / (1 + cos u) where cos u > 0,
    R^2 = (r - a)^2 + 2 a r c + dz^2 adds like signs, and a - r cos u =
    (a - r) + r c and r - a cos u = (r - a) + a c cancel by no more than
    R, so all keep their accuracy near the wire, where 1 / R^3 peaks."""
    ra2 = (r - a) * (r - a)
    two_ar = 2.0 * a * r
    a_r = a - r
    ap, aq = a * P, a * p
    wk0, wg0 = WGK[7], WG[3]

    def panel(lo: float, hi: float):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        u = P * mid - phi
        cu = math.cos(u)
        su = math.sin(u)
        dz = z - p * mid
        c = su * su / (1.0 + cu) if cu > 0.0 else 1.0 - cu
        w = 1.0 / math.sqrt(ra2 + two_ar * c + dz * dz)
        w3 = w * w * w
        f0 = su * w
        f1 = cu * w
        f3 = (ap * cu * dz + aq * su) * w3
        f4 = (p * (a * c - a_r) + ap * su * dz) * w3
        f5 = ap * (a_r + r * c) * w3
        k0, k1, k2 = wk0 * f0, wk0 * f1, wk0 * w
        k3, k4, k5 = wk0 * f3, wk0 * f4, wk0 * f5
        g0, g1, g2 = wg0 * f0, wg0 * f1, wg0 * w
        g3, g4, g5 = wg0 * f3, wg0 * f4, wg0 * f5
        for x, wk, wg in _PAIRS:
            dx = half * x
            s = mid - dx
            u = P * s - phi
            cu = math.cos(u)
            su = math.sin(u)
            dz = z - p * s
            c = su * su / (1.0 + cu) if cu > 0.0 else 1.0 - cu
            w = 1.0 / math.sqrt(ra2 + two_ar * c + dz * dz)
            w3 = w * w * w
            f0 = su * w
            f1 = cu * w
            f2 = w
            f3 = (ap * cu * dz + aq * su) * w3
            f4 = (p * (a * c - a_r) + ap * su * dz) * w3
            f5 = ap * (a_r + r * c) * w3
            s = mid + dx
            u = P * s - phi
            cu = math.cos(u)
            su = math.sin(u)
            dz = z - p * s
            c = su * su / (1.0 + cu) if cu > 0.0 else 1.0 - cu
            w = 1.0 / math.sqrt(ra2 + two_ar * c + dz * dz)
            w3 = w * w * w
            f0 += su * w
            f1 += cu * w
            f2 += w
            f3 += (ap * cu * dz + aq * su) * w3
            f4 += (p * (a * c - a_r) + ap * su * dz) * w3
            f5 += ap * (a_r + r * c) * w3
            k0 += wk * f0
            k1 += wk * f1
            k2 += wk * f2
            k3 += wk * f3
            k4 += wk * f4
            k5 += wk * f5
            if wg:
                g0 += wg * f0
                g1 += wg * f1
                g2 += wg * f2
                g3 += wg * f3
                g4 += wg * f4
                g5 += wg * f5
        h = abs(half)
        return ((k0 * half, k1 * half, k2 * half,
                 k3 * half, k4 * half, k5 * half),
                (abs(k0 - g0) * h, abs(k1 - g1) * h, abs(k2 - g2) * h,
                 abs(k3 - g3) * h, abs(k4 - g4) * h, abs(k5 - g5) * h))

    return panel


def helix_integrals(r: float, phi: float, z: float, a: float, p: float,
                    P: float, s0: float, s1: float, abs_tol: float,
                    rel_tol: float, max_sub: int):
    """The helix quadratures over arc length s in [s0, s1], in the field
    point's cylindrical frame, with u = P s - phi, dz = z - p s and

        R^2   = r^2 + a^2 + z^2 + p^2 s^2 - 2 z p s - 2 a r cos u:

        I_sin = Int sin(u) / R ds
        I_cos = Int cos(u) / R ds
        I_one = Int 1 / R ds
        J_r   = Int (a P cos(u) dz + a p sin(u)) / R^3 ds
        J_phi = Int (p (r - a cos u) + a P sin(u) dz) / R^3 ds
        J_z   = Int a P (a - r cos u) / R^3 ds

    The J are the components of the Biot-Savart integral
    Int t x (y - x) / R^3 ds, t = (-a P sin u, a P cos u, p) the unit
    tangent, so no limit is taken on the axis r = 0.  One adaptive pass
    refines all six on shared nodes; each meets the tolerance on its
    own.  a_err is the sum of the errors of the I, b_err that of the J,
    evaluations the number of nodes.

    Returns (I_sin, I_cos, I_one, J_r, J_phi, J_z, a_err, b_err,
    evaluations, converged).
    """
    (vs, vc, v1, jr, jp, jz), (es, ec, e1, er, ep, ez), n, ok = \
        _adaptive_panels(_helix_panel(r, phi, z, a, p, P), s0, s1,
                         abs_tol, rel_tol, max_sub)
    return vs, vc, v1, jr, jp, jz, es + ec + e1, er + ep + ez, n, ok


def _solenoid_panel(r: float, z: float, a: float, L0: float):
    """Panel of the five sheet integrands of solenoid_integrals: one
    sine, three square roots and an asinh pair per node.

    With s = sin(u / 2), cos u = 1 - 2 s^2 and c1 = (r - a)^2 + 4 a r s^2,
    which adds like signs, so it is not 0 at any node off the sheet, even
    at r = a just beyond an end, where the chord to u = 0 is tiny;
    r - a cos u = (r - a) + 2 a s^2 and a - r cos u = (a - r) + 2 r s^2
    cancel by no more than sqrt(c1)."""
    a_r = a - r
    ra2 = a_r * a_r
    four_ar = 4.0 * a * r
    z1 = z - L0
    zz, z1z1 = z * z, z1 * z1
    span = L0 * (2.0 * z - L0)      # z^2 - z1^2
    outside = z <= 0.0 or z1 >= 0.0
    wk0, wg0 = WGK[7], WG[3]

    def node(u: float):
        s2 = math.sin(0.5 * u) ** 2
        cu = 1.0 - 2.0 * s2
        c1 = ra2 + four_ar * s2
        root = math.sqrt(c1)
        f = math.asinh(z / root) - math.asinh(z1 / root)
        ra = math.sqrt(c1 + zz)
        rb = math.sqrt(c1 + z1z1)
        ab = ra * rb
        g = (span / (ab * (z * rb + z1 * ra)) if outside
             else (z / ra - z1 / rb) / c1)
        return (f * cu, f, span / (ab * (ra + rb)) * cu,
                (2.0 * a * s2 - a_r) * g, (a_r + 2.0 * r * s2) * g)

    def panel(lo: float, hi: float):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        f0, f1, f2, f3, f4 = node(mid)
        k0, k1, k2, k3, k4 = (wk0 * f0, wk0 * f1, wk0 * f2, wk0 * f3,
                              wk0 * f4)
        g0, g1, g2, g3, g4 = (wg0 * f0, wg0 * f1, wg0 * f2, wg0 * f3,
                              wg0 * f4)
        for x, wk, wg in _PAIRS:
            dx = half * x
            f0, f1, f2, f3, f4 = node(mid - dx)
            e0, e1, e2, e3, e4 = node(mid + dx)
            f0 += e0
            f1 += e1
            f2 += e2
            f3 += e3
            f4 += e4
            k0 += wk * f0
            k1 += wk * f1
            k2 += wk * f2
            k3 += wk * f3
            k4 += wk * f4
            if wg:
                g0 += wg * f0
                g1 += wg * f1
                g2 += wg * f2
                g3 += wg * f3
                g4 += wg * f4
        h = abs(half)
        return ((k0 * half, k1 * half, k2 * half, k3 * half, k4 * half),
                (abs(k0 - g0) * h, abs(k1 - g1) * h, abs(k2 - g2) * h,
                 abs(k3 - g3) * h, abs(k4 - g4) * h))

    return panel


def solenoid_integrals(r: float, z: float, a: float, L0: float,
                       abs_tol: float, rel_tol: float, max_sub: int):
    """Azimuth quadratures for the cylinder sheet, inner integrals
    closed.

    With c1(u) = r^2 + a^2 - 2 a r cos u, A = sqrt(c1 + z^2) and
    B = sqrt(c1 + (z - L0)^2), the axial integrals over the sheet
    coordinate z' in [0, L0] of 1/R, 1/R^3 and (z - z')/R^3 are

        F(u) = asinh(z / sqrt(c1)) - asinh((z - L0) / sqrt(c1))
        G(u) = (z / A - (z - L0) / B) / c1
        H(u) = 1 / B - 1 / A = L0 (2 z - L0) / (A B (A + B)).

    Beyond the ends (z <= 0 or z >= L0) G is taken as
    L0 (2 z - L0) / (A B (z B + (z - L0) A)), which adds like signs, so
    r = a there needs no limit.  After shifting by the field azimuth
    (allowed by periodicity) the components reduce to

        I_cos = Int_0^{2pi} F(u) cos u du
        I_one = Int_0^{2pi} F(u) du
        J_r   = Int_0^{2pi} H(u) cos u du
        J_phi = Int_0^{2pi} (r - a cos u) G(u) du
        J_z   = Int_0^{2pi} (a - r cos u) G(u) du;

    the others vanish, their integrands being odd in u.  The J are the
    Biot-Savart integral of the winding tangent W = P a phi_hat + p z_hat,
    split into its azimuthal part (J_r, J_z) and its axial part (J_phi).
    All five are even, so they come from one adaptive pass on [0, pi]
    on shared nodes, doubled; each meets the tolerance on its own.
    a_err is the sum of the errors of the I, b_err that of the J.

    Returns (I_cos, I_one, J_r, J_phi, J_z, a_err, b_err, evaluations,
    converged).
    """
    (vc, v1, jr, jp, jz), (ec, e1, er, ep, ez), n, ok = _adaptive_panels(
        _solenoid_panel(r, z, a, L0), 0.0, math.pi, 0.5 * abs_tol, rel_tol,
        max_sub)
    return (2.0 * vc, 2.0 * v1, 2.0 * jr, 2.0 * jp, 2.0 * jz,
            2.0 * (ec + e1), 2.0 * (er + ep + ez), n, ok)


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
