"""The loop, helix and cylinder-sheet chart quadratures.

Each integrates its potential and, when asked, its Biot-Savart field on
shared Gauss-Legendre panels (_gauss_panels), so the chord they share is
computed once per node; evaluation counts are nodes, each giving every
component, and each component meets the tolerance on its own.  Each
source places the panels from the complex zeros of its own squared
distance and bounds each panel's error a priori on a Bernstein ellipse,
as the section below sets out.  Like _ref, this is scalar math called
point by point, and the functions return plain tuples of floats and
ints.
"""

from __future__ import annotations

import cmath
import math

from ._gl import N as GAUSS_N, W as GL_W, X as GL_X
from ._ref import two_product, two_sum


# Gauss-Legendre panels graded by the source geometry
#
# The loop's, the helix's and the sheet's integrands are analytic in
# the chart coordinate except where a complexified squared distance
# vanishes: R^2(s) for the wires, c1(u) + t^2 for some t on the sheet's
# axial span.  For an n-point Gauss rule on a panel of half-length h, if
# the integrand is analytic in the Bernstein ellipse E_rho of the panel
# (foci at its ends, semi-axes h (rho + 1/rho) / 2 and h (rho - 1/rho) /
# 2) and bounded there by M, the error is at most
#
#     (64 / 15) M h rho^(-2n) / (rho^2 - 1)
#
# (Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
# Review 50, 2008, Thm 4.5, scaled from [-1, 1] to the panel).  Each
# source lists the nearest complex zeros; the panels are placed so that
# every zero lies outside E_RHO of its panel, and each panel's bound is
# taken on the smaller ellipse E_rho', rho' = rho_z^THETA with rho_z
# the least Bernstein parameter of a listed zero.  M comes in closed
# form from a lower bound of the squared distance on E_rho'
# (_chord_floor), which is proved on the ellipse itself and so does not
# rely on the zero list being complete: a zero the list misses makes
# that bound fail, and the panel is bisected.  The rounding of each
# panel's sum is bounded apart, from the moduli its nodes give.

EPS = 2.0 ** -52
# every listed zero lies outside E_RHO of its panel; the bound's
# ellipse is E_rho', rho' = min(rho_z, RHO_CAP)^THETA
RHO = 3.0
THETA = 0.8
RHO_CAP = 10.0
# a zero whose u lies further than this off the real line is not listed
FAR_ZERO = 30.0
STRIPS = 6
# rounding of one integrand value and of the weighted sum, in units of
# EPS of the weighted moduli the nodes give
ROUND_C = 32.0

# the rule on [0, 2]: a panel's nodes are lo + half * y
_GL_RULE = tuple((1.0 + s * x, w) for x, w in zip(GL_X, GL_W)
                 for s in (-1.0, 1.0))

# _chord_floor covers E_rho' by STRIPS vertical strips, between the
# abscissae -alpha cos(pi j / STRIPS); each strip's height is beta times
# the largest sine over its angles.
_STRIP_X = tuple(-math.cos(math.pi * j / STRIPS) for j in range(STRIPS + 1))
_STRIP_H = tuple(
    1.0 if j <= STRIPS / 2 <= j + 1
    else max(math.sin(math.pi * j / STRIPS),
             math.sin(math.pi * (j + 1) / STRIPS))
    for j in range(STRIPS))
# the distinct heights, and which one each strip has
_STRIP_T = tuple(sorted(set(_STRIP_H)))
_STRIP_K = tuple(_STRIP_T.index(t) for t in _STRIP_H)
_TWO_PI = 2.0 * math.pi


def _graded_edges(s0: float, s1: float, zeros, cap: float, max_sub: int):
    """Panel edges from s0 to s1: each panel is as long as it can be
    with every zero (sigma, tau) outside its E_RHO, and no longer than
    2 cap.  With A = (RHO + 1/RHO) / 2 and B^2 = A^2 - 1, a zero lies on
    E_RHO of the panel [x, x + 2 h] when h = (A |zeta - x| - (sigma - x))
    / B^2.  At most max_sub panels: the last one then reaches s1."""
    big_a = 0.5 * (RHO + 1.0 / RHO)
    b2 = big_a * big_a - 1.0
    # a zero |sigma - x| off allows at least (A - 1) |sigma - x| / B^2
    slope = (big_a - 1.0) / b2
    edges = [s0]
    x = s0
    while x < s1:
        h = cap
        for sigma, tau in zeros:
            if slope * abs(sigma - x) < h:
                h = min(h, (big_a * math.hypot(sigma - x, tau)
                            - (sigma - x)) / b2)
        x = max(x + 2.0 * h, math.nextafter(x, math.inf))
        if x >= s1 or len(edges) == max_sub:
            x = s1
        edges.append(x)
    return edges


def _bound_ellipse(lo: float, hi: float, zeros):
    """(alpha, beta, factor) of the panel [lo, hi]: the semi-axes of
    E_rho', rho' = min(rho_z, RHO_CAP)^THETA, and the factor that turns
    the bound M of the integrand on it into the panel's error bound,
    (64 / 15) h rho'^(-2n) / (rho'^2 - 1).  The Bernstein parameter of a
    zero comes from the sum of its distances to the foci lo and hi, and
    is at least |sigma - c| / h, so a zero that far off cannot lower
    it below RHO_CAP."""
    h = 0.5 * (hi - lo)
    c = lo + h
    reach = RHO_CAP * h
    rho = RHO_CAP
    for sigma, tau in zeros:
        if abs(sigma - c) < reach:
            big_a = 0.5 * (math.hypot(sigma - lo, tau)
                           + math.hypot(sigma - hi, tau)) / h
            big_a += math.sqrt(big_a * big_a - 1.0) if big_a > 1.0 else 0.0
            if big_a < rho:
                rho = big_a
    rho = rho ** THETA
    factor = (64.0 / 15.0 * h * rho ** (-2 * GAUSS_N) / (rho * rho - 1.0)
              if rho > 1.0 else math.inf)
    return 0.5 * h * (rho + 1.0 / rho), 0.5 * h * (rho - 1.0 / rho), factor


def _chord_floor(c: float, alpha: float, beta: float, c0: float,
                 two_ar: float, big_p: float, phi: float, z: float,
                 p: float):
    """(L, m) for the squared distance

        R^2(s) = c0 + 2 a r (1 - cos u) + dz^2,  u = P s - phi,
                 dz = z - p s,

    on the ellipse of center c and semi-axes alpha, beta: L <= |R^2|
    there, and m = min cos Re u over it (m is left unfinished when L is
    not positive).

    Write s = sigma + i tau.  Then R^2 = 2 a r (K - cos u) - 2 i p tau dz
    - p^2 tau^2 with dz = z - p sigma and K = (c0 + 2 a r + dz^2) /
    (2 a r) >= 1, both real.  On a strip where sigma lies between two
    abscissae, |tau| <= T, cos Re u <= C and K >= K0:

    * Re R^2 >= c0 + dz0^2 + 2 a r (1 - max(C cosh(P T), C)) - p^2 T^2;
    * |K - cos u|^2 = (K - cos v cosh y)^2 + sin^2 v sinh^2 y, with
      v = Re u and y = P tau, decreases in cos v and grows with K past
      cos v cosh y, and over |y| <= P T its least value is at
      cosh y = C K0 clamped to [1, cosh(P T)] (K0^2 where C <= 0), so
      |R^2| >= 2 a r sqrt(that) - p T sqrt(4 dz^2 + p^2 T^2).

    Both are formed from 1 - C, cosh(P T) - 1 and K0 - 1, which keeps
    them accurate where they are small.  L is the least over the strips
    of the larger of the two, less a margin for the rounding of these
    terms; it is not positive where a strip may hold a zero of R^2."""
    floor = math.inf
    m = 1.0
    # cosh(P T) - 1 for each strip height, and 1 - cos v at each
    # abscissa, formed as 2 sinh^2 and 2 sin^2 of the half angle, so
    # that nothing is lost to the 1 they are taken from near a zero
    ch1 = [2.0 * math.sinh(0.5 * big_p * beta * t) ** 2 for t in _STRIP_T]
    x0 = c + alpha * _STRIP_X[0]
    v0 = big_p * x0 - phi
    omc0 = 2.0 * math.sin(0.5 * v0) ** 2
    q = v0 / _TWO_PI
    turn0, half0 = math.floor(q), math.floor(q + 0.5)
    dz0 = z - p * x0
    for j in range(STRIPS):
        x1 = c + alpha * _STRIP_X[j + 1]
        v1 = big_p * x1 - phi
        omc1 = 2.0 * math.sin(0.5 * v1) ** 2
        q = v1 / _TWO_PI
        turn1, half1 = math.floor(q), math.floor(q + 0.5)
        dz1 = z - p * x1
        # gam = 1 - C for the largest cosine C on the strip
        if turn1 != turn0:
            gam = 0.0
        else:
            gam = omc0 if omc0 < omc1 else omc1
        if half1 != half0:
            m = -1.0
        else:
            least = 1.0 - (omc0 if omc0 > omc1 else omc1)
            if least < m:
                m = least
        big_c = 1.0 - gam
        a0, a1 = abs(dz0), abs(dz1)
        dlo = 0.0 if dz0 * dz1 <= 0.0 else (a0 if a0 < a1 else a1)
        dhi = a0 if a0 > a1 else a1
        c0p = c0 + dlo * dlo
        pt = p * beta * _STRIP_H[j]
        chm1 = ch1[_STRIP_K[j]]
        low = c0p - pt * pt + two_ar * (gam - big_c * chm1 if big_c > 0.0
                                        else gam)
        if two_ar > 0.0:
            # 2 a r |K0 - cos u| with K0 = 1 + c0p / (2 a r), cos Re u =
            # 1 - gam and cosh(P tau) = 1 + eta at the least
            if big_c > 0.0:
                eta = (big_c * c0p - two_ar * gam) / two_ar
                eta = 0.0 if eta < 0.0 else (chm1 if eta > chm1 else eta)
                mod = math.hypot(c0p + two_ar * (gam * (1.0 + eta) - eta),
                                 two_ar * math.sqrt(gam * (2.0 - gam)
                                                    * eta * (2.0 + eta)))
            else:
                mod = c0p + two_ar
            mod -= pt * math.sqrt(4.0 * dhi * dhi + pt * pt)
            if mod > low:
                low = mod
        # less the rounding of those terms, and that of gam from the
        # rounding of the abscissa's v; a squared distance beyond the
        # floats stays inf
        if low < math.inf:
            low -= (8.0 * EPS * (c0p + pt * pt + 2.0 * pt * dhi)
                    + 8.0 * EPS * two_ar * (gam + chm1 * (2.0 + gam))
                    + 4.0 * EPS * two_ar * math.sqrt(gam) * (2.0 + chm1)
                    * (abs(v1) + abs(v0) + 2.0 * abs(phi) + 1.0))
        if not low > 0.0:
            return low, m
        if low < floor:
            floor = low
        omc0, turn0, half0, dz0, v0 = omc1, turn1, half1, dz1, v1
    return floor, m


def _gauss_panels(panel, bound, edges, abs_tol: float, rel_tol: float,
                  max_sub: int):
    """Gauss-Legendre panels for k integrals on shared nodes.

    panel(lo, hi) returns (values, rounding), two k-tuples: each
    component's rule on [lo, hi] and a bound on the error of forming it
    in floating point; bound(lo, hi) returns the k Bernstein-ellipse
    bounds of its truncation error.  Starting from the panels between
    `edges`, while some component's summed truncation bound exceeds
    max(abs_tol, rel_tol * |its sum|), the panel with the largest bound
    for the component furthest over its threshold (the first among
    equals; NaN counts as largest) is bisected, until max_sub panels
    exist.  Rounding does not shrink under bisection, so it is reported
    but does not drive it.

    Returns (values, errors, evaluations, converged): each component's
    math.fsum over the panels, the sum of its truncation and rounding
    bounds, the number of integrand nodes evaluated, each giving all k
    components, and whether every component met its threshold.
    """
    spans = list(zip(edges[:-1], edges[1:]))
    values = [panel(lo, hi) for lo, hi in spans]
    bounds = [bound(lo, hi) for lo, hi in spans]
    evals = GAUSS_N * len(spans)
    comps = range(len(bounds[0]))
    while True:
        totals = [math.fsum([v[0][j] for v in values]) for j in comps]
        truncs = [math.fsum([b[j] for b in bounds]) for j in comps]
        worst, excess = -1, 1.0
        for j, (total, trunc) in enumerate(zip(totals, truncs)):
            ratio = trunc / max(abs_tol, rel_tol * abs(total))
            if not ratio <= excess:
                worst, excess = j, ratio if ratio == ratio else math.inf
        if worst < 0 or len(spans) >= max_sub:
            errors = tuple(truncs[j] + math.fsum([v[1][j] for v in values])
                           for j in comps)
            return tuple(totals), errors, evals, 1 if worst < 0 else 0
        i, top = 0, -1.0
        for n, b in enumerate(bounds):
            if not b[worst] <= top:
                i, top = n, math.inf if b[worst] != b[worst] else b[worst]
        lo, hi = spans[i]
        mid = 0.5 * (lo + hi)
        spans[i:i + 1] = [(lo, mid), (mid, hi)]
        values[i:i + 1] = [panel(lo, mid), panel(mid, hi)]
        bounds[i:i + 1] = [bound(lo, mid), bound(mid, hi)]
        evals += 2 * GAUSS_N


def loop_phi_integral(r: float, z: float, a: float, abs_tol: float,
                      rel_tol: float, max_sub: int, want_b: bool = True):
    """The loop's potential and Biot-Savart integrals over the azimuth
    offset psi, with D = sqrt(r^2 + a^2 + z^2 - 2 a r cos psi):

        I_phi = Int_0^{2pi} cos(psi) / D dpsi
        J_r   = Int_0^{2pi} z cos(psi) / D^3 dpsi
        J_z   = Int_0^{2pi} (a - r cos psi) / D^3 dpsi

    a_phi, b_r and b_z are (mu I a / 4 pi) times them; b_phi vanishes,
    its integrand being odd in psi.  All three are even, so they are
    integrated on [0, pi] on shared Gauss-Legendre panels
    (_gauss_panels) and doubled; each meets the tolerance on its own.
    D^2 vanishes at psi = 2 pi k +- 2 i asinh(sqrt(d0) / (2 sqrt(a r))),
    d0 = (r - a)^2 + z^2, which grade the panels.  a_err bounds the
    error of I_phi, b_err the sum of those of J_r and J_z.  Without
    want_b only I_phi is integrated, and J_r, J_z and b_err are None.

    Returns (I_phi, J_r, J_z, a_err, b_err, evaluations, converged).
    """
    zeros = _azimuth_zeros((r - a) * (r - a) + z * z, a * r)
    edges = _graded_edges(0.0, math.pi, zeros, 0.5 * math.pi, max_sub)
    panel, bound = _loop_panel(r, z, a, zeros, want_b)
    vals, errs, n, ok = _gauss_panels(panel, bound, edges, 0.5 * abs_tol,
                                      rel_tol, max_sub)
    if not want_b:
        return 2.0 * vals[0], None, None, 2.0 * errs[0], None, n, ok
    return (2.0 * vals[0], 2.0 * vals[1], 2.0 * vals[2], 2.0 * errs[0],
            2.0 * (errs[1] + errs[2]), n, ok)


def _azimuth_zeros(c0: float, ar: float):
    """The zeros (sigma, tau) near [0, pi] of c0 + 4 a r sin^2(u / 2),
    at u = 2 pi k +- 2 i asinh(sqrt(c0 / (4 a r))); none where a r = 0,
    or where tau > FAR_ZERO."""
    if ar == 0.0:
        return []
    tau = 2.0 * math.asinh(math.sqrt(c0 / (4.0 * ar)))
    return [(0.0, tau), (2.0 * math.pi, tau)] if tau <= FAR_ZERO else []


def _loop_panel(r: float, z: float, a: float, zeros, want_b: bool):
    """(panel, bound) of cos(psi) / D and, with want_b, z cos(psi) / D^3
    and (a - r cos psi) / D^3: one sine and square root per node.

    With s = sin(psi / 2), cos psi = 1 - 2 s^2, D^2 = (r - a)^2 + z^2
    + 4 a r s^2 and a - r cos psi = (a - r) + 2 r s^2: D^2 adds like
    signs and a - r cos psi cancels by no more than D, so both keep
    their accuracy near the wire, where 1 / D^3 peaks.  A node's psi
    errs by an ulp or two of itself, which moves D by at most
    sqrt(a r) |dpsi| <= (pi / 2) D |dpsi / psi|, since D >=
    2 sqrt(a r) |s|: a few ulps of D, within ROUND_C."""
    d0 = (r - a) * (r - a) + z * z
    four_ar = 4.0 * a * r
    a_r, two_r = a - r, 2.0 * r
    abs_z, abs_ar = abs(z), abs(a - r)
    sin, sqrt = math.sin, math.sqrt

    def panel(lo: float, hi: float):
        half = 0.5 * (hi - lo)
        k0 = k1 = k2 = s1 = s3 = 0.0
        for y, wt in _GL_RULE:
            s2 = sin(0.5 * (lo + half * y)) ** 2
            cu = 1.0 - 2.0 * s2
            w = 1.0 / sqrt(d0 + four_ar * s2)
            ww = wt * w
            k0 += cu * ww
            s1 += ww
            if want_b:
                w3 = ww * w * w
                k1 += cu * w3
                k2 += (a_r + two_r * s2) * w3
                s3 += w3
        # rounding: ROUND_C ulps of the moduli, with |cos psi| <= 1 and
        # |1 - cos psi| <= hi^2 / 2
        ulps = half * ROUND_C * EPS
        if not want_b:
            return (k0 * half,), (ulps * s1,)
        q = min(2.0, 0.5 * hi * hi)
        return ((k0 * half, z * k1 * half, k2 * half),
                (ulps * s1, ulps * abs_z * s3, ulps * (abs_ar + r * q) * s3))

    def bound(lo: float, hi: float):
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        alpha, beta, factor = _bound_ellipse(lo, hi, zeros)
        low, m = _chord_floor(c, alpha, beta, d0, 0.5 * four_ar, 1.0, 0.0,
                              0.0, 0.0)
        if not low > 0.0:
            return (math.inf,) * (3 if want_b else 1)
        # on the ellipse |cos psi| <= cosh(beta), |1 - cos psi| <= q1
        inv = 1.0 / math.sqrt(low)
        cs = math.cosh(beta)
        if not want_b:
            return (factor * cs * inv,)
        q1 = 1.0 - m + 2.0 * math.sinh(0.5 * beta) ** 2
        inv3 = inv * inv * inv
        return (factor * cs * inv, factor * abs_z * cs * inv3,
                factor * (abs_ar + r * q1) * inv3)

    return panel, bound


def _helix_zeros(r: float, phi: float, z: float, a: float, p: float,
                 big_p: float, s0: float, s1: float):
    """Zeros (sigma, tau), tau > 0, of the helix's R^2(s) in the upper
    half plane, for the turns within two of [s0, s1]: one per turn, near
    where the wire passes the field point's azimuth, found by Newton's
    method from the loop's zero at that height.  On the axis R^2 =
    a^2 + (z - p s)^2 has the one zero (z + i a) / p.  A zero more than
    FAR_ZERO / P off the real line is left out: every panel is at most
    half a turn, pi / P, long, so its Bernstein parameter there would
    exceed RHO_CAP."""
    if a * r == 0.0:
        return [(z / p, a / p)] if big_p * a / p <= FAR_ZERO else []
    ra2, two_ar = (r - a) * (r - a), 2.0 * a * r
    zeros = []
    for k in range(math.floor((big_p * s0 - phi) / _TWO_PI) - 2,
                   math.ceil((big_p * s1 - phi) / _TWO_PI) + 3):
        sigma = (phi + _TWO_PI * k) / big_p
        dz = z - p * sigma
        tau = 2.0 * math.asinh(math.sqrt((ra2 + dz * dz) / (2.0 * two_ar)))
        if not tau <= FAR_ZERO:
            continue
        s = complex(sigma, tau / big_p)
        for _ in range(30):
            u = big_p * s - phi
            dz = z - p * s
            slope = two_ar * big_p * cmath.sin(u) - 2.0 * p * dz
            if slope == 0.0:
                break
            sin_half = cmath.sin(0.5 * u)
            step = (ra2 + 2.0 * two_ar * sin_half * sin_half + dz * dz) / slope
            s -= step
            if (not big_p * abs(s.imag) <= FAR_ZERO
                    or abs(step) <= 1e-6 * abs(s.imag)):
                break
        if 0.0 < big_p * abs(s.imag) <= FAR_ZERO and math.isfinite(s.real):
            zeros.append((s.real, abs(s.imag)))
    return zeros


def _helix_panel(r: float, phi: float, z: float, a: float, p: float,
                 big_p: float, zeros, want_b: bool):
    """(panel, bound) of the helix integrands of helix_integrals: one
    cosine, sine and square root per node.

    With c = 1 - cos u, taken as sin(u)^2 / (1 + cos u) where cos u > 0,
    R^2 = (r - a)^2 + 2 a r c + dz^2 adds like signs, and a - r cos u =
    (a - r) + r c and r - a cos u = (r - a) + a c cancel by no more than
    R, so all keep their accuracy near the wire, where 1 / R^3 peaks.

    Each node is placed from its panel's start lo, where u and dz are
    formed once with compensated products and u is reduced by a whole
    number of turns (_chart_start): a node's u and dz then err by a few
    ulps of their size on the panel, not of P s, which near the wire
    would move 1 / R^3 by eps |P s| / R of itself.  Errors du in u and
    dv in dz move R^2 by at most 2 R (sqrt(a r) du + dv), since
    |sin u| <= R / sqrt(a r) and |dz| <= R: the rounding bound takes
    that shift with the moduli the nodes give."""
    ra2 = (r - a) * (r - a)
    two_ar = 2.0 * a * r
    a_r = a - r
    ap, aq = a * big_p, a * p
    root_ar = math.sqrt(a * r)
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

    def panel(lo: float, hi: float):
        u0, dz0 = _chart_start(lo, big_p, phi, z, p)
        half = 0.5 * (hi - lo)
        k0 = k1 = k2 = k3 = k4 = k5 = s2 = s3 = s4 = 0.0
        for y, wt in _GL_RULE:
            t = half * y
            u = u0 + big_p * t
            cu = cos(u)
            su = sin(u)
            dz = dz0 - p * t
            c = su * su / (1.0 + cu) if cu > 0.0 else 1.0 - cu
            w = 1.0 / sqrt(ra2 + two_ar * c + dz * dz)
            ww = wt * w
            k0 += su * ww
            k1 += cu * ww
            k2 += ww
            s2 += ww * w
            if want_b:
                w3 = ww * w * w
                k3 += (ap * cu * dz + aq * su) * w3
                k4 += (p * (a * c - a_r) + ap * su * dz) * w3
                k5 += (a_r + r * c) * w3
                s3 += w3
                s4 += w3 * w
        # rounding: on the panel |u| <= big_u, so |sin u| <= sn and
        # |1 - cos u| <= q, and |dz| <= big_z; e1 and e3 bound the
        # rounding of 1 / R and 1 / R^3 summed over the nodes
        big_u = max(abs(u0), abs(u0 + 2.0 * big_p * half))
        big_z = max(abs(dz0), abs(dz0 - 2.0 * p * half))
        sn = min(1.0, big_u)
        du = 2.0 * EPS * (abs(u0) + 3.0 * big_p * half + 1.0)
        dv = 2.0 * EPS * (abs(dz0) + 3.0 * p * half)
        shift = root_ar * du + dv
        e1 = ROUND_C * EPS * k2 + shift * s2
        values = (k0 * half, k1 * half, k2 * half)
        rounding = (half * (sn * e1 + du * k2), half * (e1 + du * sn * k2),
                    half * e1)
        if not want_b:
            return values, rounding
        q = min(2.0, 0.5 * big_u * big_u)
        e3 = ROUND_C * EPS * s3 + 3.0 * shift * s4
        return (values + (k3 * half, k4 * half, ap * k5 * half),
                rounding + (
                    half * ((ap * big_z + aq * sn) * e3
                            + (du * (ap * sn * big_z + aq) + dv * ap) * s3),
                    half * ((p * (abs(a_r) + a * q) + ap * sn * big_z) * e3
                            + (du * (aq * sn + ap * big_z)
                               + dv * ap * sn) * s3),
                    half * (ap * (abs(a_r) + r * q) * e3
                            + du * ap * r * sn * s3)))

    def bound(lo: float, hi: float):
        c = 0.5 * (lo + hi)
        alpha, beta, factor = _bound_ellipse(lo, hi, zeros)
        low, m = _chord_floor(c, alpha, beta, ra2, two_ar, big_p, phi, z, p)
        if not low > 0.0:
            return (math.inf,) * (6 if want_b else 3)
        # on the ellipse |cos u| <= cs, |sin u| <= sn, |1 - cos u| <= q1
        # and |dz| <= dzb
        sh = math.sinh(big_p * beta)
        cs = math.sqrt(1.0 + sh * sh)
        sn = math.sqrt(1.0 - m * m + sh * sh) if m > 0.0 else cs
        inv = factor / math.sqrt(low)
        trunc = (sn * inv, cs * inv, inv)
        if not want_b:
            return trunc
        q1 = 1.0 - m + 2.0 * math.sinh(0.5 * big_p * beta) ** 2
        dzb = math.hypot(max(abs(z - p * (c - alpha)),
                             abs(z - p * (c + alpha))), p * beta)
        inv3 = inv / low
        return trunc + ((ap * cs * dzb + aq * sn) * inv3,
                        (p * (abs(a_r) + a * q1) + ap * sn * dzb) * inv3,
                        ap * (abs(a_r) + r * q1) * inv3)

    return panel, bound


# 2 pi less its double
_TWO_PI_LO = 2.4492935982947064e-16


def _chart_start(s: float, big_p: float, phi: float, z: float, p: float):
    """(u, dz) at s: u = P s - phi less the nearest whole number of turns
    and dz = z - p s, each within an ulp or two of its own size."""
    ps, ps_err = two_product(big_p, s)
    k = float(round((ps - phi) / _TWO_PI))
    turns, turns_err = two_product(k, _TWO_PI)
    u, u_err = two_sum(ps, -turns)
    u, phi_err = two_sum(u, -phi)
    u += u_err + phi_err + ps_err - turns_err - k * _TWO_PI_LO
    zs, zs_err = two_product(p, s)
    dz, dz_err = two_sum(z, -zs)
    return u, dz + (dz_err - zs_err)


def helix_integrals(r: float, phi: float, z: float, a: float, p: float,
                    P: float, s0: float, s1: float, abs_tol: float,
                    rel_tol: float, max_sub: int, want_b: bool = True):
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
    tangent, so no limit is taken on the axis r = 0.  All six share the
    Gauss-Legendre panels of _gauss_panels, graded by the zeros of R^2
    (_helix_zeros) and no longer than half a turn; each meets the
    tolerance on its own.  a_err bounds the sum of the errors of the I,
    b_err that of the J, evaluations counts the nodes.  Without want_b
    only the I are integrated, and the J and b_err are None.

    Returns (I_sin, I_cos, I_one, J_r, J_phi, J_z, a_err, b_err,
    evaluations, converged).
    """
    zeros = _helix_zeros(r, phi, z, a, p, P, s0, s1)
    edges = _graded_edges(s0, s1, zeros, 0.5 * math.pi / P, max_sub)
    panel, bound = _helix_panel(r, phi, z, a, p, P, zeros, want_b)
    vals, errs, n, ok = _gauss_panels(panel, bound, edges, abs_tol, rel_tol,
                                      max_sub)
    a_err = errs[0] + errs[1] + errs[2]
    if not want_b:
        return (*vals, None, None, None, a_err, None, n, ok)
    return (*vals, a_err, errs[3] + errs[4] + errs[5], n, ok)


def _sheet_panel(r: float, z: float, a: float, L0: float, zeros,
                 want_b: bool):
    """(panel, bound) of the sheet integrands of solenoid_integrals: one
    sine, three square roots and an asinh pair per node.

    With s = sin(u / 2), cos u = 1 - 2 s^2 and c1 = (r - a)^2 + 4 a r s^2,
    which adds like signs, so it is not 0 at any node off the sheet, even
    at r = a just beyond an end, where the chord to u = 0 is tiny;
    r - a cos u = (r - a) + 2 a s^2 and a - r cos u = (a - r) + 2 r s^2
    cancel by no more than sqrt(c1).

    The bound writes F, G and H as the axial integrals over t in
    [z - L0, z] of (c1 + t^2)^(-1/2), (c1 + t^2)^(-3/2) and
    t (c1 + t^2)^(-3/2), so that on the ellipse
    |c1 + t^2| >= max(L, t^2 - C1): L is the chord floor at the least
    |t| (it grows with t^2) and C1 bounds |c1|.  _axial_bounds integrates
    those floors in closed form.

    Rounding: a node's u errs by an ulp or two of itself, and sqrt(c1)
    >= 2 sqrt(a r) u / pi on [0, pi], so F, G and H move by at most
    pi, 3 pi and 6 pi ulps of F, G and 2 / sqrt(c1), which ROUND_C
    covers; the asinh pair, which cancels beyond the ends, errs by a few
    ulps of its larger term, largest at the first node, where c1 is
    least."""
    a_r = a - r
    ra2 = a_r * a_r
    four_ar = 4.0 * a * r
    z1 = z - L0
    zz, z1z1 = z * z, z1 * z1
    span = L0 * (2.0 * z - L0)      # z^2 - z1^2
    outside = z <= 0.0 or z1 >= 0.0
    t_min = min(abs(z), abs(z1)) if outside else 0.0
    ends = max(abs(z), abs(z1))
    sin, sqrt, asinh = math.sin, math.sqrt, math.asinh

    def panel(lo: float, hi: float):
        half = 0.5 * (hi - lo)
        k0 = k1 = k2 = k3 = k4 = s_g = s_h = s_r = 0.0
        for y, wt in _GL_RULE:
            s2 = sin(0.5 * (lo + half * y)) ** 2
            cu = 1.0 - 2.0 * s2
            c1 = ra2 + four_ar * s2
            root = sqrt(c1)
            f = wt * (asinh(z / root) - asinh(z1 / root))
            k0 += f * cu
            k1 += f
            if want_b:
                ra = sqrt(c1 + zz)
                rb = sqrt(c1 + z1z1)
                ab = ra * rb
                g = wt * (span / (ab * (z * rb + z1 * ra)) if outside
                          else (z / ra - z1 / rb) / c1)
                hh = wt * span / (ab * (ra + rb))
                k2 += hh * cu
                k3 += (2.0 * a * s2 - a_r) * g
                k4 += (a_r + 2.0 * r * s2) * g
                s_g += g
                s_h += abs(hh)
                s_r += wt / root
        first = math.sin(0.5 * (lo + half * _GL_RULE[0][0]))
        pair = 8.0 * EPS * (1.0 + math.asinh(
            ends / math.sqrt(ra2 + four_ar * first * first)))
        e_f = half * (ROUND_C * EPS * k1 + pair)
        values = (k0 * half, k1 * half)
        if not want_b:
            return values, (e_f, e_f)
        q = min(2.0, 0.5 * hi * hi)
        ulps = half * ROUND_C * EPS
        return (values + (k2 * half, k3 * half, k4 * half),
                (e_f, e_f, ulps * (s_h + s_r),
                 ulps * (abs(a_r) + a * q) * s_g,
                 ulps * (abs(a_r) + r * q) * s_g))

    def bound(lo: float, hi: float):
        c = 0.5 * (lo + hi)
        alpha, beta, factor = _bound_ellipse(lo, hi, zeros)
        low, m = _chord_floor(c, alpha, beta, ra2 + t_min * t_min,
                              0.5 * four_ar, 1.0, 0.0, 0.0, 0.0)
        if not low > 0.0:
            return (math.inf,) * (5 if want_b else 2)
        # on the ellipse |cos u| <= cs and |1 - cos u| <= q1
        cs = math.cosh(beta)
        q1 = 1.0 - m + 2.0 * math.sinh(0.5 * beta) ** 2
        f_b, g_b, h_b = _axial_bounds(z1, z, low, ra2 + 0.5 * four_ar * q1)
        trunc = (factor * f_b * cs, factor * f_b)
        if not want_b:
            return trunc
        return trunc + (factor * h_b * cs,
                        factor * (abs(a_r) + a * q1) * g_b,
                        factor * (abs(a_r) + r * q1) * g_b)

    return panel, bound


def _axial_bounds(t0: float, t1: float, low: float, big_c: float):
    """Bounds of Int |lam|^(-1/2) dt, Int |lam|^(-3/2) dt and
    Int |t| |lam|^(-3/2) dt over [t0, t1], for |lam(t)| >=
    max(low, t^2 - big_c), low > 0 and big_c >= 0.

    The floor is low for |t| <= T = sqrt(big_c + low) and t^2 - big_c
    beyond, where with q = sqrt(t^2 - big_c) the primitives are
    log(t + q), -1 / (q (t + q)) and -1 / q."""
    edge = math.sqrt(big_c + low)
    root = math.sqrt(low)

    def upto(x: float):
        # the three integrals over [0, x], x >= 0
        inner = min(x, edge)
        f = inner / root
        g = inner / (low * root)
        hh = 0.5 * inner * g
        if x > edge:
            q = math.sqrt(x * x - big_c)
            f += math.log((x + q) / (edge + root))
            g += 1.0 / (root * (edge + root)) - 1.0 / (q * (x + q))
            hh += 1.0 / root - 1.0 / q
        return f, g, hh

    if t0 < 0.0 < t1:
        return tuple(u + v for u, v in zip(upto(-t0), upto(t1)))
    near, far = sorted((abs(t0), abs(t1)))
    return tuple(v - u for u, v in zip(upto(near), upto(far)))


def solenoid_integrals(r: float, z: float, a: float, L0: float,
                       abs_tol: float, rel_tol: float, max_sub: int,
                       want_b: bool = True):
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
    All five are even, so they are integrated on [0, pi] on shared
    Gauss-Legendre panels (_gauss_panels) and doubled; each meets the
    tolerance on its own.  The integrands are singular where c1 + t^2 = 0
    for some t in [z - L0, z], nearest at u = 2 pi k +- i tau with
    tau = 2 asinh(sqrt((r - a)^2 + t^2) / (2 sqrt(a r))) at the least
    |t|: t = 0 between the ends, where c1 = 0 itself, and the nearer end
    beyond them.  Those zeros grade the panels.  a_err bounds the sum of
    the errors of the I, b_err that of the J.  Without want_b only the I
    are integrated, and the J and b_err are None.

    Returns (I_cos, I_one, J_r, J_phi, J_z, a_err, b_err, evaluations,
    converged).
    """
    z1 = z - L0
    t_min = min(abs(z), abs(z1)) if z <= 0.0 or z1 >= 0.0 else 0.0
    zeros = _azimuth_zeros((r - a) * (r - a) + t_min * t_min, a * r)
    edges = _graded_edges(0.0, math.pi, zeros, 0.5 * math.pi, max_sub)
    panel, bound = _sheet_panel(r, z, a, L0, zeros, want_b)
    vals, errs, n, ok = _gauss_panels(panel, bound, edges, 0.5 * abs_tol,
                                      rel_tol, max_sub)
    a_err = 2.0 * (errs[0] + errs[1])
    if not want_b:
        return 2.0 * vals[0], 2.0 * vals[1], None, None, None, a_err, None, \
            n, ok
    return (2.0 * vals[0], 2.0 * vals[1], 2.0 * vals[2], 2.0 * vals[3],
            2.0 * vals[4], a_err, 2.0 * (errs[2] + errs[3] + errs[4]), n, ok)
