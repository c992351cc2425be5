"""Deterministic quadrature and summation engines.

Four entry points cover everything the field evaluators need:

* integrate_adaptive  - adaptive bisection driven by an embedded
  Gauss-Kronrod 7/15 pair, with optional endpoint-singularity exclusion
  and Richardson extrapolation;
* integrate_periodic  - trapezoid rule for smooth periodic integrands,
  error from an n vs 2n comparison;
* integrate_2d        - iterated adaptive quadrature on a chart rectangle;
* sum_series          - partial sums with a consecutive-small-terms stop.

Everything is deterministic: identical inputs give bit-identical results.
Error estimates are deliberately conservative (the raw Kronrod-Gauss
difference per panel), and results carry them alongside a converged flag;
non-convergence is never silent but never an exception either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from ._core._ref import _adaptive


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and limits shared by all engines.

    singularity_exclusion is the initial half-width epsilon cut out
    around declared singular endpoints before extrapolation.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000
    singularity_exclusion: float = 1e-6

    def tolerance(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            self.value + other.value,
            self.error_estimate + other.error_estimate,
            self.evaluations + other.evaluations,
            self.converged and other.converged,
        )


DEFAULT = QuadConfig()


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadConfig = DEFAULT,
    singularities: Sequence[float] = (),
) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    f must be finite on the open interval except at the declared
    singular parameter values (interval endpoints or interior points),
    which are excluded by cfg.singularity_exclusion and handled by
    Richardson extrapolation of a shrinking-exclusion sequence.

    Orientation follows the endpoints: a > b integrates with a sign.
    A zero-length interval returns 0, converged, with no evaluations.
    """
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)
    if b < a:
        r = integrate_adaptive(f, b, a, cfg, singularities)
        return replace(r, value=-r.value)

    sing = sorted(s for s in singularities if a <= s <= b)
    if not sing:
        return _adaptive_core(f, a, b, cfg)

    # Split so every singular point becomes an interval endpoint.
    cuts = [a] + sing + [b]
    total = QuadResult(0.0, 0.0, 0, True)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo == hi:
            continue
        sub = _excluded_endpoints(f, lo, hi, lo in sing, hi in sing, cfg)
        total = total + sub
    return total


def _adaptive_core(f, a, b, cfg: QuadConfig) -> QuadResult:
    value, err, evals, ok = _adaptive(f, a, b, cfg.abs_tol, cfg.rel_tol,
                                      cfg.max_subdivisions)
    return QuadResult(value, err, evals, bool(ok))


def _floored(err: float, value: float) -> float:
    # Rounding noise floor: keep the estimate honest when panels agree
    # to machine precision.
    return max(err, 1e-15 * abs(value))


def _excluded_endpoints(f, a, b, sing_a: bool, sing_b: bool,
                        cfg: QuadConfig) -> QuadResult:
    """Integrate with epsilon-exclusion at singular endpoints.

    Evaluates the partial integrals with exclusion eps, eps/2, eps/4, ...
    (new slivers are added incrementally) and Richardson-extrapolates the
    sequence, assuming a power-law approach I(eps) = I - C eps^q with q
    estimated from the last three values.

    Convergence is judged on the stability of successive extrapolants,
    not on the size of the applied correction.  The correction scales
    like the excluded tail itself (slowly, for weak singularities), while
    the extrapolant settles orders of magnitude sooner; demanding a tiny
    correction would grind eps down to the spacing of floats around the
    endpoint, where slivers quantize to zero width and the estimate turns
    into a lie.  Tail families that break the power-law model (e.g.
    oscillatory in ln eps) keep the extrapolants visibly moving, so the
    stability gap stays an honest error bound for them too.
    """
    width = b - a
    eps = min(cfg.singularity_exclusion, 0.125 * width)
    lo = a + (eps if sing_a else 0.0)
    hi = b - (eps if sing_b else 0.0)
    # sub-integrals get a tenth of the budget so their accumulated
    # estimates leave room under the overall exit threshold
    sub = replace(cfg, abs_tol=0.1 * cfg.abs_tol, rel_tol=0.1 * cfg.rel_tol)
    core = _adaptive_core(f, lo, hi, sub)
    totals = [core.value]
    extraps: list[float] = []
    running = core
    err = running.error_estimate
    extrap = core.value
    max_levels = 40
    for _ in range(max_levels):
        eps_next = 0.5 * eps
        lo_a, hi_a = a + eps_next, a + eps
        lo_b, hi_b = b - eps, b - eps_next
        if (sing_a and lo_a >= hi_a) or (sing_b and lo_b >= hi_b):
            # eps reached the float spacing at the endpoint; halving
            # further only re-integrates zero-width slivers
            break
        sliver = QuadResult(0.0, 0.0, 0, True)
        if sing_a:
            sliver = sliver + _adaptive_core(f, lo_a, hi_a, sub)
        if sing_b:
            sliver = sliver + _adaptive_core(f, lo_b, hi_b, sub)
        eps = eps_next
        running = running + sliver
        totals.append(running.value)
        if len(totals) < 3:
            continue
        extrap, _corr = _richardson(totals[-3], totals[-2], totals[-1])
        extraps.append(extrap)
        if len(extraps) < 3:
            continue
        # two consecutive stability gaps: one alone can dip near an
        # extremum of a non-power-law tail and understate the error
        gap = max(abs(extraps[-1] - extraps[-2]),
                  abs(extraps[-2] - extraps[-3]))
        err = gap + running.error_estimate
        # converge on a quarter of the tolerance so restarting from
        # eps/2 lands within rel_tol of this answer
        if err <= 0.25 * cfg.tolerance(extrap):
            return QuadResult(extrap, _floored(err, extrap),
                              running.evaluations, True)
    return QuadResult(extrap, _floored(err, extrap),
                      running.evaluations, False)


def _richardson(i0: float, i1: float, i2: float) -> tuple[float, float]:
    """Extrapolate a power-law sequence; returns (limit, last correction)."""
    d1 = i1 - i0
    d2 = i2 - i1
    if d2 == 0.0:
        return i2, 0.0
    if d1 == 0.0 or d1 == d2:
        return i2, d2
    ratio = d2 / d1
    if not (0.0 < ratio < 1.0):
        # not settling geometrically; fall back to the raw value
        return i2, d2
    corr = d2 * ratio / (1.0 - ratio)
    return i2 + corr, corr


def integrate_periodic(
    f: Callable[[float], float],
    period: float,
    n_points: int = 32,
    cfg: QuadConfig = DEFAULT,
) -> QuadResult:
    """Trapezoid rule over one period, spectrally accurate for smooth f.

    Uses n and 2n uniform samples; the value is the 2n result and the
    error estimate their difference (a gross overestimate once the rule
    is in its geometric-convergence regime, which is the honest side).
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    n2 = 2 * n_points
    h = period / n2
    coarse = 0.0
    full = 0.0
    for k in range(n2):
        v = f(k * h)
        full += v
        if k % 2 == 0:
            coarse += v
    t_n = coarse * period / n_points
    t_2n = full * period / n2
    err = _floored(abs(t_2n - t_n), t_2n)
    return QuadResult(t_2n, err, n2, err <= cfg.tolerance(t_2n))


def integrate_2d(
    f: Callable[[float, float], float],
    rect: tuple[tuple[float, float], tuple[float, float]],
    cfg: QuadConfig = DEFAULT,
) -> QuadResult:
    """Iterated adaptive quadrature of f(u, v) over rect = ((u0,u1),(v0,v1)).

    The inner integral runs at a tolerance shrunk by the outer width so
    inner errors cannot dominate; the reported estimate combines the
    outer estimate with the worst inner estimate times the outer measure.
    """
    (u0, u1), (v0, v1) = rect
    width = abs(u1 - u0)
    inner_cfg = replace(
        cfg,
        abs_tol=cfg.abs_tol / max(width, 1.0),
        rel_tol=cfg.rel_tol * 0.1,
    )
    state = {"err": 0.0, "evals": 0, "converged": True}

    def outer_integrand(u: float) -> float:
        inner = _adaptive_core(lambda v: f(u, v), v0, v1, inner_cfg)
        state["err"] = max(state["err"], inner.error_estimate)
        state["evals"] += inner.evaluations
        state["converged"] = state["converged"] and inner.converged
        return inner.value

    outer = _adaptive_core(outer_integrand, u0, u1, cfg)
    err = outer.error_estimate + state["err"] * width
    value = outer.value
    return QuadResult(
        value,
        _floored(err, value),
        state["evals"],
        outer.converged and state["converged"] and err <= cfg.tolerance(value),
    )


def sum_series(
    term: Callable[[int], float],
    cfg: QuadConfig = DEFAULT,
    start: int = 1,
    max_terms: int = 100000,
    consecutive: int = 3,
) -> QuadResult:
    """Sum term(n) for n = start, start+1, ... until `consecutive` terms in
    a row fall below tolerance/consecutive, or max_terms is reached.

    Intended for series whose term magnitudes eventually decrease
    monotonically.  Terms with exact-zero runs (sine factors at rational
    multiples of the period) can fool the stop rule; callers in that
    situation should raise `consecutive`.
    """
    total = 0.0
    small_run = 0
    tail = []
    n = start
    count = 0
    while count < max_terms:
        t = term(n)
        total += t
        tail.append(abs(t))
        if len(tail) > consecutive:
            tail.pop(0)
        threshold = cfg.tolerance(total) / consecutive
        if abs(t) < threshold:
            small_run += 1
            if small_run >= consecutive:
                return QuadResult(total, math.fsum(tail), count + 1, True)
        else:
            small_run = 0
        n += 1
        count += 1
    return QuadResult(total, math.fsum(tail), count, False)
