"""Deterministic quadrature and summation engines for integrands that
come as Python callables.

Two entry points:

* integrate_adaptive  - adaptive bisection driven by an embedded
  Gauss-Kronrod 7/15 pair, on _core._ref._adaptive: generic
  curves, circulations and selfcheck.  The loop, helix and sheet do not
  come here: their chart quadratures in _core run on Gauss-Legendre
  panels placed from the zeros of their squared distance, with an
  a-priori error bound;
* sum_series          - partial sums with a consecutive-small-terms stop.

Everything is deterministic: identical inputs give bit-identical results.
Error estimates are deliberately conservative (the raw Kronrod-Gauss
difference per panel), and results carry them alongside a converged flag;
non-convergence is never silent but never an exception either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from ._core._ref import _adaptive


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and the panel limit of the adaptive driver.

    The driver stops, converged, once its summed error is within
    max(abs_tol, rel_tol |value|), or, unconverged, once it holds
    max_subdivisions panels.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def tolerance(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


DEFAULT = QuadConfig()


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    cfg: QuadConfig = DEFAULT,
) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    f should be finite on [a, b]: no singularity is cut out or
    extrapolated, so one at an endpoint belongs in a change of variable
    that removes it.

    Orientation follows the endpoints: a > b integrates with a sign.
    A zero-length interval returns 0, converged, with no evaluations.
    """
    if a == b:
        return QuadResult(0.0, 0.0, 0, True)
    if b < a:
        r = integrate_adaptive(f, b, a, cfg)
        return replace(r, value=-r.value)
    value, err, evals, ok = _adaptive(f, a, b, cfg.abs_tol, cfg.rel_tol,
                                      cfg.max_subdivisions)
    return QuadResult(value, err, evals, bool(ok))


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
