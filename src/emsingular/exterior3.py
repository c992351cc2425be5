"""Exterior calculus on Euclidean R^3 with numerical derivatives.

Differential forms of degree p are represented by their components on the
sorted coordinate basis (dx, dy, dz, dx^dy, ...), each component a callable
of (point, time).  The Hodge star and the degree involution are exact
component shuffles; only the exterior derivative is numerical (central
differences), and the codifferential is built from the three:

    delta a = # d # (eta a),      eta a = (-1)^p a

On R^3 the star satisfies # # = 1 on every degree, so delta reduces to
(-1)^p # d # on p-forms.  With this convention d delta + delta d equals
minus the componentwise Laplacian, e.g. delta(x dx + y dy + z dz) = -3.

Index convention: a component key is a strictly increasing tuple of axes,
() for scalars, (0,), (1,), (2,) for 1-forms, (0,1), (0,2), (1,2) for
2-forms and (0,1,2) for the volume part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import OnSupportError
from .geometry import Point3, Vec3  # noqa: F401  (re-exported domain types)

Component = Callable[[Point3, float], float]

AXES = (0, 1, 2)

#: Basis index tuples by degree.
BASIS = {
    0: ((),),
    1: ((0,), (1,), (2,)),
    2: ((0, 1), (0, 2), (1, 2)),
    3: ((0, 1, 2),),
}

#: Hodge star on the sorted basis: index -> (complement index, sign).
#: Signs chosen so dx^I ^ #dx^I = dx^dy^dz for every I (standard volume).
HODGE_TABLE: Mapping[tuple, tuple[tuple, int]] = {
    (): ((0, 1, 2), 1),
    (0,): ((1, 2), 1),
    (1,): ((0, 2), -1),
    (2,): ((0, 1), 1),
    (0, 1): ((2,), 1),
    (0, 2): ((1,), -1),
    (1, 2): ((0,), 1),
    (0, 1, 2): ((), 1),
}

#: The degree involution eta: a p-form picks up (-1)^p.
ETA_SIGN = {0: 1, 1: -1, 2: 1, 3: -1}


def default_step(point: Point3) -> float:
    """Default finite-difference step, scaled away from the origin."""
    return 1e-5 * max(1.0, point.norm())


@dataclass
class FormField:
    """A p-form field on R^3 with callable components.

    components maps each basis index tuple of the given degree to a
    callable (point, t) -> float.  Missing keys are identically zero.
    """

    degree: int
    components: dict = field(default_factory=dict)
    time_dependent: bool = False

    def __post_init__(self):
        if self.degree not in BASIS:
            raise ValueError("degree must be 0..3, got %r" % (self.degree,))
        for idx in self.components:
            if idx not in BASIS[self.degree]:
                raise ValueError(
                    "component index %r invalid for degree %d" % (idx, self.degree)
                )

    def component(self, idx: tuple) -> Component:
        return self.components.get(idx, _zero)

    def __call__(self, idx: tuple, point: Point3, t: float = 0.0) -> float:
        return self.component(idx)(point, t)

    @classmethod
    def scalar(cls, f: Callable[[Point3, float], float], time_dependent=False):
        return cls(0, {(): f}, time_dependent)

    @classmethod
    def one_form(cls, fx: Component, fy: Component, fz: Component,
                 time_dependent=False):
        return cls(1, {(0,): fx, (1,): fy, (2,): fz}, time_dependent)

    @classmethod
    def from_vector_field(cls, v: Callable[[Point3], Vec3]):
        """1-form metric-dual to an ambient vector field (static)."""
        return cls.one_form(
            lambda p, t: v(p).x,
            lambda p, t: v(p).y,
            lambda p, t: v(p).z,
        )


def _zero(point: Point3, t: float) -> float:
    return 0.0


def eta(a: FormField) -> FormField:
    """Degree involution: multiply a p-form by (-1)^p."""
    s = ETA_SIGN[a.degree]
    if s == 1:
        return a
    return FormField(
        a.degree,
        {idx: _scaled(f, -1.0) for idx, f in a.components.items()},
        a.time_dependent,
    )


def _scaled(f: Component, s: float) -> Component:
    return lambda point, t: s * f(point, t)


def hodge(a: FormField) -> FormField:
    """Hodge star; exact (a signed permutation of components)."""
    out: dict = {}
    for idx, f in a.components.items():
        cidx, sign = HODGE_TABLE[idx]
        out[cidx] = f if sign == 1 else _scaled(f, sign)
    return FormField(3 - a.degree, out, a.time_dependent)


def hodge_numeric(components: Mapping[tuple, float]) -> dict:
    """Hodge star applied to a dict of numeric components."""
    out: dict = {}
    for idx, v in components.items():
        cidx, sign = HODGE_TABLE[idx]
        out[cidx] = sign * v
    return out


def wedge(a: FormField, b: FormField) -> FormField:
    """Pointwise wedge product (components multiply with shuffle signs)."""
    deg = a.degree + b.degree
    if deg > 3:
        return FormField(0, {})  # everything above top degree vanishes
    out: dict = {}
    for ia, fa in a.components.items():
        for ib, fb in b.components.items():
            if set(ia) & set(ib):
                continue
            merged, sign = _merge_sorted(ia, ib)
            prev = out.get(merged)
            term = _product(fa, fb, sign)
            out[merged] = term if prev is None else _sum(prev, term)
    return FormField(deg, out, a.time_dependent or b.time_dependent)


def _merge_sorted(ia: tuple, ib: tuple) -> tuple[tuple, int]:
    seq = list(ia) + list(ib)
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    return tuple(seq), sign


def _product(fa: Component, fb: Component, sign: int) -> Component:
    return lambda point, t: sign * fa(point, t) * fb(point, t)


def _sum(fa: Component, fb: Component) -> Component:
    return lambda point, t: fa(point, t) + fb(point, t)


def _partial(f: Component, axis: int, point: Point3, t: float, h: float) -> float:
    hi = f(point.shifted(axis, +h), t)
    lo = f(point.shifted(axis, -h), t)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise OnSupportError(
            "component not finite within the difference stencil at %r" % (point,)
        )
    return (hi - lo) / (2.0 * h)


def d_numeric(a: FormField, point: Point3, t: float = 0.0,
              h: float | None = None) -> dict:
    """Exterior derivative of a at one point, by central differences.

    Returns a dict of (p+1)-form components (numbers, not callables).
    Step h defaults to 1e-5 * max(1, |point|).
    """
    if a.degree >= 3:
        return {}
    if h is None:
        h = default_step(point)
    out = {idx: 0.0 for idx in BASIS[a.degree + 1]}
    for idx, f in a.components.items():
        for axis in AXES:
            if axis in idx:
                continue
            merged, sign = _merge_sorted((axis,), idx)
            out[merged] += sign * _partial(f, axis, point, t, h)
    return out


def d_field(a: FormField, h: float | None = None) -> FormField:
    """Exterior derivative as a FormField (components re-evaluate d_numeric)."""
    if a.degree >= 3:
        return FormField(0, {})

    def comp(idx):
        return lambda point, t: d_numeric(a, point, t, h)[idx]

    return FormField(a.degree + 1,
                     {idx: comp(idx) for idx in BASIS[a.degree + 1]},
                     a.time_dependent)


def codifferential(a: FormField, point: Point3, t: float = 0.0,
                   h: float | None = None) -> dict:
    """delta a = # d # (eta a) at one point; components of a (p-1)-form.

    Exact Hodge shuffles around one numerical d.  A 0-form returns {}.
    """
    if a.degree == 0:
        return {}
    inner = hodge(eta(a))
    d_inner = d_numeric(inner, point, t, h)
    out = {}
    for idx, value in d_inner.items():
        cidx, sign = HODGE_TABLE[idx]
        out[cidx] = sign * value
    return out


def codifferential_field(a: FormField, h: float | None = None) -> FormField:
    if a.degree == 0:
        return FormField(0, {})

    def comp(idx):
        return lambda point, t: codifferential(a, point, t, h)[idx]

    return FormField(a.degree - 1,
                     {idx: comp(idx) for idx in BASIS[a.degree - 1]},
                     a.time_dependent)


def laplacian(a: FormField, point: Point3, t: float = 0.0,
              h: float | None = None) -> dict:
    """Hodge-de Rham operator (d delta + delta d) a at one point.

    Equals minus the componentwise flat Laplacian; used by invariance
    tests and the kernel harmonicity checks.
    """
    out = {idx: 0.0 for idx in BASIS[a.degree]}
    if a.degree > 0:
        dd = d_numeric(codifferential_field(a, h), point, t, h)
        for idx, v in dd.items():
            out[idx] += v
    if a.degree < 3:
        delta_d = codifferential(d_field(a, h), point, t, h)
        for idx, v in delta_d.items():
            out[idx] += v
    return out

