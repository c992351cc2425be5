"""geometry: distances that the proximity guards rely on."""

import math
import random

import pytest

from emsingular.errors import InvalidGeometryError, OnSupportError
from emsingular.fields import magneto
from emsingular.geometry import Point3, Vec3
from emsingular.sources import polyline


def foot_point_distance(y, p0, p1):
    """Distance from y to the segment through its clamped foot point,
    the form the polyline guard used before it took its distance from
    the closed form's own terms."""
    d = p1 - p0
    u = max(0.0, min(1.0, (y - p0).dot(d) / d.dot(d)))
    return (y - (p0 + u * d)).norm()


def draw_triples():
    """20000 seeded (y, p0, p1) at scales 1e-6 to 1e3; every tenth
    segment has no length."""
    rng = random.Random(7)

    def point(scale):
        return Point3(*(rng.uniform(-scale, scale) for _ in range(3)))

    for i in range(20000):
        scale = 10.0 ** rng.randint(-6, 3)
        p0 = point(scale)
        p1 = p0 if i % 10 == 0 else point(scale)
        y = point(scale * rng.choice((0.01, 1.0, 100.0)))
        yield y, p0, p1


def guard_points(p0, p1, floor):
    """(label, point, refused) at 1 -+ 1e-6 times the floor from the
    segment's interior, from its end vertex p1 off the line, and from
    p1 along the line's extension."""
    d = p1 - p0
    u = d / d.norm()
    trial = Vec3(1.0, 0.0, 0.0) if abs(u.x) < 0.9 else Vec3(0.0, 1.0, 0.0)
    n = (trial - u.dot(trial) * u).normalized()
    off = (u + n).normalized()
    mid = p0 + 0.5 * d
    for factor, refused in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        r = factor * floor
        yield "interior", mid + r * n, refused
        yield "vertex", p1 + r * off, refused
        yield "extension", p1 + r * u, refused


def test_polyline_distance_agrees_with_the_foot_point_form():
    # a segment's distance, as _segment_geometry forms it for the guard,
    # the potential and the field map's derivative guard: between the
    # ends it is |u x (y - p)| from the nearer
    # end, beyond them R0 or R1: within 8 ulp of the larger of R0 and
    # R1 everywhere, and the same guard decision either way at points
    # 1e-6 of the floor inside or outside it
    for y, p0, p1 in draw_triples():
        if p0 == p1:
            # a chain never holds a segment without length
            with pytest.raises(InvalidGeometryError):
                polyline([p0, p1], 1.0)
            continue
        got = magneto._segment_geometry(y, p0, p1)[0]
        want = foot_point_distance(y, p0, p1)
        big = max((y - p0).norm(), (y - p1).norm())
        assert abs(got - want) <= 8.0 * math.ulp(big), (y, p0, p1)

        # the guard's floor for this chain
        floor = 1e-8 * max(1.0, *(abs(v) for pt in (p0, p1)
                                  for v in pt.as_tuple()))
        for label, point, refused in guard_points(p0, p1, floor):
            assert (foot_point_distance(point, p0, p1) < floor) == refused
            assert (magneto._segment_geometry(point, p0, p1)[0]
                    < floor) == refused, (label, point, p0, p1)


def test_polyline_guard_refuses_within_its_floor():
    # the floor above is the one curve_potential refuses at
    p0, p1 = Point3(-3.0, 0.5, 1.0), Point3(2.0, 4.0, -1.0)
    src = polyline([p0, p1], 1.0)
    for label, point, refused in guard_points(p0, p1, 1e-8 * 4.0):
        if refused:
            with pytest.raises(OnSupportError):
                magneto.curve_potential(src, point)
        else:
            assert magneto.curve_potential(src, point).converged, label


def test_norm_of_far_points_is_finite():
    # the sum of squares overflows above ~1.3e154; the norm must not
    assert Point3(1e308, 0.0, 0.5).norm() == 1e308
    assert Vec3(3e200, -4e200, 0.0).norm() == pytest.approx(5e200,
                                                            rel=1e-15)
    assert Point3(3.0, -4.0, 12.0).norm() == 13.0
