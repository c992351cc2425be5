"""geometry: distances that the proximity guards rely on."""

import random

import pytest

from emsingular.geometry import Point3, Vec3, segment_distance


def vec3_segment_distance(y, p0, p1):
    """segment_distance as Vec3 expressions, the form it replaced."""
    d = p1 - p0
    L2 = d.dot(d)
    if L2 == 0.0:
        return (y - p0).norm()
    u = max(0.0, min(1.0, (y - p0).dot(d) / L2))
    return (y - (p0 + u * d)).norm()


def test_segment_distance_matches_vec3_form_bit_for_bit():
    # the float-only form keeps the same operations in the same order,
    # so every guard decision is unchanged
    rng = random.Random(7)

    def point(scale):
        return Point3(*(rng.uniform(-scale, scale) for _ in range(3)))

    for i in range(20000):
        scale = 10.0 ** rng.randint(-6, 3)
        p0 = point(scale)
        p1 = p0 if i % 10 == 0 else point(scale)
        y = point(scale * rng.choice((0.01, 1.0, 100.0)))
        assert segment_distance(y, p0, p1) == vec3_segment_distance(y, p0, p1)


def test_norm_of_far_points_is_finite():
    # the sum of squares overflows above ~1.3e154; the norm must not
    assert Point3(1e308, 0.0, 0.5).norm() == 1e308
    assert Vec3(3e200, -4e200, 0.0).norm() == pytest.approx(5e200,
                                                            rel=1e-15)
    assert Point3(3.0, -4.0, 12.0).norm() == 13.0
