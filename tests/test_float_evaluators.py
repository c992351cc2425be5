"""Dipoles and the plate wire in floats, bit for bit, and the point
charge's refusals.

The evaluators run at every stencil point of a timed row, so they are
written out in floats rather than Point3/Vec3 expressions.  The dipole
and the plate wire's floor keep the operations of the form they
replaced in the same order; the copies below are that form, and every
result, diagnostic and refusal must match them exactly.
"""

import math
import random

from emsingular import kernels
from emsingular.errors import EmsingularError, OnSupportError
from emsingular.fields import electro, retarded
from emsingular.fields.base import PotentialResult
from emsingular.fields.medium import VACUUM, MediumConstants
from emsingular.geometry import Point3, Vec3
from emsingular.sources import DipoleSource, PointSource


def vec3_dipole_potential(dip, y, medium=VACUUM):
    sep = y - dip.location
    d = sep.norm()
    kernels.free_kernel(y, dip.location)
    m = dip.moment
    num = m.dot(sep)
    den = 4.0 * math.pi * medium.eps * d ** 3
    size = abs(m.x * sep.x) + abs(m.y * sep.y) + abs(m.z * sep.z)
    err = electro.EPS * (2.5 * size + 8.5 * abs(num)) / den
    return PotentialResult(y, Vec3(0.0, 0.0, 0.0), phi=num / den, error=err,
                           converged=True)


def vec3_plate_wire_floor(z0, y):
    """Whether plate_wire_potential refuses y as on the wire."""
    return (math.hypot(y.x, y.z - z0)
            < kernels.coincident_floor(y, Point3(0.0, 0.0, z0)))


def outcome(fn, *args):
    """Every bit of a result, or the type and message of its refusal."""
    try:
        res = fn(*args)
    except (EmsingularError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    d = res.diagnostics
    values = [res.phi, *res.a.as_tuple(), res.error]
    for key in sorted(d):
        val = d[key]
        values += val.as_tuple() if isinstance(val, Vec3) else [val]
    return (res.point, res.converged, sorted(d),
            [float.hex(float(x)) for x in values])


def point(rng, scale):
    return Point3(*(rng.uniform(-scale, scale) for _ in range(3)))


def direction(rng):
    while True:
        u = point(rng, 1.0)
        if 0.01 < u.norm() <= 1.0:
            return Vec3(u.x, u.y, u.z) / u.norm()


MEDIA = (VACUUM, MediumConstants.from_eps_mu(2.25 * VACUUM.eps, VACUUM.mu))


def test_emission_point_and_floor_refusals_keep_their_messages():
    src = PointSource(1e-9, Point3(0.7, 0.0, 0.0), Vec3(0.0, 0.0, 0.0))
    exact = outcome(retarded.lienard_wiechert, src, Point3(0.7, 0.0, 0.0), 0.0)
    assert exact == ("CoincidentPointsError",
                     "field point coincides with the emission point")
    near = Point3(0.7 + 1e-13, 0.0, 0.0)
    assert outcome(retarded.lienard_wiechert, src, near, 0.0) == (
        "CoincidentPointsError",
        str(kernels.coincident(near, Point3(0.7, 0.0, 0.0))))
    assert outcome(retarded.lienard_wiechert, src, near, 0.0)[1].startswith(
        "field and source points coincide within the floor")


def test_dipoles_match_vec3_form_bit_for_bit():
    rng = random.Random(31)
    seen = set()
    for i in range(20000):
        scale = 10.0 ** rng.uniform(-3.0, 8.5)
        at = point(rng, scale)
        dip = DipoleSource(at, 10.0 ** rng.uniform(-15, -9) * direction(rng))
        if i % 10 == 0:
            y = at
        elif i % 10 == 1:
            y = at + 1e-13 * (1.0 + at.norm()) * direction(rng)
        else:
            y = at + 10.0 ** rng.uniform(-3.0, 2.0) * direction(rng)
        medium = MEDIA[i % 7 == 0]
        got = outcome(electro.dipole_potential, dip, y, medium)
        assert got == outcome(vec3_dipole_potential, dip, y, medium), (i, y)
        seen.add(got[0] if isinstance(got[0], str) else "ok")
    assert seen == {"ok", "CoincidentPointsError"}


def test_plate_wire_floor_matches_point3_form():
    rng = random.Random(5)
    refused = 0
    for i in range(20000):
        gap = 10.0 ** rng.uniform(-3.0, 3.0)
        z0 = gap * (10.0 ** rng.uniform(-200.0, 0.0) if i % 5 == 0
                    else rng.uniform(0.0, 1.0))
        if not 0.0 < z0 < gap:
            continue
        off = gap * 10.0 ** rng.uniform(-16.0, 1.0)
        y = Point3(off * rng.uniform(-1.0, 1.0),
                   rng.uniform(-10.0, 10.0) * gap,
                   min(gap, max(0.0, z0 + off * rng.uniform(-1.0, 1.0))))
        if y.z in (0.0, gap):
            continue        # on a plate phi is 0 before any floor
        try:
            electro.plate_wire_potential(z0, 1e-9, gap, y)
        except OnSupportError:
            on_wire = True
        else:
            on_wire = False
        assert on_wire == vec3_plate_wire_floor(z0, y), (z0, gap, y)
        refused += on_wire
    assert refused > 100

