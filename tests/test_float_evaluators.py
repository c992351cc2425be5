"""Point charges, dipoles and the plate wire in floats, bit for bit.

The evaluators run at every stencil point of a timed row, so they are
written out in floats rather than Point3/Vec3 expressions.  Each keeps
the operations of the form it replaced in the same order; the copies
below are that form, and every result, diagnostic and refusal must
match them exactly.
"""

import math
import random

from emsingular import kernels
from emsingular.errors import (CoincidentPointsError, EmsingularError,
                               OnSupportError, SuperluminalError)
from emsingular.fields import electro, retarded
from emsingular.fields.base import PotentialResult
from emsingular.fields.medium import VACUUM, MediumConstants
from emsingular.geometry import Point3, Vec3
from emsingular.sources import DipoleSource, PointSource


def vec3_solve_retarded_time(src, y, t, c=VACUUM.c):
    v = src.v
    vv = v.dot(v)
    if vv >= c * c:
        raise SuperluminalError(
            "trajectory speed %g is not below c = %g" % (math.sqrt(vv), c))
    k = c * c - vv
    w = y - src.position(t)
    w2 = w.dot(w)
    if w2 == 0.0:
        return t
    wv = w.dot(v)
    root = math.sqrt(wv * wv + k * w2)
    tau = (wv + root) / k if wv >= 0.0 else w2 / (root - wv)
    return t - tau


def vec3_lienard_wiechert(src, y, t, medium=VACUUM):
    t_ret = vec3_solve_retarded_time(src, y, t, medium.c)
    x_ret = src.position(t_ret)
    v_ret = src.velocity(t_ret)
    sep = y - x_ret
    r = sep.norm()
    if r == 0.0:
        raise CoincidentPointsError(
            "field point coincides with the emission point")
    n = sep / r
    doppler = 1.0 / (1.0 - n.dot(v_ret) / medium.c)
    k = kernels.free_kernel(y, x_ret)
    phi = (src.q / medium.eps) * k * doppler
    a = (medium.mu * src.q * k * doppler) * v_ret
    return PotentialResult(y, a, phi, {
        "t_ret": t_ret, "doppler": doppler, "r_ret": r, "n": n})


def vec3_dipole_potential(dip, y, medium=VACUUM):
    sep = y - dip.location
    d = sep.norm()
    kernels.free_kernel(y, dip.location)
    phi = dip.moment.dot(sep) / (4.0 * math.pi * medium.eps * d ** 3)
    return PotentialResult(y, Vec3(0.0, 0.0, 0.0), phi)


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
    values = [res.phi, *res.a.as_tuple()]
    for key in sorted(d):
        val = d[key]
        values += val.as_tuple() if isinstance(val, Vec3) else [val]
    return res.point, sorted(d), [float.hex(float(x)) for x in values]


def point(rng, scale):
    return Point3(*(rng.uniform(-scale, scale) for _ in range(3)))


def direction(rng):
    while True:
        u = point(rng, 1.0)
        if 0.01 < u.norm() <= 1.0:
            return Vec3(u.x, u.y, u.z) / u.norm()


MEDIA = (VACUUM, MediumConstants.from_eps_mu(2.25 * VACUUM.eps, VACUUM.mu))
TIMES = (0.0, 2.0e-9, 1.37, 1.0e3)


def charge_case(rng, i):
    medium = MEDIA[i % 7 == 0]
    t = TIMES[i % 4]
    kind = i % 10
    beta = (0.0 if kind < 2 else 0.99 if kind == 2
            else rng.choice((1.0, 1.5)) if kind == 3
            else rng.uniform(0.0, 0.99))
    v = (beta * medium.c) * direction(rng)
    if i % 3 == 0:      # passes near the origin at time t, up to 3e8 m out
        x0 = point(rng, 1.0) + (-t) * v
    else:
        x0 = point(rng, 10.0 ** rng.uniform(-3.0, math.log10(3e8)))
    src = PointSource(rng.uniform(-1e-8, 1e-8), x0, v)
    here = src.position(t)
    if kind == 4:       # on the present position
        y = here
    elif kind == 5:     # within the coincidence floor of it
        y = here + 1e-14 * (1.0 + here.norm()) * direction(rng)
    else:
        y = (here if i % 2 else Point3(0.0, 0.0, 0.0)) + (
            10.0 ** rng.uniform(-3.0, 1.0)) * direction(rng)
    return src, y, t, medium


def solved(fn, src, y, t, c):
    try:
        return float.hex(fn(src, y, t, c))
    except SuperluminalError as exc:
        return str(exc)


def test_point_charges_match_vec3_form_bit_for_bit():
    rng = random.Random(20240511)
    seen = set()
    for i in range(20000):
        src, y, t, medium = charge_case(rng, i)
        got = outcome(retarded.lienard_wiechert, src, y, t, medium)
        assert got == outcome(vec3_lienard_wiechert, src, y, t, medium), (
            i, src, y, t)
        assert (solved(retarded.solve_retarded_time, src, y, t, medium.c)
                == solved(vec3_solve_retarded_time, src, y, t, medium.c))
        seen.add(got[0] if isinstance(got[0], str) else "ok")
    # every refusal path was taken, and every message matched
    assert {"ok", "SuperluminalError", "CoincidentPointsError"} <= seen


def test_emission_point_and_floor_refusals_keep_their_messages():
    src = PointSource(1e-9, Point3(0.7, 0.0, 0.0), Vec3(0.0, 0.0, 0.0))
    exact = outcome(retarded.lienard_wiechert, src, Point3(0.7, 0.0, 0.0), 0.0)
    assert exact == ("CoincidentPointsError",
                     "field point coincides with the emission point")
    near = Point3(0.7 + 1e-13, 0.0, 0.0)
    assert outcome(retarded.lienard_wiechert, src, near, 0.0) == outcome(
        vec3_lienard_wiechert, src, near, 0.0)
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

