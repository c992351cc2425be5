"""Scalar kernels: free space, frequency domain, slab, and K0.

The slab value oracle below was frozen from an independent k-space
quadrature G = (1/2pi) Int J0(k rho) * mode-ratio dk evaluated with
composite Simpson panels (not the K0 series under test).
"""

import cmath
import math

import mpmath
import pytest

from emsingular import _core
from emsingular._core import _chart, _ref
from emsingular.errors import (CoincidentPointsError, ConvergenceError,
                               OutOfDomainError)
from emsingular.exterior3 import FormField, laplacian
from emsingular.geometry import Point3
from emsingular.kernels import (PlateGreen, bessel_k0, free_kernel,
                                helmholtz_kernel, plate_green, separation)

# frozen from the k-quadrature oracle, rho=0.35, z=0.4, z'=0.7, L=1
PLATE_ORACLE = 0.07112930505726936


def test_free_kernel_unit_separation():
    x = Point3(0.0, 0.0, 0.0)
    y = Point3(1.0, 0.0, 0.0)
    assert free_kernel(x, y) == pytest.approx(1.0 / (4.0 * math.pi),
                                              rel=1e-15)


def test_free_kernel_symmetric():
    x = Point3(0.3, -0.2, 1.1)
    y = Point3(-0.8, 0.4, 0.2)
    assert free_kernel(x, y) == free_kernel(y, x)


def test_coincident_raises():
    p = Point3(1.0, 2.0, 3.0)
    with pytest.raises(CoincidentPointsError):
        free_kernel(p, p)
    with pytest.raises(CoincidentPointsError):
        separation(p, Point3(1.0, 2.0, 3.0 + 1e-14))


def test_free_kernel_is_harmonic_off_source():
    y = Point3(0.0, 0.0, 0.0)
    f = FormField.scalar(lambda p, t: free_kernel(p, y))
    for pt in (Point3(1.0, 0.5, -0.3), Point3(-0.4, 1.2, 0.9)):
        got = laplacian(f, pt, h=1e-3)[()]
        scale = free_kernel(pt, y) / (pt - y).norm() ** 2
        assert abs(got[()] if isinstance(got, dict) else got) < 1e-4 * scale


def test_helmholtz_reduces_to_static_at_zero_frequency():
    x = Point3(0.1, 0.2, 0.3)
    y = Point3(1.0, -1.0, 0.5)
    k0 = helmholtz_kernel(x, y, 0.0, 3e8)
    assert k0 == pytest.approx(free_kernel(x, y) + 0.0j, rel=1e-15)


def test_helmholtz_magnitude_and_phase():
    x = Point3(0.0, 0.0, 0.0)
    y = Point3(2.0, 0.0, 0.0)
    omega, c = 5.0, 2.0
    v = helmholtz_kernel(x, y, omega, c)
    assert abs(v) == pytest.approx(free_kernel(x, y), rel=1e-14)
    expected_phase = -omega * 2.0 / c
    assert cmath.phase(v) == pytest.approx(
        math.remainder(expected_phase, 2.0 * math.pi), rel=1e-12)


# ---------------------------------------------------------------------------
# modified Bessel K0


@pytest.mark.parametrize("x", [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.9, 4.0,
                               7.5, 10.0, 50.0, 200.0, 699.0])
def test_bessel_k0_against_mpmath(x):
    ref = float(mpmath.besselk(0, mpmath.mpf(x)))
    got = bessel_k0(x)
    assert got == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_bessel_k0_underflow_and_domain():
    assert bessel_k0(800.0) == 0.0  # below smallest double
    with pytest.raises(ValueError):
        bessel_k0(0.0)
    with pytest.raises(ValueError):
        bessel_k0(-1.0)


# ---------------------------------------------------------------------------
# slab kernel


def test_plate_green_frozen_oracle():
    cfg = PlateGreen(1.0)
    x = Point3(0.35, 0.0, 0.4)
    y = Point3(0.0, 0.0, 0.7)
    assert plate_green(x, y, cfg) == pytest.approx(PLATE_ORACLE, rel=1e-9)


def test_plate_green_vanishes_on_both_plates():
    cfg = PlateGreen(2.0)
    y = Point3(0.0, 0.0, 1.2)
    interior = plate_green(Point3(0.5, 0.0, 1.0), y, cfg)
    # bottom plate: sin(0) is exact zero; top plate: sin(n pi) rounds
    # at the 1e-16 level, far below any physical scale
    assert plate_green(Point3(0.5, 0.0, 0.0), y, cfg) == 0.0
    assert abs(plate_green(Point3(0.5, 0.0, 2.0), y, cfg)) \
        < 1e-12 * abs(interior)


def test_plate_green_reciprocity():
    cfg = PlateGreen(1.5)
    x = Point3(0.2, 0.1, 0.3)
    y = Point3(-0.3, 0.4, 1.1)
    assert plate_green(x, y, cfg) == pytest.approx(plate_green(y, x, cfg),
                                                   rel=1e-12)


def test_plate_green_positive_inside():
    cfg = PlateGreen(1.0)
    assert plate_green(Point3(0.4, 0.0, 0.5), Point3(0.0, 0.0, 0.5),
                       cfg) > 0.0


def test_plate_green_wide_slab_tends_to_first_image():
    # for L >> separations the kernel approaches free space minus the
    # image across the near plate; residual images scale like 1/L
    L = 500.0
    cfg = PlateGreen(L)
    x = Point3(2.0, 0.0, 1.0)
    y = Point3(0.0, 0.0, 1.5)
    y_img = Point3(0.0, 0.0, -1.5)
    expected = free_kernel(x, y) - free_kernel(x, y_img)
    got = plate_green(x, y, cfg)
    assert got == pytest.approx(expected, rel=2e-2)


def test_plate_green_domain_and_convergence_errors():
    cfg = PlateGreen(1.0)
    y = Point3(0.0, 0.0, 0.5)
    with pytest.raises(OutOfDomainError):
        plate_green(Point3(0.5, 0.0, -0.1), y, cfg)
    with pytest.raises(OutOfDomainError):
        plate_green(Point3(0.5, 0.0, 1.1), y, cfg)
    # zero transverse separation: series diverges termwise
    with pytest.raises(ConvergenceError):
        plate_green(Point3(0.0, 0.0, 0.2), y, cfg)
    # coincident points win over the rho check
    with pytest.raises(CoincidentPointsError):
        plate_green(y, y, cfg)
    # starved term budget
    tiny = PlateGreen(1.0, tol=1e-14, n_max=3)
    with pytest.raises(ConvergenceError):
        plate_green(Point3(0.05, 0.0, 0.5), y, tiny)


def test_plate_green_config_validation():
    with pytest.raises(ValueError):
        PlateGreen(0.0)
    with pytest.raises(ValueError):
        PlateGreen(1.0, tol=0.0)


def test_core_is_the_pure_python_kernels():
    assert _core.backend_name() == "pure-python"
    for module, names in ((_ref, ("bessel_k0", "plate_green_sum")),
                          (_chart, ("loop_phi_integral", "helix_integrals",
                                    "solenoid_integrals"))):
        for name in names:
            assert getattr(_core, name) is getattr(module, name)
