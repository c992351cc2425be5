"""Numerical core: Bessel K0, the loop, helix and cylinder-sheet
quadratures and the slab kernel series, all in pure Python (_ref)."""

from ._ref import (  # noqa: F401
    bessel_k0, helix_integrals, loop_phi_integral, plate_green_sum,
    solenoid_integrals,
)


def backend_name() -> str:
    return "pure-python"
