"""Numerical core: Bessel K0, the loop, helix and cylinder-sheet
quadratures, the slab kernel series and the exact product and sum of
two doubles, all in pure Python (_chart for the chart quadratures, _ref
for the rest)."""

from ._chart import (  # noqa: F401
    helix_integrals, loop_phi_integral, solenoid_integrals,
)
from ._ref import bessel_k0, plate_green_sum, two_product, two_sum  # noqa: F401


def backend_name() -> str:
    return "pure-python"
