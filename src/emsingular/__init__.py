"""Potentials and fields of singular sources in R^3.

Wires, current sheets, point charges and dipoles are described as
delta layers on curves and surfaces, weighted by the Leray measure of
the foliation that cuts them out.  Potentials come from explicit
chart-level quadrature of the 1/(4 pi |x - y|) kernel (or its slab and
retarded variants); derived fields (B = curl A, E = -grad phi - dA/dt)
and gauge residuals go through a small exterior-calculus layer so the
sign conventions live in exactly one place.

The numerical core (modified Bessel K0, the hot chart integrals) is
pure Python; `emsingular.backend()` names it.
"""

from ._core import backend_name as backend  # noqa: F401
from .errors import (  # noqa: F401
    CoincidentPointsError,
    ConvergenceError,
    DegenerateFoliationError,
    EmsingularError,
    InvalidGeometryError,
    OnSupportError,
    OutOfDomainError,
    SceneError,
    SuperluminalError,
)
from .geometry import Point3, Vec3  # noqa: F401
from .quad import QuadConfig, QuadResult  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "Point3", "Vec3", "QuadConfig", "QuadResult",
    "EmsingularError", "CoincidentPointsError", "OnSupportError",
    "OutOfDomainError", "DegenerateFoliationError", "InvalidGeometryError",
    "ConvergenceError", "SuperluminalError", "SceneError",
    "backend", "__version__",
]
