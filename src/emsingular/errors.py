"""Exception types shared across the package."""


class EmsingularError(Exception):
    """Base class for all library errors."""


class OnSupportError(EmsingularError):
    """Field requested on (or numerically inside) the source support."""


class CoincidentPointsError(OnSupportError):
    """Kernel evaluated with field and source point closer than the floor."""


class OutOfDomainError(EmsingularError):
    """A coordinate lies outside the region where the evaluator is defined."""


class DegenerateFoliationError(EmsingularError):
    """Foliation gradients vanish or fail the orthogonality requirement."""


class InvalidGeometryError(EmsingularError):
    """Source parameters out of range (pitch, radius, slab placement, ...)."""


class ConvergenceError(EmsingularError):
    """A series or iteration hit its cap before reaching tolerance."""


class SuperluminalError(EmsingularError):
    """Trajectory speed reached or exceeded c during a retarded-time solve."""


class SceneError(EmsingularError):
    """Scene document invalid; message carries the offending key path."""
