"""Field evaluators: static magnetic, static electric, retarded."""

from .base import PotentialResult
from .medium import VACUUM, MediumConstants

__all__ = ["PotentialResult", "MediumConstants", "VACUUM"]
