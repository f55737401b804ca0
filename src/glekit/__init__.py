"""First-principles GLE memory kernels and stochastic reduced-order models."""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    DimensionMismatchError,
    GlekitError,
    InvalidDensityError,
    MissingDensityError,
    NumericError,
    TermBudgetError,
    ValidationError,
)
from .poly import LiouvilleOperator, Polynomial, apply_liouville, liouville_powers
from .systems import PolySystem, fpu_chain, harmonic_chain, kraichnan_orszag

__all__ = [
    "ConditioningError",
    "DimensionMismatchError",
    "GlekitError",
    "InvalidDensityError",
    "LiouvilleOperator",
    "MissingDensityError",
    "NumericError",
    "PolySystem",
    "Polynomial",
    "TermBudgetError",
    "ValidationError",
    "apply_liouville",
    "fpu_chain",
    "harmonic_chain",
    "kraichnan_orszag",
    "liouville_powers",
]
