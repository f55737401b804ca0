"""Exception types shared across the package.

Three families, told apart by the CLI's exit codes: ``ValidationError``
(bad input, exit 2), ``NumericError`` (numerical failure, exit 3) and
``TermBudgetError`` (the polynomial term cap, exit 4).
"""


class GlekitError(Exception):
    """Base class for all package errors."""


class ValidationError(GlekitError, ValueError):
    """Bad user input: malformed config, inconsistent shapes, unknown keys."""


class TermBudgetError(GlekitError, RuntimeError):
    """Polynomial term count exceeded the configured cap.

    ``power_reached`` records the highest Liouville power that was completed
    before the budget was exhausted.
    """

    def __init__(self, message: str, power_reached: int):
        super().__init__(message)
        self.power_reached = power_reached


class NumericError(GlekitError, RuntimeError):
    """Numerical failure: non-finite values, singular steps, blow-up."""
