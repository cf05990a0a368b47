"""Exception taxonomy shared across the package."""

from __future__ import annotations


class ForsampleError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ForsampleError, ValueError):
    """A vector had the wrong shape, dimension, or non-finite entries."""


class UnsupportedCombinationError(ForsampleError, ValueError):
    """A noise model and level whose tail bound no batch size up to the cap meets."""


class EstimatorRangeError(ForsampleError, ValueError):
    """An estimator draw fell outside the declared [-B, B] range."""


class BudgetExhaustedError(ForsampleError, RuntimeError):
    """A sampling loop hit its attempt or draw cap before finishing.

    Carries partial accounting so callers can report how far the run got.
    """

    def __init__(self, message: str, *, attempts: int = 0, w_draws: int = 0,
                 chain: int | None = None, step: int | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.w_draws = w_draws
        self.chain = chain
        self.step = step


class BudgetViolationError(ForsampleError, RuntimeError):
    """An adapter tried to exceed its hard oracle-query budget."""


class InfeasibleScheduleError(ForsampleError, ValueError):
    """No schedule satisfies the requested accuracy with this noise model."""


class NumericError(ForsampleError, FloatingPointError):
    """A numeric routine produced non-finite intermediates."""


class ConfigError(ForsampleError, ValueError):
    """Experiment configuration failed validation.

    ``errors`` lists every problem found, as ``field.path: message`` strings.
    """

    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = list(errors)
