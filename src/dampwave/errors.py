"""Exception hierarchy shared by all dampwave modules, and the argument
rules whose failures raise DomainError."""

import math
import numbers


class DampwaveError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DampwaveError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedOrderError(DomainError):
    """Requested Bessel/Hankel order is outside the supported range."""


class IntegrationFailureError(DampwaveError, RuntimeError):
    """Adaptive ODE integration failed (step-size underflow)."""


class QuadratureError(DampwaveError, RuntimeError):
    """Radial quadrature did not converge to the requested tolerance."""


class DegenerateFitError(DampwaveError, ValueError):
    """Decay fit requested on a degenerate (all-zero or too short) track."""


class FitWindowError(DampwaveError, ValueError):
    """Fit window does not span a long enough range of Lambda(t)."""


class ResourceCapError(DampwaveError, RuntimeError):
    """Estimated resource usage exceeds the configured cap."""


class ValidationError(DampwaveError, ValueError):
    """Configuration validation failed; ``violations`` lists every problem."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))


# argument rules (test, what a valid value is), shared by the argument checks
# and the config tables
_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "a positive finite number")
_NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "a non-negative finite number")
_ABOVE_ONE = (lambda v: 1.0 < v < math.inf, "a finite number above 1")
_UNIT = (lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _check_fields(fields):
    """Raise DomainError for the first (name, value, rule) whose value is not
    a real number (bools are not) or fails its rule."""
    for name, value, (ok, what) in fields:
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
            raise DomainError(f"{name} must be {what}, got {value!r}")
