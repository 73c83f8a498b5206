"""Exception types shared across the toolkit."""


class CvBatteryError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(CvBatteryError):
    """Non-finite or otherwise malformed input values."""


class UnphysicalStateError(CvBatteryError):
    """State violates a physical bound (covariance determinant below one,
    negative eigenvalues, ...) beyond the floating-point guard band."""


class UnsupportedRegimeError(CvBatteryError):
    """Parameters fall outside the regime where an approximation is defined
    (e.g. the dissipationless perturbation series at gamma > 0)."""


class ConvergenceError(CvBatteryError):
    """An iterative procedure (root solve, integrator, cutoff doubling)
    failed to converge."""


class ConfigError(CvBatteryError):
    """Scenario-file parse or validation error."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
