"""Exception hierarchy shared across the package."""


class DustLabError(Exception):
    """Base class for all package errors."""


class ValidationError(DustLabError):
    """Scenario failed validation. Carries a list of (code, field, message)."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{code}[{field}]: {msg}" for code, field, msg in self.violations)
        super().__init__(lines or "invalid scenario")


class NumericFailure(DustLabError):
    """A run that cannot be carried to its end in double precision."""


class StepUnderflow(NumericFailure):
    pass


class MaxStepsExceeded(NumericFailure):
    pass


class NumericOverflow(NumericFailure):
    """A value of the run or of its proof chain left the range of a double."""


class NoCertificateError(DustLabError):
    """A blowup-time bound was requested for parameters that certify nothing."""


class NoPoleInHorizon(DustLabError):
    """Comparison ODE integration reached the horizon without blowing up;
    `times` holds the accepted steps' times."""

    def __init__(self, message, times=None):
        super().__init__(message)
        self.times = times
