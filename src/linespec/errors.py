"""Exception types raised by the linespec library."""


class LineSpecError(Exception):
    """Base class for all linespec errors."""


class InvalidDimension(LineSpecError):
    """An input has an illegal or inconsistent size."""


class DegenerateInput(LineSpecError):
    """An input is degenerate for the requested operation (e.g. all zeros)."""


class DomainError(LineSpecError):
    """A scalar argument lies outside the mathematical domain of a function."""


class NumericalDivergence(LineSpecError):
    """Training produced a non-finite cost or gradient.

    When raised by the estimation pipeline, the ``report`` attribute holds a
    partial run report built from the last structurally valid state.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class Overdetermined(LineSpecError):
    """More sinusoid candidates than samples; least squares is overdetermined."""


class SingularInformation(LineSpecError):
    """The Fisher information matrix is singular; the bound does not exist."""


class DegenerateResidual(LineSpecError):
    """The model fits the data exactly, so a residual-based statistic is undefined."""
