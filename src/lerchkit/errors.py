"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes (see cli.py): domain and
stratum problems exit 2, accuracy failures exit 3, branch violations 4.
"""


class LerchError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LerchError):
    """Input outside the mathematical domain of the requested operation."""


class StratumError(DomainError):
    """Evaluation requested on (or too close to) a singular stratum.

    Carries the stratum tag so callers can report which degeneration
    was hit (z = 0, z = 1, z = infinity, c a non-positive integer, ...).
    """

    def __init__(self, message, stratum=None):
        super().__init__(message)
        self.stratum = stratum


class PoleError(DomainError):
    """A coefficient or prefactor has a pole at the requested parameter."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class BranchError(LerchError):
    """Input sits on a branch cut where the requested value is ambiguous."""


class AccuracyError(LerchError):
    """Requested tolerance could not be certified.

    ``best`` holds the last estimate, ``bound`` the error bound actually
    achieved, so callers can degrade gracefully if they want to.
    """

    def __init__(self, message, best=None, bound=None):
        super().__init__(message)
        self.best = best
        self.bound = bound


class TransportError(LerchError):
    """Numerical ODE transport failed (path too close to a singular point,
    step control exhausted, or frame matrix became ill-conditioned)."""

