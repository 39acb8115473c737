"""Exception types shared across the package."""


class FlatZetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FlatZetaError, ValueError):
    """Invalid argument ranges (bad interval, non-integrable exponent, ...)."""


class NonConvergence(FlatZetaError, RuntimeError):
    """A quadrature hit its refinement cap with the error still above tolerance."""


class OutOfWindow(FlatZetaError, ValueError):
    """sigma outside the convergence window of the requested integral."""


class OddQNotSupported(FlatZetaError, ValueError):
    """Quadrant symmetry of the weighted integral needs an even flat-shift q."""


class PoleHit(FlatZetaError, ZeroDivisionError):
    """Closed-form monomial integral evaluated exactly at a pole."""


class WrongRegime(FlatZetaError, ValueError):
    """A constant was requested outside the flatness regime where it exists."""


class DegenerateLowerLimit(FlatZetaError, ValueError):
    """rho(lambda*r2) underflowed to zero, leaving an unbounded integrand."""


class IllConditionedFit(FlatZetaError, RuntimeError):
    """Design matrix of the limit-extraction fit is numerically singular."""


class OutsideDisc(FlatZetaError, ValueError):
    """Taylor-rebuild target lies outside the certified convergence disc."""
