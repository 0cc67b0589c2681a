"""Exception types shared across the package."""


class WhdetError(Exception):
    """Base class for all whdet errors."""


class PoleError(WhdetError):
    """Evaluation requested at a pole of Gamma."""


class ZeroError(WhdetError):
    """Evaluation requested at a zero of the Barnes G-function (log diverges)."""


class ConstraintError(WhdetError):
    """Input violates an algebraic constraint (e.g. mismatched exponent sums)."""


class DomainError(WhdetError):
    """Parameter outside the admissible strip or interval for this operation."""


class SingularPointError(WhdetError):
    """Symbol evaluated at its singular point."""


class SingularMatrix(WhdetError):
    """Determinant or solve hit a (numerically) singular matrix."""


class ConvergenceWarning(UserWarning):
    """Truncation refinement changed the result more than the requested tolerance."""
