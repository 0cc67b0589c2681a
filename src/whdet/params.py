"""Admissibility guards for the singularity exponent beta.

Every route in the package is valid on a specific strip of the complex
beta plane (matrix routes, closed forms, kernel discretizations and the
two signs of the continuous asymptotics all differ).  ``BetaParam`` ties a
value to the strip it was validated against, so downstream code can fail
early and loudly instead of returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

#: Absolute distance below which a value counts as sitting on an excluded point.
EXCLUSION_TOL = 1e-12


class BetaContext(Enum):
    """Which admissibility rule a beta value must satisfy."""

    DISCRETE_PLUS = "discrete+"        # Re b not in {-1/2, -3/2, ...}
    DISCRETE_MINUS = "discrete-"       # Re b not in {-3/2, -5/2, ...}
    CONTINUOUS_PLUS = "continuous+"    # -1/2 < Re b < 3/2
    CONTINUOUS_MINUS = "continuous-"   # -1 < Re b < 1/2
    KERNEL_FAMILY = "kernel"           # -1 < Re b < 1


def _near_half_integer_ladder(x: float, start: float) -> bool:
    """True if x is within EXCLUSION_TOL of start, start-1, start-2, ..."""
    if x > start + EXCLUSION_TOL:
        return False
    k = round(start - x)
    return k >= 0 and abs(x - (start - k)) <= EXCLUSION_TOL


def check_beta(value: complex, context: BetaContext) -> complex:
    """Validate a beta value against a context strip; return it as complex.

    Raises DomainError when the value is outside the strip or on an
    excluded pole/zero ladder.
    """
    b = complex(value)
    if not (math.isfinite(b.real) and math.isfinite(b.imag)):
        raise DomainError(f"beta must be finite, got {value!r}")
    re = b.real
    if context is BetaContext.DISCRETE_PLUS:
        if b.imag == 0.0 and _near_half_integer_ladder(re, -0.5):
            raise DomainError(f"beta={value!r} lies on the excluded set -1/2, -3/2, ...")
    elif context is BetaContext.DISCRETE_MINUS:
        if b.imag == 0.0 and _near_half_integer_ladder(re, -1.5):
            raise DomainError(f"beta={value!r} lies on the excluded set -3/2, -5/2, ...")
    elif context is BetaContext.CONTINUOUS_PLUS:
        if not -0.5 < re < 1.5:
            raise DomainError(f"Re beta={re} outside (-1/2, 3/2)")
    elif context is BetaContext.CONTINUOUS_MINUS:
        if not -1.0 < re < 0.5:
            raise DomainError(f"Re beta={re} outside (-1, 1/2)")
    elif context is BetaContext.KERNEL_FAMILY:
        if not -1.0 < re < 1.0:
            raise DomainError(f"Re beta={re} outside (-1, 1)")
    return b


@dataclass(frozen=True)
class BetaParam:
    """A beta value bundled with the context it was validated for."""

    value: complex
    context: BetaContext

    def __post_init__(self):
        check_beta(self.value, self.context)

    def __complex__(self) -> complex:
        return complex(self.value)


def beta_value(beta, context: BetaContext) -> complex:
    """Accept a BetaParam or a plain number; validate against context."""
    if isinstance(beta, BetaParam):
        return check_beta(beta.value, context)
    return check_beta(beta, context)


def check_sign(sign) -> None:
    """Reject a sign of a +- determinant other than +1 or -1."""
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")


def is_near_nonpositive_integer(z: complex, tol: float = EXCLUSION_TOL) -> bool:
    """True if z is within tol of 0, -1, -2, ..."""
    z = complex(z)
    if abs(z.imag) > tol:
        return False
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= tol
