"""Admissibility guards for the singularity exponent beta.

This module is the only place where a strip of the beta plane is written.
Each public entry point reads beta once, by ``check_beta(beta, context)``,
so a beta outside its route's strip, NaN included, raises DomainError
before any work.  Strips are open intervals of Re b, less EXCLUSION_TOL at
each finite end; upper-case entry points are AsymptoteSpec kinds.

MATRIX            Re b > -1/2         fourier_coeff_v (every k of an array),
                                      d_n, d_n_minors, W2R_CONT, T2N_DISCRETE
SECH              (-3/2, 1/2)         LineSymbol(PHI), sech_kernel, ln_akhiezer_kac_E, SECH,
                                      hankel_section_inverse_det with sign -1
CONTINUOUS_PLUS   (-1/2, 3/2)         CONTINUOUS_PLUS, hankel_section_inverse_det
                                      with sign +1
CONTINUOUS_MINUS  (-1, 1/2)           CONTINUOUS_MINUS, CBETA, ln_c_beta
KERNEL_FAMILY     (-1, 1)             cut_kernel (so every cut route), KernelSpec
HANKEL_REG        Re b > -1           fredholm_det_hankel_reg (its cut integral)
DISCRETE_PLUS     b off -1/2, -3/2..  DISCRETE_PLUS, d_n_exact with sign +1
DISCRETE_MINUS    b off -3/2, -5/2..  DISCRETE_MINUS, d_n_exact with sign -1
FINITE            any finite b        CircleSymbol, the other LineSymbol kinds,
                                      fourier_coeff_u (every k of an array),
                                      det_tn_exact, ln_det_hankel_reg_exact

The other inputs are read the same way, before any allocation: a matrix
order, truncation, panel count, nodes per panel or largest coefficient
index by ``check_order``, a Fourier index by
``check_index``, a length or scale by ``check_positive``, a regularization
eps by ``check_eps``.

``working_beta`` picks the arithmetic of every dense route from beta.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DomainError

#: Absolute distance below which a value counts as sitting on an excluded point.
EXCLUSION_TOL = 1e-12


class BetaContext(Enum):
    """Which admissibility rule a beta value must satisfy."""

    DISCRETE_PLUS = "discrete+"
    DISCRETE_MINUS = "discrete-"
    CONTINUOUS_PLUS = "continuous+"
    CONTINUOUS_MINUS = "continuous-"
    KERNEL_FAMILY = "kernel"
    MATRIX = "matrix"
    SECH = "sech"
    HANKEL_REG = "hankel_reg"
    FINITE = "finite"


#: open strips lo < Re b < hi
_STRIPS = {
    BetaContext.CONTINUOUS_PLUS: (-0.5, 1.5),
    BetaContext.CONTINUOUS_MINUS: (-1.0, 0.5),
    BetaContext.KERNEL_FAMILY: (-1.0, 1.0),
    BetaContext.MATRIX: (-0.5, math.inf),
    BetaContext.SECH: (-1.5, 0.5),
    BetaContext.HANKEL_REG: (-1.0, math.inf),
    BetaContext.FINITE: (-math.inf, math.inf),
}
#: real points excluded from the plane: start, start - 1, start - 2, ...
_LADDERS = {BetaContext.DISCRETE_PLUS: -0.5, BetaContext.DISCRETE_MINUS: -1.5}


def check_beta(value: complex, context: BetaContext) -> complex:
    """Validate a beta value against a context strip; return it as complex.

    Raises DomainError when the value is not finite, outside the strip or
    on an excluded pole/zero ladder.  A finite strip end and a ladder point
    (in the complex plane) exclude EXCLUSION_TOL around them, the distance
    within which ``ln_barnes_g`` reports a zero of G: the formulas of a
    strip have their zeros of G at its ends and ladder points.
    """
    b = complex(value)
    re = b.real
    if not (math.isfinite(re) and math.isfinite(b.imag)):
        raise DomainError(f"beta must be finite, got {value!r}")
    strip = _STRIPS.get(context)
    if strip is not None:
        lo, hi = strip
        if not lo + EXCLUSION_TOL < re < hi - EXCLUSION_TOL:
            raise DomainError(
                f"Re beta = {re:g} outside the {context.name} strip ({lo:g}, {hi:g})"
                f" less {EXCLUSION_TOL:g} at its ends")
    elif is_near_nonpositive_integer(b - _LADDERS[context]):
        start = _LADDERS[context]
        raise DomainError(
            f"beta={value!r} lies on the excluded set {start:g}, {start - 1:g}, ...")
    return b


def working_beta(b: complex) -> float | complex:
    """beta as the scalar a dense route computes with: a float when Im b == 0.

    This is the one place that picks real or complex arithmetic.  A real
    beta gives real kernels and coefficients, so real matrices and a real
    LU (about a quarter of the flops of a complex one); any other beta,
    however small its imaginary part, stays complex.
    """
    b = complex(b)
    return b.real if b.imag == 0.0 else b


def check_sign(sign) -> None:
    """Reject a sign of a +- determinant other than +1 or -1."""
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")


def check_order(n, name: str = "n", least: int = 1) -> int:
    """Reject a matrix order, truncation, panel count or largest index that
    is not an integer >= least (numpy integers included); return it as an
    int."""
    if not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def check_index(k) -> np.ndarray:
    """Reject a Fourier index that is not an integer, a numpy integer or an
    integer-dtype array; return it as an array."""
    arr = np.asarray(k)
    if not np.issubdtype(arr.dtype, np.integer):
        raise DomainError(f"index k must be an integer or an integer array, got {arr.dtype}")
    return arr


def check_positive(x, name: str) -> None:
    """Reject a length or scale that is not finite and > 0, NaN included."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {x!r}")


def check_eps(eps) -> None:
    """Reject a regularization eps outside the open interval (0, 1): at
    eps = 1 the regularized symbols are identically 1."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps!r}")


def is_near_nonpositive_integer(z: complex, tol: float = EXCLUSION_TOL) -> bool:
    """True if z is within tol of 0, -1, -2, ..."""
    z = complex(z)
    if abs(z.imag) > tol:
        return False
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= tol
