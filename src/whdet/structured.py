"""Finite Toeplitz/Hankel matrices and their determinants.

The determinants of T_n(v) +- H_n(v) admit finite-n products of Barnes
G-values (``asymptotics.d_n_exact``); the blocks of the inverse of an
infinite Hankel operator give the same numbers through a completely
different route, which is what most of the tests exploit.  ``d_n`` is a
dense LU; the Hankel operators of u_b and u_{b,r} are never formed: their
coefficients are exponential sums, and every section of them is an r x r
determinant (``expsum.hankel_logdet``) at any truncation, infinity
included.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceWarning, DomainError
from .expsum import hankel_logdet
from .logdet import LogDet, check_dense, logdet
from .params import BetaContext, beta_value, check_sign
from .symbols import CircleKind, CircleSymbol, jump_coeff_sum, v_coeff_array


def toeplitz(coeffs, n: int) -> np.ndarray:
    """T_n from a coefficient accessor: entry (j,k) = a_{j-k}."""
    if n < 1:
        raise DomainError("n must be positive")
    c = np.array([coeffs(k) for k in range(-(n - 1), n)])
    return scipy.linalg.toeplitz(c[n - 1:], c[n - 1::-1])


def hankel(coeffs, n: int) -> np.ndarray:
    """H_n from a coefficient accessor: entry (j,k) = a_{j+k+1}."""
    if n < 1:
        raise DomainError("n must be positive")
    c = np.array([coeffs(k) for k in range(1, 2 * n)])
    return scipy.linalg.hankel(c[:n], c[n - 1:])


def _v_coeff_array(b: complex, n: int) -> np.ndarray:
    """The coefficients k = -(2n-1) .. 2n-1 of v_b for a validated beta."""
    return v_coeff_array(b, np.arange(-(2 * n - 1), 2 * n))


def d_n(beta, n: int, sign: int) -> LogDet:
    """log det[T_n(v_beta) +- H_n(v_beta)] by dense LU (matrix route);
    real coefficients and a real LU for a real beta."""
    b = beta_value(beta, BetaContext.MATRIX)
    check_sign(sign)
    if n < 1:
        raise DomainError("n must be positive")
    c = _v_coeff_array(b, n)
    # T_n, H_n and the LU's copy of their sum
    check_dense("d_n", n, c.itemsize, 3)
    off = 2 * n - 1  # c[off + k] is the coefficient k
    A = scipy.linalg.toeplitz(c[off:off + n], c[off::-1][:n])       # c_{j-k}
    A += sign * scipy.linalg.hankel(c[off + 1:off + n + 1], c[off + n:])  # c_{j+k+1}
    return logdet(A)


#: ratio of the fine to the coarse truncation of hankel_section_inverse_det
SECTION_RATIO = 16


@dataclass(frozen=True)
class RefinedLogDet:
    """A discretized computation at a coarse and a ``ratio`` times finer
    resolution, and its Richardson limit for an error of order h^exponent
    (or N^{-exponent}) in the step h (or the truncation N)."""

    coarse: LogDet
    fine: LogDet
    ratio: float
    exponent: float

    @property
    def change(self) -> complex:
        """fine - coarse (log scale), its argument taken modulo 2 pi: a
        LogDet accumulates its argument rather than reducing it."""
        d = self.fine - self.coarse
        return complex(d.ln_abs, math.remainder(d.arg, 2.0 * math.pi))

    @property
    def refinement(self) -> float:
        """Magnitude of the coarse -> fine change."""
        return abs(self.change)

    @property
    def value(self) -> LogDet:
        """The extrapolated limit (q v_fine - v_coarse)/(q - 1),
        q = ratio^exponent."""
        return LogDet.from_log(self.fine.log + self.change / (self.ratio**self.exponent - 1.0))


def hankel_section_inverse_det(
    beta, n: int, sign: int, N: int | None = None, tol: float = 1e-2
) -> RefinedLogDet:
    """log det of the n x n upper-left block of (I +- H(u_{-beta}))^{-1}.

    The block of the truncation H_N is det(I +- Q_n H_N Q_n)/det(I +- H_N)
    (``fredholm.quotient_identity``), Q_n dropping the first n rows and
    columns; both are r x r determinants on the exponential sum of the
    coefficients (``symbols.jump_coeff_sum``, ``expsum.hankel_logdet``),
    whatever N.  The values v at N and 16N are extrapolated as
    (16^p v_16N - v_N)/(16^p - 1) with p = 1 + 2 sign Re beta, the
    exponent of the N^{-p} error of the truncation (positive on both
    strips).  Pairing and sign follow the displayed identities relating
    this block determinant to the Toeplitz+-Hankel determinants: sign=+
    reads beta on the CONTINUOUS_PLUS strip, sign=- on the SECH strip.
    """
    check_sign(sign)
    b = beta_value(beta, BetaContext.CONTINUOUS_PLUS if sign > 0 else BetaContext.SECH)
    if N is None:
        N = max(512, 8 * n)
    if N < 4 * n:
        raise DomainError("truncation N must be at least 4n")
    coeffs = jump_coeff_sum(CircleSymbol(CircleKind.UBETA, beta=-b), 2 * SECTION_RATIO * N)

    def block_logdet(m: int) -> LogDet:
        return hankel_logdet(coeffs, sign, n, m) - hankel_logdet(coeffs, sign, 0, m)

    refined = RefinedLogDet(block_logdet(N), block_logdet(SECTION_RATIO * N),
                            SECTION_RATIO, 1.0 + 2.0 * sign * b.real)
    if refined.refinement > tol:
        warnings.warn(
            f"N={N}->{SECTION_RATIO}N changed logdet by {refined.refinement:.2e} (tol {tol:g})",
            ConvergenceWarning,
        )
    return refined


def fredholm_det_hankel_reg(beta, r: float, sign: int) -> LogDet:
    """log det(I +- H(u_{beta,r})) of the whole infinite Hankel matrix.

    Its coefficients are an exponential sum (``symbols.jump_coeff_sum``),
    so the determinant is an r x r one (``expsum.hankel_logdet``) with no
    truncation; it needs Re beta > -1.
    """
    b = beta_value(beta, BetaContext.HANKEL_REG)
    check_sign(sign)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"need 0 <= r < 1, got {r}")
    if r == 0.0:
        return LogDet(0.0, 0.0)
    return hankel_logdet(jump_coeff_sum(CircleSymbol(CircleKind.UBETA_R, beta=b, r=r)), sign)
