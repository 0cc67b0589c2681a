"""Finite Toeplitz/Hankel matrices and their determinants.

The determinants of T_n(v) +- H_n(v) admit finite-n products of Barnes
G-values (``asymptotics.d_n_exact``); the blocks of the inverse of an
infinite Hankel operator give the same numbers through a completely
different route, which is what most of the tests exploit.  ``d_n`` never
forms T_n +- H_n: it is the Gram matrix of Chebyshev polynomials of the
third (+) or fourth (-) kind, and one pass of the modified Chebyshev
algorithm over its modified moments gives every leading minor in O(n^2)
time and O(n) memory.  The Hankel operators of u_b and u_{b,r} are never
formed either: their coefficients are exponential sums, and every section
of them is an r x r determinant (``expsum.hankel_logdet``) at any
truncation, infinity included.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceWarning, DomainError, SingularMatrix
from .expsum import hankel_logdet
from .logdet import PIVOT_FLOOR, LogDet, check_dense
from .params import BetaContext, check_beta, check_order, check_sign
from .symbols import CircleKind, CircleSymbol, fourier_coeff_v, jump_coeff_sum


def toeplitz(coeffs, n: int) -> np.ndarray:
    """T_n, entry (j,k) = a_{j-k}, from one call of the coefficient accessor
    on the index array -(n-1) .. n-1."""
    n = check_order(n)
    c = np.asarray(coeffs(np.arange(-(n - 1), n)))
    check_dense("toeplitz", n, c.itemsize, 1)
    return scipy.linalg.toeplitz(c[n - 1:], c[n - 1::-1])


def hankel(coeffs, n: int) -> np.ndarray:
    """H_n, entry (j,k) = a_{j+k+1}, from one call of the coefficient
    accessor on the index array 1 .. 2n-1."""
    n = check_order(n)
    c = np.asarray(coeffs(np.arange(1, 2 * n)))
    check_dense("hankel", n, c.itemsize, 1)
    return scipy.linalg.hankel(c[:n], c[n - 1:])


def _gram_pivots(m: np.ndarray, sign: int) -> np.ndarray:
    """sigma_kk, k < len(m) // 2, from the modified moments m_l, l < len(m).

    The basis p_l is Chebyshev's of the third (sign +1) or fourth (-1)
    kind: x p_l = (p_{l+1} + p_{l-1})/2 for l >= 1, x p_0 = (p_1 + sign p_0)/2.
    The modified Chebyshev algorithm (Gautschi, Orthogonal Polynomials,
    2004, sec. 2.1.7) runs on the mixed moments sigma_{k,l} = <pi_k, p_l>
    of the orthogonal polynomials pi_k, normalized like p_k to leading
    coefficient 2^k, so that sigma_kk = <pi_k, pi_k> stays O(1):

        f_k = sigma_kk / sigma_{k-1,k-1},
        alpha_k = (sigma_{k,k+1} - f_k sigma_{k-1,k}) / (2 sigma_kk),
        sigma_{k+1,l} = sigma_{k,l+1} + sigma_{k,l-1} - 2 alpha_k sigma_{k,l}
                        - f_k sigma_{k-1,l},

    with sigma_{-1,l} = 0 and alpha_0 = (m_1 + sign m_0)/(2 m_0).  The Gram
    matrix of p_0 .. p_{k-1} is unit-triangularly congruent to
    diag(sigma_00 .. sigma_{k-1,k-1}), so its determinant is their product.
    Two rows of sigma live at a time, in m's dtype.
    """
    n = len(m) // 2
    pivots = np.empty(n, dtype=m.dtype)
    cur, prev = m.copy(), np.zeros_like(m)  # sigma_{k,.} and sigma_{k-1,.}
    for k in range(n):
        s = cur[k]
        if not PIVOT_FLOOR <= abs(s) < math.inf:
            raise SingularMatrix(f"Gram pivot {k} of magnitude {abs(s):.3g}")
        pivots[k] = s
        if k == n - 1:
            break
        if k == 0:
            f, alpha = 0.0, (cur[1] + sign * cur[0]) / (2.0 * s)
        else:
            f = s / s_prev
            alpha = (cur[k + 1] - f * prev[k]) / (2.0 * s)
        lo, hi = k + 1, 2 * n - k - 1  # sigma_{k+1,l} for l = k+1 .. 2n-k-2
        new = prev[lo:hi]
        new *= -f
        new += cur[lo + 1:hi + 1]
        new += cur[lo - 1:hi - 1]
        new -= (2.0 * alpha) * cur[lo:hi]
        prev, cur, s_prev = cur, prev, s
    return pivots


def _minor_logs(beta, n: int, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """ln |d_k| and arg d_k, k = 1 .. n, as two arrays (see ``d_n_minors``)."""
    b = check_beta(beta, BetaContext.MATRIX)
    check_sign(sign)
    n = check_order(n)
    a = fourier_coeff_v(b, np.arange(2 * n + 1))
    pivots = _gram_pivots(a[:-1] + sign * a[1:], sign)
    ln_abs = np.cumsum(np.log(np.abs(pivots)))
    if np.iscomplexobj(pivots):
        return ln_abs, np.cumsum(np.angle(pivots))
    return ln_abs, math.pi * np.cumsum(pivots < 0)


def d_n_minors(beta, n: int, sign: int) -> list[LogDet]:
    """log det[T_k(v_beta) +- H_k(v_beta)] for every k = 1 .. n, from one
    O(n^2) pass in O(n) memory; real arithmetic for a real beta.

    For the even symbol v_beta, (T_n +- H_n)_{jk} = a_{j-k} +- a_{j+k+1}
    is the Gram matrix of the Chebyshev polynomials of the third (+) or
    fourth (-) kind, whose modified moments are m_l = a_l +- a_{l+1}; the
    k-th minor is the product of the first k pivots of ``_gram_pivots``.
    Raises SingularMatrix when a pivot is not finite or falls below
    ``logdet.PIVOT_FLOOR``.
    """
    ln_abs, arg = _minor_logs(beta, n, sign)
    return [LogDet(x, y) for x, y in zip(ln_abs.tolist(), arg.tolist())]


def d_n(beta, n: int, sign: int) -> LogDet:
    """log det[T_n(v_beta) +- H_n(v_beta)]: the last of ``d_n_minors``."""
    ln_abs, arg = _minor_logs(beta, n, sign)
    return LogDet(float(ln_abs[-1]), float(arg[-1]))


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
    b = check_beta(beta, BetaContext.CONTINUOUS_PLUS if sign > 0 else BetaContext.SECH)
    n = check_order(n)
    N = max(512, 8 * n) if N is None else check_order(N, "N")
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
    b = check_beta(beta, BetaContext.HANKEL_REG)
    check_sign(sign)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"need 0 <= r < 1, got {r}")
    if r == 0.0:
        return LogDet(0.0, 0.0)
    return hankel_logdet(jump_coeff_sum(CircleSymbol(CircleKind.UBETA_R, beta=b, r=r)), sign)
