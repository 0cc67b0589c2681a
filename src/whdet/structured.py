"""Finite Toeplitz/Hankel matrices, their determinants, and the exact
Barnes-G closed forms they must reproduce.

The determinants of T_n(v) +- H_n(v) admit finite-n products of Barnes
G-values; the infinite-Hankel finite sections give the same numbers
through a completely different route, which is what most of the tests
exploit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceWarning, DomainError
from .logdet import LogDet, logdet
from .params import BetaContext, beta_value, check_sign
from .specfun import ln_barnes_g
from .symbols import CircleKind, CircleSymbol, reg_coeff_table, u_coeff_array, v_coeff_array

LN_2PI = math.log(2.0 * math.pi)
LN_2 = math.log(2.0)


def toeplitz(coeffs, n: int) -> np.ndarray:
    """T_n from a coefficient accessor: entry (j,k) = a_{j-k}."""
    if n < 1:
        raise DomainError("n must be positive")
    c = np.array([coeffs(k) for k in range(-(n - 1), n)])
    j, k = np.indices((n, n))
    return c[(j - k) + (n - 1)]


def hankel(coeffs, n: int) -> np.ndarray:
    """H_n from a coefficient accessor: entry (j,k) = a_{j+k+1}."""
    if n < 1:
        raise DomainError("n must be positive")
    c = np.array([coeffs(k) for k in range(1, 2 * n)])
    j, k = np.indices((n, n))
    return c[j + k]


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
    off = 2 * n - 1  # c[off + k] is the coefficient k
    A = scipy.linalg.toeplitz(c[off:off + n], c[off::-1][:n])       # c_{j-k}
    A += sign * scipy.linalg.hankel(c[off + 1:off + n + 1], c[off + n:])  # c_{j+k+1}
    return logdet(A)


def d_n_exact(beta, n: int, sign: int) -> LogDet:
    """The exact finite-n Barnes-G product for det[T_n(v) +- H_n(v)].

    Valid on the analytically continued domains (beta off -1/2, -3/2, ...
    for the + sign, off -3/2, -5/2, ... for the - sign).
    """
    check_sign(sign)
    ctx = BetaContext.DISCRETE_PLUS if sign > 0 else BetaContext.DISCRETE_MINUS
    b = beta_value(beta, ctx)
    if n < 1:
        raise DomainError("n must be positive")
    if sign > 0:
        pre = (b / 2) * LN_2PI - (b * b / 2) * LN_2 + ln_barnes_g(0.5) - ln_barnes_g(0.5 + b)
        num = (
            ln_barnes_g(n + 1.5)
            + ln_barnes_g(n + 1.0)
            + ln_barnes_g(n + 1.0 + b)
            + ln_barnes_g(n + 0.5 + b)
        )
    else:
        pre = (b / 2) * LN_2PI - (b * b / 2) * LN_2 + ln_barnes_g(1.5) - ln_barnes_g(1.5 + b)
        num = (
            ln_barnes_g(n + 0.5)
            + ln_barnes_g(n + 1.0)
            + ln_barnes_g(n + 1.0 + b)
            + ln_barnes_g(n + 1.5 + b)
        )
    den = (
        ln_barnes_g(n + 0.5 + b / 2)
        + 2.0 * ln_barnes_g(n + 1.0 + b / 2)
        + ln_barnes_g(n + 1.5 + b / 2)
    )
    return LogDet.from_log(pre + num - den)


def det_tn_exact(beta, n: int) -> LogDet:
    """Exact det T_n(v_beta) = G(1+b)^2/G(1+2b) * G(1+n)G(1+2b+n)/G(1+b+n)^2."""
    b = beta_value(beta, BetaContext.FINITE)
    if n < 1:
        raise DomainError("n must be positive")
    ln = (
        2.0 * ln_barnes_g(1.0 + b)
        - ln_barnes_g(1.0 + 2.0 * b)
        + ln_barnes_g(1.0 + n)
        + ln_barnes_g(1.0 + 2.0 * b + n)
        - 2.0 * ln_barnes_g(1.0 + b + n)
    )
    return LogDet.from_log(ln)


@dataclass(frozen=True)
class RefinedLogDet:
    """A truncated computation at N and 2N with its 1/N Richardson limit."""

    value: LogDet          # extrapolated
    at_n: LogDet
    at_2n: LogDet

    @property
    def refinement(self) -> float:
        """Magnitude of the N -> 2N change (log scale)."""
        return abs(self.at_2n.log - self.at_n.log)


def hankel_section_inverse_det(
    beta, n: int, sign: int, N: int | None = None, tol: float = 1e-2
) -> RefinedLogDet:
    """log det of the n x n upper-left block of (I +- H(u_{-beta}))^{-1}.

    The infinite Hankel operator is truncated at N and 2N and the two
    values are Richardson-extrapolated in 1/N.  Pairing and sign follow
    the displayed identities relating this block determinant to the
    Toeplitz+-Hankel determinants: sign=+ reads beta on the
    CONTINUOUS_PLUS strip, sign=- on the SECH strip.
    """
    check_sign(sign)
    b = beta_value(beta, BetaContext.CONTINUOUS_PLUS if sign > 0 else BetaContext.SECH)
    if N is None:
        N = max(512, 8 * n)
    if N < 4 * n:
        raise DomainError("truncation N must be at least 4n")

    def block_logdet(m: int) -> LogDet:
        co = u_coeff_array(-b, np.arange(1, 2 * m))  # k = 1 .. 2m-1
        A = np.eye(m, dtype=co.dtype) + sign * scipy.linalg.hankel(co[:m], co[m - 1:])
        X = np.linalg.solve(A, np.eye(m, dtype=co.dtype)[:, :n])
        return logdet(X[:n, :])

    v1 = block_logdet(N)
    v2 = block_logdet(2 * N)
    extrap = LogDet.from_log(2.0 * v2.log - v1.log)
    if abs(v2.log - v1.log) > tol:
        warnings.warn(
            f"N={N}->2N changed logdet by {abs(v2.log - v1.log):.2e} (tol {tol:g})",
            ConvergenceWarning,
        )
    return RefinedLogDet(extrap, v1, v2)


def ln_det_hankel_reg_exact(beta, r: float, sign: int) -> complex:
    """Closed form of log det(I +- H(u_{beta,r})):
    ((1-r)/(1+r))^{+-b/2} (1-r^2)^{b^2/2}."""
    b = beta_value(beta, BetaContext.FINITE)
    check_sign(sign)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"need 0 <= r < 1, got {r}")
    if r == 0.0:
        return 0.0 + 0.0j
    return sign * b / 2 * math.log((1 - r) / (1 + r)) + b * b / 2 * math.log(1 - r * r)


def fredholm_det_hankel_reg(beta, r: float, sign: int, N: int | None = None) -> LogDet:
    """log det(I +- H(u_{beta,r})) by an N x N section.

    Entries decay like r^{j+k}, so the truncation error is certified by a
    geometric tail bound; N defaults to the length at which the dropped
    entries fall below 1e-16.
    """
    b = beta_value(beta, BetaContext.FINITE)
    check_sign(sign)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"need 0 <= r < 1, got {r}")
    if r == 0.0:
        return LogDet(0.0, 0.0)
    if N is None:
        N = max(64, int(np.ceil(20.0 / max(-math.log(r), 1e-12))))
    sym = CircleSymbol(CircleKind.UBETA_R, beta=b, r=r)
    co = reg_coeff_table(sym, 2 * N)[2 * N :]  # k = 0 .. 2N
    H = scipy.linalg.hankel(co[1:N + 1], co[N:2 * N])  # c_{j+k+1}
    return logdet(np.eye(N, dtype=H.dtype) + sign * H)
