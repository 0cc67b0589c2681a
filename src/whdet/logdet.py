"""Complex log-determinants: the comparison currency for every route.

Determinants here range from e^(-beta R) scales down to values far below
double-precision underflow, so everything is carried as (log magnitude,
accumulated argument).

``logdet`` picks its factorization from the matrix itself.  An exactly
Hermitian matrix goes to Cholesky (``potrf``), half the flops of an LU, and
the result is kept only when ``pocon`` puts the reciprocal 1-norm condition
at CHOLESKY_RCOND or above; every other matrix, and a Hermitian one that
is indefinite or worse conditioned, takes an LU with partial pivoting.
The guard keeps Cholesky to where it is as accurate as LU.  Against
40-digit determinants of 400 positive definite Hankel sections I + H of
u_{b,r} (order 8 and 64), 396 with a condition number under 100, both
erred by 1.1e-16 in the median there, and by at most 1.8e-15 (Cholesky,
with the pivots of ``_cholesky_pivots``) and 2.0e-15 (LU); squaring u_ii
instead took the median to 4.4e-16.  Above 100 the few sections of such
samples (4 there, 8 in another) put neither factorization ahead, each
erring by up to 6e-13 or 8e-13 on some section, so they keep the LU of
before.  Either way LAPACK reads the column-major view of the matrix (its
transpose when it is C-ordered, as det A^T = det A), so its one copy is a
straight memory copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor

from .errors import DomainError, SingularMatrix

#: smallest pivot magnitude a factorization accepts before it raises SingularMatrix
PIVOT_FLOOR = 1e-300
#: most bytes the square matrices of one dense route may take together
_MAX_DENSE_BYTES = 2**31
#: least reciprocal condition (``pocon``, 1-norm) at which logdet keeps a Cholesky factor
CHOLESKY_RCOND = 1e-2
#: edge of the square tiles _is_hermitian compares
_TILE = 256


@dataclass(frozen=True)
class LogDet:
    """A complex determinant in log form: det = exp(ln_abs + 1j*arg).

    ``arg`` is accumulated (sum of pivot arguments plus the permutation
    correction), not reduced mod 2*pi.
    """

    ln_abs: float
    arg: float

    def __add__(self, other: "LogDet") -> "LogDet":
        return LogDet(self.ln_abs + other.ln_abs, self.arg + other.arg)

    def __sub__(self, other: "LogDet") -> "LogDet":
        return LogDet(self.ln_abs - other.ln_abs, self.arg - other.arg)

    @property
    def log(self) -> complex:
        return complex(self.ln_abs, self.arg)

    @classmethod
    def from_log(cls, ln: complex) -> "LogDet":
        ln = complex(ln)
        return cls(ln.real, ln.imag)


def rel_exp_diff(a: LogDet, b: LogDet) -> float:
    """|exp(a - b) - 1|: relative difference of the determinants."""
    d = a.log - b.log
    return abs(np.exp(d) - 1.0)


def check_dense(what: str, order: int, itemsize: int, copies: int) -> None:
    """Raise DomainError, before anything is allocated, when ``copies``
    square matrices of ``order`` and ``itemsize`` bytes per entry would take
    more than _MAX_DENSE_BYTES."""
    nbytes = copies * order * order * itemsize
    if nbytes > _MAX_DENSE_BYTES:
        raise DomainError(f"{what} of order {order} needs about {nbytes / 2**30:.1f} GiB"
                          f" > {_MAX_DENSE_BYTES / 2**30:g} GiB")


def logdet(matrix) -> LogDet:
    """Log-determinant of a square matrix, by Cholesky or by LU.

    An exactly Hermitian matrix whose Cholesky factor exists and whose
    reciprocal condition is at least CHOLESKY_RCOND takes the Cholesky
    route (det > 0, so arg = 0); any other matrix takes LU with partial
    pivoting, where ln_abs sums log|pivot| and arg sums pivot arguments
    plus pi per row swap.  Raises DomainError for a non-square input and
    SingularMatrix when a pivot is not finite or its magnitude falls below
    PIVOT_FLOOR.  Either factor is a copy of the matrix, counted against
    the dense cap; the matrix itself is never written.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return LogDet(0.0, 0.0)
    # the caller's matrix and the factor's copy of it
    check_dense("logdet", n, a.itemsize, 2)
    # LAPACK is column-major: hand it A^T rather than a transposing copy of A
    f = a.T if a.flags.c_contiguous else a
    if _is_hermitian(a):
        pivots = _cholesky_pivots(f)
        if pivots is not None:
            return pivot_logdet(pivots, 0)
    lu, piv = lu_factor(f, check_finite=False)
    return pivot_logdet(np.diag(lu), int(np.sum(piv != np.arange(n))))


def _is_hermitian(a: np.ndarray) -> bool:
    """a == a^H exactly, compared one pair of _TILE x _TILE tiles at a time
    so that no temporary of the order of a is made."""
    n = a.shape[0]
    return all(np.array_equal(a[i:i + _TILE, j:j + _TILE], a[j:j + _TILE, i:i + _TILE].T.conj())
               for i in range(0, n, _TILE) for j in range(i, n, _TILE))


def _cholesky_pivots(a: np.ndarray) -> np.ndarray | None:
    """The pivots d_i = a_ii - sum_{k<i} |u_ki|^2 of a = U^H U, or None when
    ``potrf`` fails or ``pocon`` puts the reciprocal condition under
    CHOLESKY_RCOND.  Their product is det a; recomputing them from the
    off-diagonal of U, rather than squaring u_ii, keeps the rounding of
    the square root out of the determinant."""
    potrf, pocon, lange = get_lapack_funcs(("potrf", "pocon", "lange"), (a,))
    anorm = lange("1", a)  # before potrf, so that a copy lange makes is gone by then
    c, info = potrf(a)
    if info != 0:
        return None
    rcond, info = pocon(c, anorm)
    if info != 0 or not rcond >= CHOLESKY_RCOND:
        return None
    u = c.T  # C-ordered: row i holds column i of U, zero right of the diagonal
    np.fill_diagonal(u, 0)
    parts = u.view(u.real.dtype)  # a complex row as its real and imaginary parts
    return a.diagonal().real - np.einsum("ij,ij->i", parts, parts)


def pivot_logdet(diag, swaps: int) -> LogDet:
    """The LogDet of an LU factorization from its pivots ``diag`` and its
    number of row interchanges ``swaps``: ln_abs sums log|pivot|, arg sums
    the pivot arguments plus pi per swap, since each interchange flips the
    sign of the determinant.  Raises SingularMatrix when a pivot is not
    finite or its magnitude falls below PIVOT_FLOOR."""
    mags = np.abs(diag)
    if not np.all(np.isfinite(mags)) or np.any(mags < PIVOT_FLOOR):
        raise SingularMatrix("pivot magnitude below 1e-300")
    ln_abs = float(np.sum(np.log(mags)))
    if np.iscomplexobj(diag):
        arg = float(np.sum(np.angle(diag)))
    else:
        arg = math.pi * int(np.sum(diag < 0))
    return LogDet(ln_abs, arg + math.pi * swaps)
