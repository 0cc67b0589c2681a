"""Complex log-determinants: the comparison currency for every route.

Determinants here range from e^(-beta R) scales down to values far below
double-precision underflow, so everything is carried as (log magnitude,
accumulated argument).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor

from .errors import DomainError, SingularMatrix

#: smallest pivot magnitude a factorization accepts before it raises SingularMatrix
PIVOT_FLOOR = 1e-300
#: most bytes the square matrices of one dense route may take together
_MAX_DENSE_BYTES = 2**31


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
    """Log-determinant of a square matrix via LU with partial pivoting.

    ln_abs sums log|pivot|; arg sums pivot arguments plus pi per row swap.
    Raises SingularMatrix when a pivot magnitude falls below 1e-300.  The
    LU is a copy of the matrix, counted against the dense cap.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return LogDet(0.0, 0.0)
    # the caller's matrix and the LU's copy of it
    check_dense("logdet", n, a.itemsize, 2)
    lu, piv = lu_factor(a, check_finite=False)
    return pivot_logdet(np.diag(lu), int(np.sum(piv != np.arange(n))))


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
