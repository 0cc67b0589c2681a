"""Dense N x N oracles for the Wiener-Hopf routes, the Hankel sections and
the Toeplitz+-Hankel determinants.

The library takes every Wiener-Hopf determinant from a compressed
exponential sum through the quasiseparable recurrence of
``whdet.expsum``.  The oracles here assemble the whole Nystrom matrix
instead, from the uncompressed branch-cut sum (``raw_cut_kernel``) or the
closed-form sech kernel, and factor it with a dense LU; so they check the
compression and the recurrence together.  They form e^{+eta x}, so keep
R (and N, for time and memory) small: R <= 600, N <= 4000.

The library takes every Hankel section from the exponential sum of its
coefficients as an r x r determinant; the oracles here build the N x N
section from the closed-form coefficients of u_b or the FFT table of
u_{b,r} and factor or solve it densely.  Keep N <= 2048.

The library takes det(T_n +- H_n)(v_b) from the modified Chebyshev
recurrence on its moments; ``dense_d_n`` assembles the matrix and factors
it with a pivoted LU.

Each builder calls ``whdet.logdet.check_dense`` with the number of N x N
arrays it holds at once before it allocates anything, so an order past
the library's dense cap raises DomainError instead of exhausting memory.
"""

import mpmath
import numpy as np
import pytest
import scipy.linalg

from whdet import (
    CircleKind,
    CircleSymbol,
    ExpSum,
    LineKind,
    cut_kernel,
    logdet,
    reg_coeff_table,
)
from whdet.logdet import check_dense
from whdet.params import working_beta
from whdet.symbols import fourier_coeff_u, fourier_coeff_v


def raw_cut_kernel(symbol) -> ExpSum:
    """``cut_kernel`` before compression: every term of ``cut_rule``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExpSum, "compress", lambda self, window=None: self)
        return cut_kernel(symbol)


def _sin_pi(b):
    """sin(pi b) at full relative accuracy (mpmath), real for a real b; the
    prefactor of every kernel here, which np.sin(np.pi * b) gets wrong by
    about 4e-16 absolute, 6e-12 relative at b = 1 - 2e-5."""
    s = complex(mpmath.sinpi(b))
    return s.real if isinstance(b, float) else s


def _cut_blocks(ker: ExpSum, xs, sign):
    """W-block k(x_i - x_j) plus sign times the H-block k(x_i + x_j)."""
    eta = ker.eta
    e_dn = np.exp(-np.multiply.outer(xs, eta))
    e_up = np.exp(np.multiply.outer(xs, eta))
    lower = e_dn @ (e_up * ker.w_pos).T         # valid on i >= j
    upper = e_dn @ (e_up * ker.w_neg).T         # k(neg) at |x_i - x_j|, valid on i >= j
    K = np.tril(lower, -1) + np.triu(upper.T, 1)
    K[np.diag_indices_from(K)] = 0.5 * (np.sum(ker.w_pos) + np.sum(ker.w_neg))
    if sign:
        K += e_dn @ (e_dn * (sign * ker.w_pos)).T
    return K


def _sech_blocks(beta, xs, sign):
    """k(x_i - x_j) + sign k(x_i + x_j) for the sech kernel."""
    pref = -_sin_pi(beta) / (2.0 * np.pi)
    K = pref / np.cosh(np.subtract.outer(xs, xs) / 2.0)
    if sign:
        K += sign * pref / np.cosh(np.add.outer(xs, xs) / 2.0)
    return K


def _itemsize(beta) -> int:
    return np.result_type(working_beta(complex(beta))).itemsize


def _with_identity(K, rule):
    sw = np.sqrt(rule.weights)
    K = sw[:, None] * K * sw[None, :]
    K[np.diag_indices_from(K)] += 1.0
    return K


def dense_system(symbol, rule, sign):
    """I + sqrt(w_i) [k(x_i - x_j) + sign k(x_i + x_j)] sqrt(w_j); sign 0
    leaves the H-block out."""
    # lower, upper, their two triangles and the W-block
    check_dense("dense_system", len(rule), _itemsize(symbol.beta), 5)
    xs = rule.nodes
    if symbol.kind is LineKind.PHI:
        K = _sech_blocks(working_beta(complex(symbol.beta)), xs, sign)
    else:
        K = _cut_blocks(raw_cut_kernel(symbol), xs, sign)
    return _with_identity(K, rule)


def dense_wr_pm_hr(symbol, rule, sign):
    return logdet(dense_system(symbol, rule, sign))


def dense_w2r(symbol, rule):
    return logdet(dense_system(symbol, rule, 0))


def dense_hankel(coeffs, start, stop):
    """I + H for H_{jk} = coeffs[j + k + 1], start <= j, k < stop; coeffs[0]
    is not read."""
    # H, the identity and their sum
    check_dense("dense_hankel", stop - start, np.asarray(coeffs).itemsize, 3)
    H = scipy.linalg.hankel(coeffs[2 * start + 1:start + stop + 1], coeffs[start + stop:2 * stop])
    return np.eye(stop - start, dtype=H.dtype) + H


def reg_coeffs(beta, r, kmax):
    """The coefficients k = 0..kmax of u_{b,r} from the FFT table."""
    return reg_coeff_table(CircleSymbol(CircleKind.UBETA_R, beta=beta, r=r), kmax)[kmax:]


def jump_coeffs(beta, kmax):
    """The coefficients k = 0..kmax of u_b in closed form."""
    return fourier_coeff_u(beta, np.arange(kmax + 1))


def dense_section_inverse(beta, n, sign, N):
    """log det of the n x n block of (I +- H_N(u_{-beta}))^{-1} by a dense
    solve."""
    # I +- H_N (three arrays while it is built), then it, the identity and the LU
    check_dense("dense_section_inverse", N, _itemsize(beta), 3)
    A = dense_hankel(sign * jump_coeffs(-beta, 2 * N), 0, N)
    X = np.linalg.solve(A, np.eye(N, dtype=A.dtype)[:, :n])
    return logdet(X[:n, :])


def dense_d_n(beta, n, sign):
    """log det[T_n(v_beta) +- H_n(v_beta)] by a pivoted LU of the assembled
    matrix; real for a real beta."""
    b = working_beta(complex(beta))
    # T_n, H_n and the LU's copy of their sum
    check_dense("dense_d_n", n, np.result_type(b).itemsize, 3)
    c = fourier_coeff_v(beta, np.arange(-(2 * n - 1), 2 * n))
    off = 2 * n - 1  # c[off + k] is the coefficient k
    A = scipy.linalg.toeplitz(c[off:off + n], c[off::-1][:n])       # c_{j-k}
    A += sign * scipy.linalg.hankel(c[off + 1:off + n + 1], c[off + n:])  # c_{j+k+1}
    return logdet(A)
