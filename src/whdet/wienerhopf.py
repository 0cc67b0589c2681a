"""Truncated Wiener-Hopf +- Hankel operators on [0, R] by Nystrom
discretization, and the sech-symbol laboratory.

Kernels come from the branch-cut representation (a finite sum of decaying
exponentials), so the W-block k(x_i - x_j) and H-block k(x_i + x_j) are
assembled with two matrix products instead of per-pair quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError
from .logdet import LogDet, logdet
from .params import BetaContext, beta_value, check_sign, working_beta
from .quadrature import QuadRule, gauss_rule
from .specfun import ln_barnes_g
from .symbols import CutKernel, LineKind, LineSymbol, cut_eta_rule, cut_kernel, eval_line

_SUPPORTED = (LineKind.VHAT_EPS, LineKind.PHI, LineKind.UHAT_EPS)
#: beyond this truncation the e^{+eta x} factor of the cut assembly overflows
_FAST_PATH_MAX_R = 600.0


def wh_rule(R: float, panels: Optional[int] = None, nodes: int = 16) -> QuadRule:
    """Default [0, R] rule: uniform panels, about two per unit length.

    The dominant discretization error comes from the |x - y| kink of the
    W-block along the diagonal (observed O(h^2)), so panels must shrink
    with R rather than stay fixed; uniform panels also keep the rule
    flip-symmetric, which makes the doubling identity exact at the
    discrete level.
    """
    if R <= 0:
        raise DomainError("R must be positive")
    if panels is None:
        panels = max(16, int(math.ceil(2.0 * R)))
    return gauss_rule(nodes, (0.0, R), grading=("uniform", panels))


def reflected_union_rule(rule: QuadRule) -> QuadRule:
    """The [0, 2R] rule whose nodes are the [0, R] nodes plus their
    reflections 2R - x; this is the matched quadrature for the doubling
    identity."""
    lo, R = rule.interval
    if lo != 0.0:
        raise DomainError("union rule expects an interval starting at 0")
    nodes = np.concatenate([rule.nodes, 2.0 * R - rule.nodes[::-1]])
    weights = np.concatenate([rule.weights, rule.weights[::-1]])
    return QuadRule(nodes, weights, (0.0, 2.0 * R), rule.grading)


@dataclass(frozen=True)
class TruncatedWH:
    """det(W_R(a) +- H_R(a)) problem description."""

    symbol: LineSymbol
    R: float
    rule: Optional[QuadRule] = None
    sign: int = +1

    def __post_init__(self):
        if self.symbol.kind not in _SUPPORTED:
            raise DomainError(f"symbol kind {self.symbol.kind} not supported for truncation")
        if self.R <= 0:
            raise DomainError("R must be positive")
        check_sign(self.sign)


def _sech_blocks(beta, xs: np.ndarray, sign: int) -> np.ndarray:
    """k(x_i - x_j) + sign k(x_i + x_j) for the sech kernel."""
    pref = -np.sin(np.pi * beta) / (2.0 * np.pi)
    K = pref / np.cosh(np.subtract.outer(xs, xs) / 2.0)
    if sign:
        K += sign * pref / np.cosh(np.add.outer(xs, xs) / 2.0)
    return K


def _cut_blocks(ker: CutKernel, xs: np.ndarray, sign: int) -> np.ndarray:
    """W-block k(x_i-x_j) plus sign times the H-block k(x_i+x_j), from a
    cut representation; sign 0 assembles the W-block alone."""
    if xs[-1] > _FAST_PATH_MAX_R:
        raise DomainError(
            f"cut kernel assembly needs nodes in [0, {_FAST_PATH_MAX_R:g}], "
            f"got a node at {xs[-1]:.6g}")
    eta = ker.eta
    e_dn = np.exp(-np.outer(xs, eta))           # e^{-eta x_i}
    e_up = np.exp(np.outer(xs, eta))            # e^{+eta x_j}
    lower = e_dn @ (e_up * ker.w_pos).T         # valid on i >= j
    if ker.w_pos is ker.w_neg or np.array_equal(ker.w_pos, ker.w_neg):
        K = np.tril(lower)
        K += np.tril(lower, -1).T
    else:
        upper = e_dn @ (e_up * ker.w_neg).T     # k(neg) at |x_i-x_j|, use on i < j
        K = np.tril(lower, -1)
        K += np.triu(upper.T, 1)
        K[np.diag_indices_from(K)] = 0.5 * (np.sum(ker.w_pos) + np.sum(ker.w_neg))
    if sign:
        K += e_dn @ (e_dn * (sign * ker.w_pos)).T
    return K


def _system(symbol: LineSymbol, rule: QuadRule, sign: int) -> np.ndarray:
    """I + sqrt(w_i) [k(x_i - x_j) + sign k(x_i + x_j)] sqrt(w_j); sign 0
    leaves the H-block out.  Real for a real beta (see working_beta)."""
    xs = rule.nodes
    if symbol.kind is LineKind.PHI:
        K = _sech_blocks(working_beta(complex(symbol.beta)), xs, sign)
    else:
        K = _cut_blocks(cut_kernel(symbol), xs, sign)
    sw = np.sqrt(rule.weights)
    K *= sw[:, None]
    K *= sw[None, :]
    K[np.diag_indices_from(K)] += 1.0
    return K


def det_wr_pm_hr(t: TruncatedWH) -> LogDet:
    """log det of I + [k(x_i - x_j) +- k(x_i + x_j)] under symmetrized weights."""
    rule = t.rule or wh_rule(t.R)
    if abs(rule.interval[1] - t.R) > 1e-12 or rule.interval[0] != 0.0:
        raise DomainError(f"rule interval {rule.interval} does not match [0, {t.R}]")
    return logdet(_system(t.symbol, rule, t.sign))


def det_w2r(symbol: LineSymbol, R2: float, rule: Optional[QuadRule] = None) -> LogDet:
    """log det W_{R2}(a) = log det of I + k(x_i - x_j) on [0, R2]."""
    if symbol.kind not in _SUPPORTED:
        raise DomainError(f"symbol kind {symbol.kind} not supported for truncation")
    return logdet(_system(symbol, rule or wh_rule(R2), 0))


def ln_akhiezer_kac_E(beta) -> complex:
    """log of the R-independent constant for the sech symbol:
    G^2(3/2+b/2) G^2(1+b/2) G^2(1-b/2) G^2(1/2-b/2) /
    [G(1/2) G(3/2) G(3/2+b) G(1/2-b)]."""
    b = beta_value(beta, BetaContext.SECH)
    num = 2.0 * (
        ln_barnes_g(1.5 + b / 2)
        + ln_barnes_g(1.0 + b / 2)
        + ln_barnes_g(1.0 - b / 2)
        + ln_barnes_g(0.5 - b / 2)
    )
    den = (
        ln_barnes_g(0.5)
        + ln_barnes_g(1.5)
        + ln_barnes_g(1.5 + b)
        + ln_barnes_g(0.5 - b)
    )
    return num - den


def akhiezer_kac_E(beta) -> complex:
    """The constant itself (exp of ln_akhiezer_kac_E)."""
    return complex(np.exp(ln_akhiezer_kac_E(beta)))


def geometric_mean_log(symbol: LineSymbol) -> complex:
    """(1/2pi) int log a(x) dx: closed forms for the regularized zero/pole
    symbol (-b(1-eps)) and the sech symbol (-b/2 - b^2/2); quadrature
    otherwise."""
    b = complex(symbol.beta)
    if symbol.kind is LineKind.VHAT_EPS:
        return -b * (1.0 - symbol.eps)
    if symbol.kind is LineKind.PHI:
        return -b / 2.0 - b * b / 2.0
    if symbol.kind is LineKind.VHAT:
        return -b

    def integrand(u):
        x = math.tan(u)
        val = np.log(eval_line(symbol, x)) / math.cos(u) ** 2
        return val

    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            re, re_err = quad(lambda u: float(np.real(integrand(u))),
                              -np.pi / 2, np.pi / 2, limit=400)
            im, im_err = quad(lambda u: float(np.imag(integrand(u))),
                              -np.pi / 2, np.pi / 2, limit=400)
        diverged = any(issubclass(w.category, IntegrationWarning) for w in caught)
    except Exception as exc:  # quadrature blow-up means log a is not integrable
        raise DomainError(f"log-symbol quadrature failed: {exc}") from exc
    if diverged or not (np.isfinite(re) and np.isfinite(im)) or re_err + im_err > 1e-6:
        raise DomainError("log-symbol integral did not converge (winding or integrability)")
    return complex(re, im) / (2.0 * np.pi)


def factor_product_logdet(beta, eps: float, R: float,
                          rule: Optional[QuadRule] = None) -> LogDet:
    """log det of the Nystrom discretization of W_R(a_-) W_R(a_+) for the
    Wiener-Hopf factors a_+-(x) = ((x +- i eps)/(x +- i))^beta.

    The two factors are Volterra (their kernels live on one side of the
    diagonal) and are not separately trace class, so the product kernel
    k_-(x-y) + k_+(x-y) + int k_-(x-z) k_+(z-y) dz is assembled directly;
    the composition integral is evaluated in closed form through the cut
    representation.  The continuous determinant equals G[a]^R with
    ln G[a] = -beta (1 - eps).
    """
    b = working_beta(beta_value(beta, BetaContext.KERNEL_FAMILY))
    rule = rule or wh_rule(R)
    xs = rule.nodes
    # cut representation of k_+ (supported on w > 0): weights on [eps, 1]
    erule = cut_eta_rule(eps)
    eta, wq = erule.nodes, erule.weights
    W = -np.sin(np.pi * b) / np.pi * wq * ((eta - eps) / (1.0 - eta)) ** b
    # ksum(u) = k_+(|u|); composition term C = g2(|x-y|) - A^T G A
    e_dn = np.exp(-np.outer(xs, eta))
    e_up = np.exp(np.outer(xs, eta))
    lower = e_dn @ (e_up * W).T
    ksum = np.tril(lower) + np.tril(lower, -1).T
    G = np.multiply.outer(W, W) / np.add.outer(eta, eta)
    # g2(u) = sum_q' [sum_q W_q/(eta_q+eta_q')] W_q' e^{-eta_q' u}
    W2 = np.sum(G, axis=0)
    lower2 = e_dn @ (e_up * W2).T
    g2 = np.tril(lower2) + np.tril(lower2, -1).T
    A = np.exp(-np.multiply.outer(eta, R - xs))
    C = g2 - A.T @ G @ A
    sw = np.sqrt(rule.weights)
    T = sw[:, None] * (ksum + C) * sw[None, :]
    return logdet(np.eye(len(xs), dtype=T.dtype) + T)
