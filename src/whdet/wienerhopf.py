"""Truncated Wiener-Hopf +- Hankel operators on [0, R] by Nystrom
discretization, and the sech-symbol laboratory.

Every kernel is a compressed exponential sum k(u) = sum_q w_q e^{-eta_q |u|}
of a few dozen terms (``symbols.cut_kernel``, ``symbols.sech_kernel``).
A branch-cut kernel is compressed on the window its determinant reads:
[0, 2R] for det(W_R +- H_R), whose H-block reaches x_i + x_j = 2R, and
[0, R2] for det W_R2, so the two sides of the doubling identity share one
kernel; the factor-product determinant reads [0, R].  The sech kernel is
one fit for every R.  The W-block k(x_i - x_j) is then quasiseparable,
and the H-block k(x_i + x_j) = sum_q w_q e^{-eta_q x_i} e^{-eta_q x_j} is
the left boundary condition of the same recursion:
``expsum.expsum_logdet`` starts its r x r state from it, and takes every
determinant here in O(N r^2) time and O(N r) memory, at any truncation R;
no N x N matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .expsum import ExpSum, expsum_logdet
from .logdet import LogDet
from .params import (BetaContext, check_beta, check_eps, check_order, check_positive,
                     check_sign, working_beta)
from .quadrature import QuadRule, gauss_rule
from .specfun import sin_pi
from .symbols import LineKind, LineSymbol, cut_kernel, cut_rule, sech_kernel

_SUPPORTED = (LineKind.VHAT_EPS, LineKind.PHI, LineKind.UHAT_EPS)


def wh_rule(R: float, panels: Optional[int] = None, nodes: int = 16) -> QuadRule:
    """Default [0, R] rule: uniform panels, about two per unit length.

    The dominant discretization error comes from the |x - y| kink of the
    W-block along the diagonal (observed O(h^2)), so panels must shrink
    with R rather than stay fixed; uniform panels also keep the rule
    flip-symmetric, which makes the doubling identity exact at the
    discrete level.
    """
    check_positive(R, "R")
    panels = max(16, int(math.ceil(2.0 * R))) if panels is None else check_order(panels, "panels")
    return gauss_rule(nodes, R * np.linspace(0.0, 1.0, panels + 1))


def reflected_union_rule(rule: QuadRule) -> QuadRule:
    """The [0, 2R] rule whose nodes are the [0, R] nodes plus their
    reflections 2R - x; this is the matched quadrature for the doubling
    identity."""
    lo, R = rule.interval
    if lo != 0.0:
        raise DomainError("union rule expects an interval starting at 0")
    nodes = np.concatenate([rule.nodes, 2.0 * R - rule.nodes[::-1]])
    weights = np.concatenate([rule.weights, rule.weights[::-1]])
    return QuadRule(nodes, weights, (0.0, 2.0 * R))


@dataclass(frozen=True)
class TruncatedWH:
    """det(W_R(a) +- H_R(a)) problem description."""

    symbol: LineSymbol
    R: float
    rule: Optional[QuadRule] = None
    sign: int = +1

    def __post_init__(self):
        _check_kind(self.symbol)
        check_positive(self.R, "R")
        check_sign(self.sign)


def _check_kind(symbol: LineSymbol) -> None:
    if symbol.kind not in _SUPPORTED:
        raise DomainError(f"symbol kind {symbol.kind} not supported for truncation")


def _rule_on(R: float, rule: Optional[QuadRule]) -> QuadRule:
    """``rule``, which must live on [0, R], or ``wh_rule(R)`` if None."""
    if rule is None:
        return wh_rule(R)
    lo, hi = rule.interval
    if lo != 0.0 or abs(hi - R) > 1e-12:
        raise DomainError(f"rule interval {rule.interval} does not match [0, {R}]")
    return rule


def _kernel(symbol: LineSymbol, window: float) -> ExpSum:
    """The symbol's kernel, to be read at |u| <= window: the branch-cut sum
    compressed on that window, or the one sech fit."""
    if symbol.kind is LineKind.PHI:
        return sech_kernel(symbol.beta)
    return cut_kernel(symbol, window)


def det_wr_pm_hr(t: TruncatedWH) -> LogDet:
    """log det of I + [k(x_i - x_j) +- k(x_i + x_j)] under symmetrized weights.

    The H-block reads the kernel at x_i + x_j <= 2R, so it is compressed on
    [0, 2R]: the window of det W_2R, the doubling identity's partner."""
    rule = _rule_on(t.R, t.rule)
    k = _kernel(t.symbol, 2.0 * t.R)
    # H-block: k(x_i + x_j) = sum_q w_q e^{-eta_q x_i} e^{-eta_q x_j}
    return expsum_logdet(k, rule, np.diag(t.sign * k.w_pos))


def det_w2r(symbol: LineSymbol, R2: float, rule: Optional[QuadRule] = None) -> LogDet:
    """log det W_{R2}(a) = log det of I + k(x_i - x_j) on [0, R2]."""
    _check_kind(symbol)
    check_positive(R2, "R2")
    return expsum_logdet(_kernel(symbol, R2), _rule_on(R2, rule))


def factor_product_logdet(beta, eps: float, R: float,
                          rule: Optional[QuadRule] = None) -> LogDet:
    """log det of the Nystrom discretization of W_R(a_-) W_R(a_+) for the
    Wiener-Hopf factors a_+-(x) = ((x +- i eps)/(x +- i))^beta.

    The two factors are Volterra (their kernels live on one side of the
    diagonal) and are not separately trace class, so the product kernel
    k_-(x-y) + k_+(x-y) + int k_-(x-z) k_+(z-y) dz is taken directly; the
    composition integral is in closed form through the cut representation:
    an even exponential sum plus a term of the rank of the compressed sum.  The continuous determinant equals G[a]^R with
    ln G[a] = -beta (1 - eps).
    """
    b = working_beta(check_beta(beta, BetaContext.KERNEL_FAMILY))
    check_eps(eps)
    check_positive(R, "R")
    rule = _rule_on(R, rule)
    # cut representation of k_+ (supported on w > 0): W_q e^{-eta_q w}
    eta, W = cut_rule(eps, b)
    W = -sin_pi(b) / np.pi * W
    # composition term: g2(|x - y|) - A^T G A with A_qi = e^{-eta_q (R - x_i)},
    # g2(u) = sum_q' [sum_q G_qq'] e^{-eta_q' u}
    G = np.multiply.outer(W, W) / np.add.outer(eta, eta)
    # the kernel at |x - y| <= R and the interpolation at R - x in [0, R]
    k = ExpSum(eta, W + np.sum(G, axis=0), W + np.sum(G, axis=0)).compress(R)
    # A^T G A through the compressed exponents: e^{-eta u} ~ e^{-eta_J u} interp;
    # A is anchored at x = R, so the Hankel term reads the mirrored nodes R - x
    M = k.interp @ G @ k.interp.T
    mirrored = QuadRule(R - rule.nodes, rule.weights, rule.interval)
    return expsum_logdet(k, mirrored, -0.5 * (M + M.T))
