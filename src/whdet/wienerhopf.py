"""Truncated Wiener-Hopf +- Hankel operators on [0, R] by Nystrom
discretization, and the sech-symbol laboratory.

Every kernel is a compressed exponential sum k(u) = sum_q w_q e^{-eta_q |u|}
of a few dozen terms (``symbols.cut_kernel``, ``symbols.sech_kernel``).
A branch-cut kernel is compressed on the window its determinant reads:
[0, 2R] for det(W_R +- H_R), whose H-block reaches x_i + x_j = 2R, and
[0, R2] for det W_R2, so the two sides of the doubling identity share one
kernel.  The sech kernel is one fit for every R.  The W-block
k(x_i - x_j) is then quasiseparable, and the H-block k(x_i + x_j) =
sum_q w_q e^{-eta_q x_i} e^{-eta_q x_j} is the left boundary condition of
the same recursion: ``expsum.expsum_logdet``, given the sign, starts its
r x r state from it, and takes every determinant here in O(N r^2) time and
O(N r) memory, at any truncation R; no N x N matrix is formed.

A jump kernel (UHAT_EPS, whose weights for u > 0 and u < 0 differ) is not
trace class, so its determinant depends on the diagonal.  Here the
diagonal holds the mean (k(0+) + k(0-))/2, as ``ExpSum.block`` and
``ExpSum.__call__`` read k at u = 0.  The exact determinant of the
operator's state-space realization (Gohberg & Kaashoek, IEOT 7, 1984)
differs from this one by R (k(0-) - k(0+))/2, beyond the Nystrom error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .expsum import ExpSum, expsum_logdet
from .logdet import LogDet
from .params import check_order, check_positive, check_sign
from .quadrature import QuadRule, gauss_rule
from .symbols import LineKind, LineSymbol, cut_kernel, sech_kernel

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
    """``rule``, which must live on [0, R] with at least one node, one
    weight per node and every node in [0, R], or ``wh_rule(R)`` if None."""
    if rule is None:
        return wh_rule(R)
    lo, hi = rule.interval
    if lo != 0.0 or abs(hi - R) > 1e-12:
        raise DomainError(f"rule interval {rule.interval} does not match [0, {R}]")
    x = rule.nodes
    if len(x) == 0 or np.shape(rule.weights) != np.shape(x):
        raise DomainError(f"rule needs at least one node and one weight per node, got"
                          f" {len(x)} nodes and {len(rule.weights)} weights")
    # NaN fails both comparisons
    if not np.all((x >= 0.0) & (x <= hi)):
        raise DomainError(f"rule nodes must be finite and lie in [0, {R}]")
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
    return expsum_logdet(k, rule, t.sign)


def det_w2r(symbol: LineSymbol, R2: float, rule: Optional[QuadRule] = None) -> LogDet:
    """log det W_{R2}(a) = log det of I + k(x_i - x_j) on [0, R2]."""
    _check_kind(symbol)
    check_positive(R2, "R2")
    rule = _rule_on(R2, rule)
    return expsum_logdet(_kernel(symbol, R2), rule)

