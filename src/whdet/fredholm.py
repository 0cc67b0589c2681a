"""Nystrom discretization of the explicit kernel family and the
projection-quotient identity.

Each kernel is the Cauchy kernel 1/(x+y) times node factors (``kernel_eval``);
graded composite Gauss panels toward the singular endpoints keep the
discretized determinants accurate to ~1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .asymptotics import ln_det_hankel_reg_exact
from .errors import DomainError
from .logdet import LogDet, check_dense, logdet
from .params import (BetaContext, check_beta, check_eps, check_order, check_positive,
                     check_sign, working_beta)
from .quadrature import QuadRule, gauss_rule, geometric_ends
from .specfun import sin_pi


class KernelFamily(Enum):
    K0 = "k0"              # -(sin pi b)/pi * 1/(x+y)                 on [0,1]
    KN = "kn"              # ... * ((1-x)/(1+x))^{2n-b/2} ((1-y)/(1+y))^{-b/2}  on [0,1]
    KHAT_R = "khat_r"      # ... * ((1-x)(1-y)/((1+x)(1+y)))^{-b/2} e^{-2Rx}    on [0,1]
    KEPS_N = "keps_n"      # regularized, on [eps,1]
    KHAT_EPS_R = "khat_eps_r"  # regularized, on [eps,1]
    HBETA = "hbeta"        # ... * ((x-1)(y-1)/((x+1)(y+1)))^{b/2}    on [1,inf)


@dataclass(frozen=True)
class KernelSpec:
    """Which member of the kernel family, with its parameters."""

    family: KernelFamily
    beta: complex
    n: int = 0
    R: float = 0.0
    eps: float = 0.0

    def __post_init__(self):
        check_beta(self.beta, BetaContext.KERNEL_FAMILY)
        if self.family in (KernelFamily.KEPS_N, KernelFamily.KHAT_EPS_R):
            check_eps(self.eps)
        if self.family in (KernelFamily.KN, KernelFamily.KEPS_N):
            check_order(self.n)
        if self.family in (KernelFamily.KHAT_R, KernelFamily.KHAT_EPS_R):
            check_positive(self.R, "R")

    @property
    def interval(self) -> Tuple[float, float]:
        if self.family in (KernelFamily.KEPS_N, KernelFamily.KHAT_EPS_R):
            return (self.eps, 1.0)
        if self.family is KernelFamily.HBETA:
            return (1.0, np.inf)
        return (0.0, 1.0)


def kernel_eval(spec: KernelSpec, x, y):
    """K(x, y) = -(sin pi b / pi) sigma(x) lambda(x) sigma(y) / (x + y) at interior
    points of spec.interval = (lo, hi); principal powers of positive factors, so
    real values for a real beta.  sigma(t) = ((1+t)(t-lo)/((1-t)(t+lo)))^{b/2}
    for KN, KHAT_R (lo = 0: the eps = 0 members), KEPS_N and KHAT_EPS_R (lo = eps),
    ((t-1)/(t+1))^{b/2} for HBETA, 1 for K0; lambda(x) = ((1-x)/(1+x))^{2n} for
    KN and KEPS_N, e^{-2Rx} for KHAT_R and KHAT_EPS_R, 1 for K0 and HBETA.  x and
    y broadcast, so x[:, None], x[None, :] takes the factors at the N nodes."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = working_beta(complex(spec.beta))
    lo, hi = spec.interval
    # every interval has lo >= 0, so x + y > 0 from here on
    if not all(np.all((lo < t) & (t < hi)) for t in (x, y)):  # NaN included
        raise DomainError("kernel evaluated on or outside the interval boundary")
    fam = spec.family
    if fam is KernelFamily.K0:
        sx = sy = 1.0
    elif fam is KernelFamily.HBETA:
        sx, sy = (((t - 1.0) / (t + 1.0)) ** (b / 2) for t in (x, y))
    else:
        sx, sy = (((1.0 + t) * (t - lo) / ((1.0 - t) * (t + lo))) ** (b / 2) for t in (x, y))
    lam = 1.0
    if fam in (KernelFamily.KN, KernelFamily.KEPS_N):
        lam = ((1.0 - x) / (1.0 + x)) ** (2 * spec.n)
    elif fam in (KernelFamily.KHAT_R, KernelFamily.KHAT_EPS_R):
        lam = np.exp(-2 * spec.R * x)
    k = -sin_pi(b) / np.pi * sx * lam / (x + y)
    k *= sy  # in place: x + y and k are the only N x N arrays held
    return k


@dataclass(frozen=True)
class NystromOp:
    """A discretized integral operator: sqrt(w_i) k(x_i, x_j) sqrt(w_j)."""

    rule: QuadRule
    matrix: np.ndarray


def default_rule(spec: KernelSpec, nodes: int = 16) -> QuadRule:
    """Graded rule adapted to the family's endpoint singularities.

    HBETA's (1, inf) is mapped by x = 1/t onto (0, 1], graded toward
    t = 0, with the Jacobian 1/t^2 folded into the weights."""
    lo, hi = spec.interval
    if np.isinf(hi):
        inner = gauss_rule(nodes, geometric_ends(0.0, 1.0 / lo, 0, 36))
        return QuadRule(1.0 / inner.nodes[::-1], (inner.weights / inner.nodes**2)[::-1],
                        (lo, np.inf))
    levels = max(30, int(np.ceil(-np.log2(max(lo, 1e-14)))) + 20)
    return gauss_rule(nodes, geometric_ends(lo, hi, levels, 26))


def nystrom(spec: KernelSpec, rule: Optional[QuadRule] = None) -> NystromOp:
    """Assemble the symmetrized weighted kernel matrix on a rule.

    The rule must live inside the family's interval (a sub-interval is
    allowed: that is how the restriction of K0 to [eps,1] is built).
    """
    if rule is None:
        rule = default_rule(spec)
    lo, hi = spec.interval
    if rule.interval[0] < lo - 1e-15 or rule.interval[1] > hi + 1e-15:
        raise DomainError(f"rule interval {rule.interval} outside family interval {(lo, hi)}")
    x = rule.nodes
    # x + y and the kernel (see kernel_eval); complex for a complex beta
    check_dense("nystrom", len(x), np.result_type(working_beta(complex(spec.beta))).itemsize, 2)
    K = kernel_eval(spec, x[:, None], x[None, :])
    sw = np.sqrt(rule.weights)
    K *= sw[:, None]
    K *= sw
    return NystromOp(rule, K)


def fredholm_logdet(op: NystromOp, sign: int) -> LogDet:
    """log det(I +- K) of a discretized operator."""
    check_sign(sign)
    m = op.matrix
    return logdet(np.eye(m.shape[0], dtype=m.dtype) + sign * m)


def quotient_identity(A: np.ndarray, p: int) -> Tuple[LogDet, LogDet]:
    """Both sides of det[P (I+A)^{-1} P] = det(I + QAQ) / det(I + A).

    P keeps the leading p coordinates, Q = I - P; the left side embeds the
    p x p block of the inverse as block + Q before taking the determinant.
    """
    A = np.asarray(A)
    dim = A.shape[0]
    if not 0 < p <= dim:
        raise DomainError(f"block size p={p} out of range for dim {dim}")
    eye = np.eye(dim, dtype=A.dtype)
    X = np.linalg.solve(eye + A, eye[:, :p])
    lhs = logdet(X[:p, :])
    QAQ = A.copy()
    QAQ[:p, :] = 0.0
    QAQ[:, :p] = 0.0
    rhs = logdet(eye + QAQ) - logdet(eye + A)
    return lhs, rhs


def finite_section_quotient(
    beta,
    sign: int,
    n: Optional[int] = None,
    R: Optional[float] = None,
    eps: float = 1e-3,
) -> LogDet:
    """log det[P (I +- H)^{-1} P] through the kernel-family quotient.

    Discrete route (n given): det(I +- K_{b,eps,n}) over the closed form
    of det(I +- H(u_{b,r})), r = (1-eps)/(1+eps).  Continuous route
    (R given): det(I +- Khat_{b,eps,R}) over the same closed form.  Both
    approach the corresponding pure-symbol projection determinants as
    eps -> 0.
    """
    b = check_beta(beta, BetaContext.KERNEL_FAMILY)
    if (n is None) == (R is None):
        raise DomainError("give exactly one of n (discrete) or R (continuous)")
    if n is not None:
        spec = KernelSpec(KernelFamily.KEPS_N, beta=b, n=n, eps=eps)
    else:
        spec = KernelSpec(KernelFamily.KHAT_EPS_R, beta=b, R=R, eps=eps)
    op = nystrom(spec, default_rule(spec))
    num = fredholm_logdet(op, sign)
    r = (1.0 - eps) / (1.0 + eps)
    den = ln_det_hankel_reg_exact(b, r, sign)
    return LogDet.from_log(num.log - den)
