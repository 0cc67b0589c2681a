"""Every closed form of the theory, in log form: the exact finite-n
Barnes-G products of det T_n(v_b) and det[T_n(v_b) +- H_n(v_b)], the
closed form of det(I +- H(u_{b,r})), every asymptote (one table, one row
per kind), E[phi_b] and C_b; plus convergence tables quantifying how
computed determinants approach them.

This is the one module above ``specfun`` that evaluates Barnes G; the
route modules (``structured``, ``wienerhopf``, ``fredholm``) compute
determinants, and none of them is imported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .logdet import LogDet
from .params import BetaContext, check_beta, check_order, check_positive, check_sign
from .specfun import ln_barnes_g, ln_barnes_ratio

LN_2PI = math.log(2.0 * math.pi)
LN_2 = math.log(2.0)
#: ln G(1/2) and ln G(3/2), the beta-free Barnes values of the constants
_LN_G_HALF = ln_barnes_g(0.5)
_LN_G_3HALF = ln_barnes_g(1.5)
#: h and ln G(h) of the discrete constants by sign: D_n^+ has h = 1/2, D_n^- h = 3/2
_DISCRETE_H = {+1: (0.5, _LN_G_HALF), -1: (1.5, _LN_G_3HALF)}


def _k_discrete(b: complex, sign: int) -> complex:
    """K_+-(b), the n-free constant of D_n^+-:
    (b/2) ln 2pi - (b^2/2) ln 2 + ln G(h) - ln G(h+b)."""
    h, ln_g_h = _DISCRETE_H[sign]
    return (b / 2) * LN_2PI - (b * b / 2) * LN_2 + ln_g_h - ln_barnes_g(h + b)


def _k_toeplitz(b: complex) -> complex:
    """K_T(b) = ln[G(1+b)^2/G(1+2b)], the n-free constant of det T_n(v_b)."""
    return 2.0 * ln_barnes_g(1.0 + b) - ln_barnes_g(1.0 + 2.0 * b)


def d_n_exact(beta, n: int, sign: int) -> LogDet:
    """The exact finite-n Barnes-G product for det[T_n(v) +- H_n(v)]:
    e^{K_+-(b)} G(n+2-h) G(n+1) G(n+1+b) G(n+h+b) /
    [G(n+1/2+b/2) G(n+1+b/2)^2 G(n+3/2+b/2)], h as in ``_k_discrete``.

    Valid on the analytically continued domains (beta off -1/2, -3/2, ...
    for the + sign, off -3/2, -5/2, ... for the - sign).  The eight G's
    are one balanced ``ln_barnes_ratio`` about z = n, within 3e-13 of a
    40-digit evaluation at every n up to 1e5 for |Re b|, |Im b| < 1/2.
    """
    check_sign(sign)
    ctx = BetaContext.DISCRETE_PLUS if sign > 0 else BetaContext.DISCRETE_MINUS
    b = check_beta(beta, ctx)
    n = check_order(n)
    h = _DISCRETE_H[sign][0]
    ratio = ln_barnes_ratio((1.0 - h, 0.0, b, h - 1.0 + b),
                            (b / 2 - 0.5, b / 2, b / 2, b / 2 + 0.5), n)
    return LogDet.from_log(_k_discrete(b, sign) + ratio)


def det_tn_exact(beta, n: int) -> LogDet:
    """Exact det T_n(v_beta) = G(1+b)^2/G(1+2b) * G(1+n)G(1+2b+n)/G(1+b+n)^2,
    the n-dependent part as one balanced ``ln_barnes_ratio``."""
    b = check_beta(beta, BetaContext.FINITE)
    n = check_order(n)
    return LogDet.from_log(_k_toeplitz(b) + ln_barnes_ratio((0.0, 2.0 * b), (b, b), n))


def ln_det_hankel_reg_exact(beta, r: float, sign: int) -> complex:
    """Closed form of log det(I +- H(u_{beta,r})):
    ((1-r)/(1+r))^{+-b/2} (1-r^2)^{b^2/2}."""
    b = check_beta(beta, BetaContext.FINITE)
    check_sign(sign)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"need 0 <= r < 1, got {r}")
    if r == 0.0:
        return 0.0 + 0.0j
    return sign * b / 2 * math.log((1 - r) / (1 + r)) + b * b / 2 * math.log(1 - r * r)


def ln_akhiezer_kac_E(beta) -> complex:
    """log of the R-independent constant for the sech symbol:
    G^2(3/2+b/2) G^2(1+b/2) G^2(1-b/2) G^2(1/2-b/2) /
    [G(1/2) G(3/2) G(3/2+b) G(1/2-b)]."""
    b = check_beta(beta, BetaContext.SECH)
    num = 2.0 * (
        ln_barnes_g(1.5 + b / 2)
        + ln_barnes_g(1.0 + b / 2)
        + ln_barnes_g(1.0 - b / 2)
        + ln_barnes_g(0.5 - b / 2)
    )
    den = _LN_G_HALF + _LN_G_3HALF + ln_barnes_g(1.5 + b) + ln_barnes_g(0.5 - b)
    return num - den


def akhiezer_kac_E(beta) -> complex:
    """The constant itself (exp of ln_akhiezer_kac_E)."""
    return complex(np.exp(ln_akhiezer_kac_E(beta)))


def ln_c_beta(beta) -> complex:
    """log of C_b = 2^{b^2} G(1/2)G(3/2)G(3/2+b)G(1/2-b) /
    [G^2(3/2+b/2) G^2(1+b/2) G^2(1-b/2) G^2(1/2-b/2)]."""
    b = check_beta(beta, BetaContext.CONTINUOUS_MINUS)
    return b * b * LN_2 - ln_akhiezer_kac_E(b)


def c_beta(beta) -> complex:
    """The constant C_b itself."""
    return complex(np.exp(ln_c_beta(beta)))


#: (1/2pi) int log a(x) dx of the line symbols with a finite one, keyed by
#: the LineKind name and taking (beta, eps)
_GEOMETRIC_MEANS = {
    "VHAT": lambda b, eps: -b,
    "VHAT_EPS": lambda b, eps: -b * (1.0 - eps),
    "PHI": lambda b, eps: -b / 2.0 - b * b / 2.0,
    "UHAT_EPS": lambda b, eps: 0j,
}


def geometric_mean_log(symbol) -> complex:
    """(1/2pi) int log a(x) dx of a LineSymbol, the limit of the integral
    over [-X, X], in closed form: -b for the zero/pole symbol, -b(1-eps)
    for its regularization, -b/2 - b^2/2 for the sech symbol and 0 for the
    regularized jump symbol, where the logs of the two factors
    ((x -+ eps i)/(x -+ i))^{-+b} tend to -+b pi (eps - 1) (close the
    contour in the half plane where the factor is analytic).  Any other
    kind (the pure jump symbol) raises DomainError."""
    mean = _GEOMETRIC_MEANS.get(symbol.kind.name)
    if mean is None:
        raise DomainError(f"no geometric mean for symbol kind {symbol.kind}")
    return mean(complex(symbol.beta), symbol.eps)


class AsymKind(Enum):
    CONTINUOUS_PLUS = "continuous+"       # e^{-bR} R^{b^2/2-b/2} (2pi)^{b/2} 2^{-b^2+b/2} G(1/2)/G(1/2+b)
    CONTINUOUS_MINUS = "continuous-"      # e^{-bR} R^{b^2/2+b/2} (2pi)^{b/2} 2^{-b^2-b/2} G(3/2)/G(3/2+b)
    DISCRETE_PLUS = "disc+"       # n^{b^2/2-b/2} (2pi)^{b/2} 2^{-b^2/2} G(1/2)/G(1/2+b)
    DISCRETE_MINUS = "disc-"      # n^{b^2/2+b/2} (2pi)^{b/2} 2^{-b^2/2} G(3/2)/G(3/2+b)
    W2R_CONT = "w2r"              # at scale S=2R: e^{-bS} (S/2)^{b^2} G(1+b)^2/G(1+2b)
    T2N_DISCRETE = "t2n"          # at scale m=2n: m^{b^2} G(1+b)^2/G(1+2b)
    SECH = "sech"           # e^{-s(b/2+b^2/2)} E[phi_b]
    CBETA = "cbeta"               # the scale-free constant C_b


def _continuous(partner: AsymKind):
    """A continuous asymptote at scale s: -b s plus its discrete partner's at s/2."""
    return lambda b, s: -b * s + _ASYMPTOTES[partner][1](b, s / 2.0)


#: each kind's beta strip and its log-asymptote (b, scale) -> complex
_ASYMPTOTES = {
    AsymKind.CONTINUOUS_PLUS: (BetaContext.CONTINUOUS_PLUS, _continuous(AsymKind.DISCRETE_PLUS)),
    AsymKind.CONTINUOUS_MINUS:
        (BetaContext.CONTINUOUS_MINUS, _continuous(AsymKind.DISCRETE_MINUS)),
    AsymKind.DISCRETE_PLUS: (BetaContext.DISCRETE_PLUS,
                             lambda b, n: (b * b / 2 - b / 2) * math.log(n) + _k_discrete(b, +1)),
    AsymKind.DISCRETE_MINUS: (BetaContext.DISCRETE_MINUS,
                              lambda b, n: (b * b / 2 + b / 2) * math.log(n) + _k_discrete(b, -1)),
    AsymKind.W2R_CONT: (BetaContext.MATRIX, _continuous(AsymKind.T2N_DISCRETE)),
    AsymKind.T2N_DISCRETE: (BetaContext.MATRIX, lambda b, m: b * b * math.log(m) + _k_toeplitz(b)),
    AsymKind.SECH: (BetaContext.SECH,
                    lambda b, s: -s * (b / 2 + b * b / 2) + ln_akhiezer_kac_E(b)),
    AsymKind.CBETA: (BetaContext.CONTINUOUS_MINUS, lambda b, s: ln_c_beta(b)),
}


@dataclass(frozen=True)
class AsymptoteSpec:
    kind: AsymKind
    beta: complex

    def __post_init__(self):
        check_beta(self.beta, _ASYMPTOTES[self.kind][0])


def asymptote_log(spec: AsymptoteSpec, scale: float) -> complex:
    """log of the full asymptotic expression at the given scale.

    The continuous kinds are the formulas for the unregularized symbol
    (x^2/(1+x^2))^b.  A regularized symbol ((x^2+eps^2)/(x^2+1))^b follows
    them while eps*scale << 1, which is where they are compared.
    """
    if spec.kind is not AsymKind.CBETA:
        check_positive(scale, "scale")
    return _ASYMPTOTES[spec.kind][1](complex(spec.beta), scale)


@dataclass(frozen=True)
class ConvergenceRow:
    scale: float
    value: LogDet
    asym_log: complex
    ratio_abs: float
    deviation: float
    local_exponent: Optional[float]  # slope of ln dev vs ln scale to the previous row


@dataclass(frozen=True)
class ConvergenceTable:
    spec: AsymptoteSpec
    rows: List[ConvergenceRow] = field(default_factory=list)
    fitted_exponent: Optional[float] = None

    @property
    def deviations(self) -> List[float]:
        return [r.deviation for r in self.rows]


def convergence_table(
    values: Sequence[Tuple[float, LogDet]],
    spec: AsymptoteSpec,
) -> ConvergenceTable:
    """Quantify convergence of computed log-determinants toward an asymptote.

    Each row reports ratio = exp(logdet - asymptote) and |ratio - 1|; the
    fitted exponent is the least-squares slope of ln deviation against
    ln scale over the last three rows (reported, not asserted).
    """
    if len(values) < 3:
        raise DomainError("need at least 3 scales")
    scales = [s for s, _ in values]
    if any(b <= a for a, b in zip(scales[:-1], scales[1:])):
        raise DomainError("scales must be strictly increasing")
    rows: List[ConvergenceRow] = []
    prev: Optional[Tuple[float, float]] = None
    for s, ld in values:
        a = asymptote_log(spec, s)
        ratio = np.exp(ld.log - a)
        dev = abs(ratio - 1.0)
        expo = None
        if prev is not None and dev > 0 and prev[1] > 0:
            expo = (math.log(dev) - math.log(prev[1])) / (math.log(s) - math.log(prev[0]))
        rows.append(ConvergenceRow(s, ld, a, abs(ratio), dev, expo))
        prev = (s, dev)
    tail = [(math.log(r.scale), math.log(r.deviation)) for r in rows[-3:] if r.deviation > 0]
    fitted = None
    if len(tail) == 3:
        xs = np.array([t[0] for t in tail])
        ys = np.array([t[1] for t in tail])
        fitted = float(np.polyfit(xs, ys, 1)[0])
    return ConvergenceTable(spec, rows, fitted)
