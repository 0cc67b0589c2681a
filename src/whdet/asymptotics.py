"""Every asymptotic formula of the theory, in log form, plus convergence
tables quantifying how computed determinants approach them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .logdet import LogDet
from .params import BetaContext, beta_value
from .specfun import ln_barnes_g
from .wienerhopf import ln_akhiezer_kac_E

LN_2PI = math.log(2.0 * math.pi)
LN_2 = math.log(2.0)


class AsymKind(Enum):
    CONTINUOUS_PLUS = "continuous+"       # e^{-bR} R^{b^2/2-b/2} (2pi)^{b/2} 2^{-b^2+b/2} G(1/2)/G(1/2+b)
    CONTINUOUS_MINUS = "continuous-"      # e^{-bR} R^{b^2/2+b/2} (2pi)^{b/2} 2^{-b^2-b/2} G(3/2)/G(3/2+b)
    DISCRETE_PLUS = "disc+"       # n^{b^2/2-b/2} (2pi)^{b/2} 2^{-b^2/2} G(1/2)/G(1/2+b)
    DISCRETE_MINUS = "disc-"      # n^{b^2/2+b/2} (2pi)^{b/2} 2^{-b^2/2} G(3/2)/G(3/2+b)
    W2R_CONT = "w2r"              # at scale S=2R: e^{-bS} (S/2)^{b^2} G(1+b)^2/G(1+2b)
    T2N_DISCRETE = "t2n"          # at scale m=2n: m^{b^2} G(1+b)^2/G(1+2b)
    SECH = "sech"           # e^{-s(b/2+b^2/2)} E[phi_b]
    CBETA = "cbeta"               # the scale-free constant C_b


_STRIPS = {
    AsymKind.CONTINUOUS_PLUS: BetaContext.CONTINUOUS_PLUS,
    AsymKind.CONTINUOUS_MINUS: BetaContext.CONTINUOUS_MINUS,
    AsymKind.DISCRETE_PLUS: BetaContext.DISCRETE_PLUS,
    AsymKind.DISCRETE_MINUS: BetaContext.DISCRETE_MINUS,
    AsymKind.W2R_CONT: BetaContext.MATRIX,
    AsymKind.T2N_DISCRETE: BetaContext.MATRIX,
    AsymKind.SECH: BetaContext.SECH,
    AsymKind.CBETA: BetaContext.CONTINUOUS_MINUS,
}


@dataclass(frozen=True)
class AsymptoteSpec:
    kind: AsymKind
    beta: complex

    def __post_init__(self):
        beta_value(self.beta, _STRIPS[self.kind])


def asymptote_log(spec: AsymptoteSpec, scale: float) -> complex:
    """log of the full asymptotic expression at the given scale.

    The continuous kinds are the formulas for the unregularized symbol
    (x^2/(1+x^2))^b.  A regularized symbol ((x^2+eps^2)/(x^2+1))^b follows
    them while eps*scale << 1, which is where they are compared.
    """
    if spec.kind is not AsymKind.CBETA and scale <= 0:
        raise DomainError("scale must be positive")
    b = complex(spec.beta)
    k = spec.kind
    if k is AsymKind.CONTINUOUS_PLUS:
        return (
            -b * scale
            + (b * b / 2 - b / 2) * math.log(scale)
            + (b / 2) * LN_2PI
            + (-b * b + b / 2) * LN_2
            + ln_barnes_g(0.5)
            - ln_barnes_g(0.5 + b)
        )
    if k is AsymKind.CONTINUOUS_MINUS:
        return (
            -b * scale
            + (b * b / 2 + b / 2) * math.log(scale)
            + (b / 2) * LN_2PI
            + (-b * b - b / 2) * LN_2
            + ln_barnes_g(1.5)
            - ln_barnes_g(1.5 + b)
        )
    if k is AsymKind.DISCRETE_PLUS:
        return (
            (b * b / 2 - b / 2) * math.log(scale)
            + (b / 2) * LN_2PI
            - (b * b / 2) * LN_2
            + ln_barnes_g(0.5)
            - ln_barnes_g(0.5 + b)
        )
    if k is AsymKind.DISCRETE_MINUS:
        return (
            (b * b / 2 + b / 2) * math.log(scale)
            + (b / 2) * LN_2PI
            - (b * b / 2) * LN_2
            + ln_barnes_g(1.5)
            - ln_barnes_g(1.5 + b)
        )
    if k is AsymKind.W2R_CONT:
        return (
            -b * scale
            + b * b * math.log(scale / 2.0)
            + 2.0 * ln_barnes_g(1.0 + b)
            - ln_barnes_g(1.0 + 2.0 * b)
        )
    if k is AsymKind.T2N_DISCRETE:
        return (
            b * b * math.log(scale)
            + 2.0 * ln_barnes_g(1.0 + b)
            - ln_barnes_g(1.0 + 2.0 * b)
        )
    if k is AsymKind.SECH:
        return -scale * (b / 2 + b * b / 2) + ln_akhiezer_kac_E(b)
    if k is AsymKind.CBETA:
        return ln_c_beta(b)
    raise DomainError(f"unknown asymptote kind {k}")


def ln_c_beta(beta) -> complex:
    """log of C_b = 2^{b^2} G(1/2)G(3/2)G(3/2+b)G(1/2-b) /
    [G^2(3/2+b/2) G^2(1+b/2) G^2(1-b/2) G^2(1/2-b/2)]."""
    b = beta_value(beta, BetaContext.CONTINUOUS_MINUS)
    return b * b * LN_2 - ln_akhiezer_kac_E(b)


def c_beta(beta) -> complex:
    """The constant C_b itself."""
    return complex(np.exp(ln_c_beta(beta)))


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
