"""Gauss-Legendre rules, plain or on graded composite panels.

Graded panels cluster geometrically toward an endpoint so that algebraic
endpoint singularities (x - a)^alpha are resolved: each panel sees an
analytic integrand, and the unresolved stub next to the endpoint shrinks
like ratio^-levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError

#: grading descriptor forms accepted by gauss_rule:
#:   None                   -> single panel
#:   ("uniform", p)         -> p equal panels
#:   ("geometric", lo, hi)  -> panels graded toward both endpoints
#:                             (lo/hi = number of levels, ratio 2)
Grading = Optional[Tuple]


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights of a quadrature rule on a finite interval."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: Tuple[float, float]

    def __len__(self) -> int:
        return len(self.nodes)


def _panel_boundaries(grading: Grading) -> np.ndarray:
    """Panel boundaries on the reference interval [0, 1]."""
    if grading is None:
        return np.array([0.0, 1.0])
    kind = grading[0]
    if kind == "uniform":
        return np.linspace(0.0, 1.0, grading[1] + 1)
    if kind == "geometric":
        _, lo, hi = grading
        pts = {0.0, 1.0}
        pts.update(0.5 * 2.0 ** -float(j) for j in range(lo))
        pts.update(1.0 - 0.5 * 2.0 ** -float(j) for j in range(hi))
        return np.array(sorted(pts))
    raise DomainError(f"unknown grading descriptor {grading!r}")


def gauss_rule(m: int, interval: Tuple[float, float], grading: Grading = None) -> QuadRule:
    """Gauss-Legendre rule with m nodes per panel on the given interval.

    For a semi-infinite interval (a, inf) pass interval=(a, np.inf); the
    rule is produced from a rule on (0, 1/a'] via x = 1/t with the
    Jacobian folded into the weights (a must be positive).
    """
    if m < 2:
        raise DomainError("need at least 2 nodes per panel")
    a, b = interval
    if np.isinf(b):
        if a <= 0:
            raise DomainError("mapped semi-infinite rule needs a > 0")
        inner = gauss_rule(m, (0.0, 1.0 / a), grading)
        nodes = 1.0 / inner.nodes[::-1]
        weights = (inner.weights / inner.nodes**2)[::-1]
        return QuadRule(nodes, weights, (a, np.inf))
    if not b > a:
        raise DomainError(f"empty interval {interval}")
    bounds = a + (b - a) * _panel_boundaries(grading)
    xg, wg = leggauss(m)
    xs, ws = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        half = 0.5 * (hi - lo)
        xs.append(half * xg + 0.5 * (hi + lo))
        ws.append(half * wg)
    return QuadRule(np.concatenate(xs), np.concatenate(ws), (float(a), float(b)))
