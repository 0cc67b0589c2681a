"""Composite Gauss-Legendre rules on given panel ends.

``gauss_rule`` is the one panel loop of the library: m Gauss-Legendre
nodes on each panel between consecutive ends.  Ends that cluster
geometrically toward an endpoint (``geometric_ends``) resolve algebraic
endpoint singularities (x - a)^alpha: each panel sees an analytic
integrand, and the unresolved stub next to the endpoint shrinks like
2^-levels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError
from .params import check_order


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights of a quadrature rule on an interval."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: Tuple[float, float]

    def __len__(self) -> int:
        return len(self.nodes)


def geometric_ends(a: float, b: float, lo: int, hi: int) -> np.ndarray:
    """Panel ends on [a, b] graded toward both endpoints with ratio 2:
    lo levels toward a, hi levels toward b."""
    pts = {0.0, 1.0}
    pts.update(0.5 * 2.0 ** -float(j) for j in range(lo))
    pts.update(1.0 - 0.5 * 2.0 ** -float(j) for j in range(hi))
    return a + (b - a) * np.array(sorted(pts))


def gauss_rule(m: int, ends: Sequence[float]) -> QuadRule:
    """Gauss-Legendre rule with m nodes on each panel between consecutive
    ends, which must be finite and strictly monotone; two ends make one
    panel.  Panels keep the order of the ends, and the nodes ascend within
    each panel."""
    m = check_order(m, "nodes per panel", least=2)
    ends = np.asarray(ends, dtype=float)
    steps = np.diff(ends) if ends.ndim == 1 else np.zeros(0)
    if len(steps) < 1 or not np.all(np.isfinite(ends)) \
            or not (np.all(steps > 0) or np.all(steps < 0)):
        raise DomainError(f"panel ends must be at least two finite, strictly monotone"
                          f" values, got {ends!r}")
    xg, wg = _legendre(m)
    half = 0.5 * np.abs(steps)
    nodes = half[:, None] * xg + 0.5 * (ends[:-1] + ends[1:])[:, None]
    return QuadRule(np.ravel(nodes), np.ravel(half[:, None] * wg),
                    (float(ends.min()), float(ends.max())))


@functools.cache
def _legendre(m: int):
    """The m Gauss-Legendre nodes and weights on [-1, 1], computed once per m;
    every caller shares them, so they are read-only."""
    xg, wg = leggauss(m)
    for a in (xg, wg):
        a.setflags(write=False)
    return xg, wg
