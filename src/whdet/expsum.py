"""Exponential sums and the log-determinants of the matrices they generate.

An exponential sum is a kernel k(u) = sum_q w_q e^{-eta_q |u|}, with one
weight vector for u > 0 and one for u < 0 (they coincide for an even
kernel).  Every line kernel of a Wiener-Hopf route is one: the branch-cut
kernels of ``symbols.cut_kernel`` and the sech kernel.

``compress`` cuts a sum down to the few exponentials its kernel needs
(Beylkin & Monzon, "On approximation of functions by exponential sums",
ACHA 19, 2005): a pivoted QR of the samples e^{-eta_q u} picks the
columns, and the weights are refit by least squares.  The sample grid is
u = 0 plus log-spaced points up to 40/eta_min, where every term has decayed
below e^{-40}, or, given the window 0 <= u <= w that a determinant reads,
up to just past w.  A sum compressed on its window serves every
truncation that reads no further, and keeps far fewer terms: a cut kernel
at eps = 1e-4 keeps 19 to 28 on the windows 2R of R = 10 to 40, against 74
on the whole line.

``hankel_logdet`` takes the determinant of a Hankel section whose
coefficients are an exponential sum in their index, c_{i} = sum_q w_q
e^{-eta_q i}: H = E diag(w) E^T with E_{jq} = e^{-eta_q j}, so
det(I + H) = det(I_r + diag(w) G) for the Gram matrix G = E^T E, a
geometric sum in closed form at any number of rows, infinity included.

``expsum_logdet`` takes log det(I + S (T_k + sign H_k) S), where
T_k(i, j) = k(x_i - x_j) on sorted nodes, S = diag(sqrt(quadrature
weights)) and H_k(i, j) = k(x_i + x_j) = sum_q w_q e^{-eta_q x_i}
e^{-eta_q x_j} is the kernel's own Hankel block, with sign +1, -1 or 0,
in O(N r^2) time and O(N r) memory for r exponentials: the block LU of a
quasiseparable matrix (Gohberg, Kailath & Koltracht, "Linear complexity
algorithms for semiseparable matrices", IEOT 8, 1985), one panel of PANEL
nodes at a time, on an r x r state.
The Hankel term is the recursion's starting state, its left boundary
condition, not extra generators.  Every factor it carries from panel to
panel is an e^{-eta d} with d >= 0, so no truncation length can overflow
it.  Inside a panel the block k(x_i - x_j) comes from ``ExpSum.block``,
whose factors are e^{-eta d} with d >= 0 too: pairwise on the smallest
blocks, and across each split m from e^{-eta (x_i - m)} e^{-eta (m - x_j)}.
At a few dozen terms the panels are small enough that call overhead, not
arithmetic, sets the pace, so each step makes one LAPACK call and the
determinant is read once, from all the pivots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import get_lapack_funcs, qr, solve_triangular

from .errors import DomainError
from .logdet import LogDet, logdet, pivot_logdet
from .quadrature import QuadRule

#: relative size of the last pivot that compress keeps
COMPRESS_TOL = 1e-15
#: sample points per decade of u in compress
SAMPLES_PER_DECADE = 20
#: how far past its window compress samples a sum: sampled only up to the
#: window, a fit errs by up to 2e-12 of max |k| near the window's end, against
#: 4e-15 with this margin (cut kernels over the strip, windows 2 to 300)
WINDOW_MARGIN = 1.5
#: sorted nodes per step of expsum_logdet
PANEL = 32
#: panels whose in-panel blocks expsum_logdet forms by ExpSum.block at once;
#: all panels at once would hold N (BLOCK_LEAF - 1)/2 exponentials per term
BATCH = 8
#: most nodes ExpSum.block forms pairwise before it splits them in two
BLOCK_LEAF = 8


@dataclass(frozen=True)
class ExpSum:
    """k(u) = sum_q w_pos[q] e^{-eta_q u} for u > 0, sum_q w_neg[q] e^{eta_q u}
    for u < 0, and the mean of the two at u = 0.

    A compressed sum carries ``err``, the sup error of the compression on
    its sample grid relative to max |k| there.
    """

    eta: np.ndarray
    w_pos: np.ndarray
    w_neg: np.ndarray
    err: float = 0.0

    @property
    def terms(self) -> int:
        return len(self.eta)

    @property
    def even(self) -> bool:
        return self.w_neg is self.w_pos or np.array_equal(self.w_pos, self.w_neg)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        e = np.exp(-np.multiply.outer(np.abs(x), self.eta))
        pos = e @ self.w_pos
        if self.even:
            return pos
        neg = e @ self.w_neg
        return np.where(x > 0, pos, np.where(x < 0, neg, 0.5 * (pos + neg)))

    def block(self, x):
        """The matrix k(x_i - x_j) for increasing x; for x of shape (..., n),
        one such matrix per row.

        Up to BLOCK_LEAF nodes, or an odd number, it is formed from one
        exponential per node pair below the diagonal.  An even number of
        more nodes is split after the middle node m: both halves recurse
        in one call, and the block between them is the rank-r product of
        e^{-eta (x_i - m)} and e^{-eta (m - x_j)}.  Both factors have
        d >= 0 and their arguments add up to the pair's eta (x_i - x_j),
        so the product is as accurate as the pairwise exponential at any
        eta."""
        x = np.asarray(x)
        n = x.shape[-1]
        if n > BLOCK_LEAF and n % 2 == 0:
            h = n // 2
            out = np.empty(x.shape + (n,), dtype=np.result_type(self.w_pos, self.w_neg))
            out[..., :h, :h], out[..., h:, h:] = self.block(np.stack([x[..., :h], x[..., h:]]))
            m = x[..., h - 1:h]
            down = np.multiply.outer(x[..., h:] - m, -self.eta)
            up = np.multiply.outer(m - x[..., :h], -self.eta)
            np.exp(down, out=down)
            up = np.exp(up, out=up).swapaxes(-1, -2)
            out[..., h:, :h] = (down * self.w_pos) @ up
            other = out[..., h:, :h] if self.even else (down * self.w_neg) @ up
            out[..., :h, h:] = other.swapaxes(-1, -2)
            return out
        i, j = _lower(n)
        e = np.multiply.outer(x[..., i] - x[..., j], -self.eta)
        np.exp(e, out=e)
        out = np.empty(x.shape + (n,), dtype=np.result_type(self.w_pos, self.w_neg))
        lower = e @ self.w_pos
        out[..., i, j] = lower
        out[..., j, i] = lower if self.even else e @ self.w_neg
        out[..., range(n), range(n)] = 0.5 * (np.sum(self.w_pos) + np.sum(self.w_neg))
        return out

    def compress(self, window: Optional[float] = None) -> "ExpSum":
        """The fewest of these exponentials that reproduce the sum to about
        COMPRESS_TOL relative, with refit weights (see the module docstring).

        With a ``window``, the sum is fitted, and ``err`` measured, on
        0 <= u <= WINDOW_MARGIN * window only (``_grid``): a determinant
        that reads its kernel on 0 <= u <= window keeps far fewer terms.
        None fits it wherever any term is above e^{-40}.

        The refit weights are interp @ w, with the interpolation matrix of
        ``_fit``.  In exact arithmetic that is the
        least-squares solution from the kept columns; formed from the
        samples E w, it would carry their rounding amplified by the
        columns' smallest pivots, near COMPRESS_TOL."""
        def fit(u, E, keep, interp):
            even = self.even
            w_pos = _real_apart(interp, self.w_pos)
            w_neg = w_pos if even else _real_apart(interp, self.w_neg)
            pos = E @ self.w_pos
            return w_pos, w_neg, pos, pos if even else E @ self.w_neg
        return _fit(self.eta, fit, window)


@functools.cache
def _lower(n):
    return np.tril_indices(n, -1)


def fit_even(eta: np.ndarray, f: Callable) -> ExpSum:
    """An even exponential sum for f(|u|), from the candidate exponents eta:
    the least-squares weights of the columns that compress would keep."""
    def fit(u, E, keep, interp):
        target = f(u)
        Q, R = qr(E[:, keep], mode="economic")
        w = solve_triangular(R, Q.T @ target)
        return w, w, target, target
    return _fit(eta, fit)


def _real_apart(a, w):
    """a @ w with the real and imaginary parts of w apart, so that a real
    w, or the real part of a complex one, takes the same arithmetic."""
    if np.iscomplexobj(w):
        return a @ w.real + 1j * (a @ w.imag)
    return a @ w


def _grid(eta: np.ndarray, window: Optional[float] = None) -> np.ndarray:
    """u = 0 and SAMPLES_PER_DECADE log-spaced points per decade, from
    1e-2/eta_max, where the fastest term has barely moved, to 40/eta_min,
    where the slowest has decayed below e^{-40}, or to WINDOW_MARGIN times
    ``window`` if that is nearer.  Past its last sample a fit is free, so
    the margin keeps the window's far end inside the grid.  A window below
    the first point moves that point to 1e-2 of the grid's end."""
    lo, hi = 1e-2 / np.max(eta), 40.0 / np.min(eta)
    if window is not None:
        hi = min(hi, WINDOW_MARGIN * window)
        lo = min(lo, 1e-2 * hi)
    n = int(math.ceil(SAMPLES_PER_DECADE * math.log10(hi / lo)))
    return np.concatenate([[0.0], np.geomspace(lo, hi, n)])


def _fit(eta, fit, window: Optional[float] = None) -> ExpSum:
    """Pivoted QR of E = e^{-u eta} on the sample grid u (``_grid``), R
    alone: Q is never formed.  ``fit`` gives the weights of the kept
    columns, and the samples they are measured against, from u, E, the
    kept columns' indices and their interpolation matrix interp (kept
    terms x candidates), e^{-eta_q u} ~ sum_p interp[p, q] e^{-eta_p u}
    for every candidate eta_q over the kept eta_p."""
    u = _grid(eta, window)
    E = np.exp(-np.multiply.outer(u, eta))
    R, perm = qr(E, mode="r", pivoting=True)
    pivots = np.abs(np.diag(R))
    r = max(1, int(np.sum(pivots > COMPRESS_TOL * pivots[0])))
    interp = np.empty((r, len(eta)))
    interp[:, perm] = np.hstack([np.eye(r), solve_triangular(R[:r, :r], R[:r, r:])])
    keep = perm[:r]
    w_pos, w_neg, pos, neg = fit(u, E, keep, interp)
    E1 = E[:, keep]
    scale = max(np.max(np.abs(pos)), np.max(np.abs(neg)))
    err = max(np.max(np.abs(E1 @ w_pos - pos)), np.max(np.abs(E1 @ w_neg - neg)))
    return ExpSum(eta[keep], w_pos, w_neg, float(err / scale) if scale else 0.0)


def expsum_logdet(k: ExpSum, rule: QuadRule, sign: int = 0) -> LogDet:
    """log det(I + S (T_k + sign H_k) S) on the nodes of ``rule``.

    S = diag(sqrt(rule.weights)), T_k(i, j) = k(x_i - x_j), and the Hankel
    block H_k(i, j) = k(x_i + x_j) = (E diag(w_pos) E^T)_ij, E_iq =
    e^{-eta_q x_i}, enters with sign +1 or -1; sign 0 leaves it out.
    The nodes are taken in increasing order and cut into panels of PANEL;
    e_I is the last node of panel I and e_{-1} = x_0 the first node.
    Below the diagonal T_k has the generators
    p_i = e^{-eta (x_i - e_{I-1})} and q_j = w_pos e^{-eta (e_J - x_j)},
    and the transitions a_I = e^{-eta (e_I - e_{I-1})} <= 1 between them;
    above it the same with w_neg.  With state f, panel I contributes
    log det(gamma_I), gamma_I = D_I - p f p^T, and
    f <- a f a + (a f p^T - q^T) gamma_I^{-1} (p f a - q).
    Eliminating a leading block with inverse f, coupled to every node
    through the generators p, leaves -p f p^T behind, carried forward by
    the transitions; since p_i D = E_i for D = diag(e^{-eta x_0}), the state
    starts at f = -sign D diag(w_pos) D, in place of zero, and the Hankel
    term needs no generators of its own.

    Each panel takes D_I from ``ExpSum.block``, BATCH panels at a time
    (``_panel_blocks``).  Each step makes one LAPACK call, gesv, which
    factors gamma_I and solves for gamma_I^{-1} (p f a - q) at once, and
    the determinant is read once, from every pivot and row interchange
    (``logdet.pivot_logdet``).  An explicit inverse (getri) in place of the
    solve made a whole pass 3-4% faster, but at b = -0.9, eps = 1e-4 it
    took the doubling identity's residual at R = 150 from 7e-13 to 1.5e-11.
    """
    if sign not in (-1, 0, 1):
        raise DomainError(f"sign must be -1, 0 or +1, got {sign!r}")
    order = np.argsort(rule.nodes, kind="stable")
    x = rule.nodes[order]
    s = np.sqrt(rule.weights[order])
    n = len(x)
    starts = np.arange(0, n, PANEL)
    ends = x[np.minimum(starts + PANEL, n) - 1]
    refs = np.concatenate([x[:1], ends[:-1]])
    panel = np.arange(n) // PANEL
    eta = k.eta
    p = s[:, None] * np.exp(-np.multiply.outer(x - refs[panel], eta))
    q = s[:, None] * np.exp(-np.multiply.outer(ends[panel] - x, eta))
    a = np.exp(-np.multiply.outer(ends - refs, eta))
    h_pos = q * k.w_pos
    h_neg = h_pos if k.even else q * k.w_neg
    d = np.exp(-eta * x[0])
    f = np.diag(-(d * (sign * k.w_pos)) * d).astype(np.result_type(p, h_pos, h_neg))
    (gesv,) = get_lapack_funcs(("gesv",), (f,))
    # the last panel may be short: pad it to PANEL nodes of zero weight
    pad = len(starts) * PANEL - n
    xs = np.concatenate([x, np.full(pad, x[-1])]).reshape(-1, PANEL)
    ss = np.concatenate([s, np.zeros(pad)]).reshape(-1, PANEL)
    blocks = _panel_blocks(k, xs, ss)
    diag = np.empty(n, dtype=f.dtype)
    piv = np.empty(n, dtype=np.int32)
    for i, start in enumerate(starts):
        sl = slice(start, start + PANEL)
        pi = p[sl]
        m = len(pi)
        u = pi @ f
        gamma = next(blocks)[:m, :m] - u @ pi.T
        right = u * a[i] - h_neg[sl]
        left = right.T if k.even else a[i][:, None] * (f @ pi.T) - h_pos[sl].T
        lu, piv[sl], solved, _ = gesv(gamma, right, overwrite_a=True)
        diag[sl] = lu.diagonal()
        f *= np.outer(a[i], a[i])
        f += left @ solved
    # gesv's pivots count from 0 within each panel
    return pivot_logdet(diag, int(np.count_nonzero(piv != np.arange(n) % PANEL)))


def _panel_blocks(k: ExpSum, x: np.ndarray, s: np.ndarray):
    """Yield I + S k(x_i - x_j) S for each row of the panels x (panels x
    nodes, increasing along each row), with S = diag of the same row of s;
    ``ExpSum.block`` forms them BATCH panels at a time."""
    for first in range(0, len(x), BATCH):
        out = k.block(x[first:first + BATCH])
        out *= s[first:first + BATCH, :, None] * s[first:first + BATCH, None, :]
        i = np.arange(x.shape[-1])
        out[..., i, i] += 1.0
        yield from out


@dataclass(frozen=True)
class CoeffSum:
    """The coefficients c_1, c_2, ... of a symbol: c_k = lead[k - 1] for
    k <= m = len(lead), and c_{m+1+u} = tail(u) beyond, with ``tail`` an
    exponential sum in u >= 0."""

    lead: np.ndarray
    tail: ExpSum

    def __call__(self, k):
        """c_k at every integer k >= 1 of the array k."""
        k = np.asarray(k)
        m = len(self.lead)
        out = self.tail(np.maximum(k - m - 1, 0))
        return np.where(k <= m, self.lead[np.clip(k, 1, m) - 1], out) if m else out


def hankel_logdet(c: CoeffSum, sign: int, start: int = 0, stop: float = math.inf) -> LogDet:
    """log det(I + sign Q H Q) for the Hankel matrix H_{jk} = c_{j+k+1} on
    the rows and columns start <= j, k < stop (stop may be infinite).

    The rows from f = max(start, m) on take the tail alone: with
    E_{jq} = e^{-eta_q (j - f)} they are E diag(v) E^T, v = w e^{-eta (2f - m)}.
    Rows start <= j < m, if any, are kept explicitly, with the block
    A_{jk} = c_{j+k+1} and the cross term B_{jq} = w_q e^{-eta_q j}.  So
    H = U [[A, B], [B^T, diag(v)]] U^T with U = diag(I, E), and the
    determinant is that of the order m - start + r matrix
    I + sign [[A, B G], [B^T, diag(v) G]], G = E^T E:
    G_pq = sum_{j<L} e^{-(eta_p + eta_q) j} = expm1(-a L)/expm1(-a),
    a = eta_p + eta_q, over the L = stop - f tail rows (-1/expm1(-a) at
    L infinite).  No matrix of the order of the section is formed.  start
    must be an integer >= 0 and stop an integer > start or math.inf.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    integer = (int, np.integer)
    if not (isinstance(start, integer) and start >= 0
            and (isinstance(stop, integer) or stop == math.inf)):
        raise DomainError(f"section [{start!r}, {stop!r}) needs an integer start >= 0"
                          " and an integer or infinite stop")
    m = len(c.lead)
    first = max(start, m)
    if not stop > first:
        raise DomainError(f"section [{start}, {stop}) ends within the {m} explicit rows")
    eta, w = c.tail.eta, c.tail.w_pos
    a = np.add.outer(eta, eta)
    G = (np.expm1(-a * (stop - first)) if math.isfinite(stop) else -1.0) / np.expm1(-a)
    M = (w * np.exp(-eta * (2 * first - m)))[:, None] * G
    if first > start:
        rows = np.arange(start, m)
        B = w * np.exp(-np.multiply.outer(rows, eta))
        M = np.block([[c(np.add.outer(rows, rows) + 1), B @ G], [B.T, M]])
    return logdet(np.eye(len(M)) + sign * M)
