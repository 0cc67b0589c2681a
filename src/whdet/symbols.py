"""Circle and line symbols: evaluation, Fourier coefficients, convolution kernels.

Circle symbols generate Toeplitz/Hankel matrices through their Fourier
coefficients; line symbols generate truncated convolution operators
through the Fourier transform of (symbol - 1).  The singular symbols get
closed-form coefficients; the regularized ones get theirs from one FFT of
the sampled symbol.  The jump symbols u_b and u_{b,r} also have their
coefficients k >= 1 as exponential sums in k (``jump_coeff_sum``), from
which every Hankel section is an r x r determinant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
import scipy.fft
from numpy.polynomial.legendre import legvander
from scipy.special import loggamma, roots_jacobi

from .errors import DomainError, SingularPointError
from .expsum import WINDOW_MARGIN, CoeffSum, ExpSum, fit_even
from .params import (BetaContext, check_beta, check_eps, check_index, check_order,
                     is_near_nonpositive_integer, working_beta)
from .quadrature import gauss_rule
from .specfun import sin_pi


class CircleKind(Enum):
    VBETA = "v"            # (2 - 2 cos theta)^beta
    UBETA = "u"            # e^{i beta (theta - pi)}
    VBETA_R = "v_r"        # (1 - r/t)^beta (1 - r t)^beta
    UBETA_R = "u_r"        # (1 - r/t)^{-beta} (1 - r t)^beta


class LineKind(Enum):
    VHAT = "vhat"          # (x^2/(x^2+1))^beta
    UHAT = "uhat"          # jump symbol ((x-0i)/(x-i))^{-beta} ((x+0i)/(x+i))^beta
    VHAT_EPS = "vhat_eps"  # ((x^2+eps^2)/(x^2+1))^beta
    UHAT_EPS = "uhat_eps"  # ((x-eps i)/(x-i))^{-beta} ((x+eps i)/(x+i))^beta
    PHI = "phi"            # 1 - sin(pi beta) sech(pi x)


_SINGULAR_CIRCLE = (CircleKind.VBETA, CircleKind.UBETA)
_REGULARIZED_CIRCLE = (CircleKind.VBETA_R, CircleKind.UBETA_R)

#: most samples reg_coeff_table takes: 1 GiB per complex array, 1-r >~ 6e-7
_MAX_SAMPLES = 2**26


@dataclass(frozen=True)
class CircleSymbol:
    """An evaluatable symbol on the unit circle."""

    kind: CircleKind
    beta: complex = 0.0
    r: float = 0.0

    def __post_init__(self):
        check_beta(self.beta, BetaContext.FINITE)
        if self.kind in _REGULARIZED_CIRCLE and not 0.0 <= self.r < 1.0:
            raise DomainError(f"regularized symbol needs 0 <= r < 1, got r={self.r}")


@dataclass(frozen=True)
class LineSymbol:
    """An evaluatable symbol on the real line."""

    kind: LineKind
    beta: complex = 0.0
    eps: float = 0.0

    def __post_init__(self):
        if self.kind in (LineKind.VHAT_EPS, LineKind.UHAT_EPS):
            check_eps(self.eps)
        check_beta(self.beta, BetaContext.SECH if self.kind is LineKind.PHI
                   else BetaContext.FINITE)


def eval_circle(s: CircleSymbol, theta):
    """Evaluate a circle symbol at angle(s) theta (radians).

    Principal powers of each factored term; u_beta uses the branch
    e^{i beta (theta - pi)} on (0, 2 pi).
    """
    th = np.asarray(theta, dtype=float)
    if s.kind in _SINGULAR_CIRCLE:
        # every float except an exact zero of sin(theta/2) is a regular point
        if np.any(np.sin(th / 2.0) == 0.0):
            raise SingularPointError(f"{s.kind.value} symbol is singular at theta=0")
    b = complex(s.beta)
    if s.kind is CircleKind.VBETA:
        # 2 - 2 cos t = 4 sin^2(t/2), stable down to t ~ 1e-150
        return (4.0 * np.sin(th / 2.0) ** 2) ** b
    if s.kind is CircleKind.UBETA:
        return np.exp(1j * b * (np.mod(th, 2 * np.pi) - np.pi))
    t = np.exp(1j * th)
    if s.kind is CircleKind.VBETA_R:
        return (1.0 - s.r / t) ** b * (1.0 - s.r * t) ** b
    return (1.0 - s.r / t) ** (-b) * (1.0 - s.r * t) ** b


def eval_line(s: LineSymbol, x):
    """Evaluate a line symbol at point(s) x."""
    x = np.asarray(x, dtype=float)
    b = complex(s.beta)
    if s.kind is LineKind.VHAT:
        if np.any(x == 0.0):
            raise SingularPointError("vhat is singular at x=0")
        return (x * x / (x * x + 1.0)) ** b
    if s.kind is LineKind.VHAT_EPS:
        return ((x * x + s.eps**2) / (x * x + 1.0)) ** b
    if s.kind is LineKind.UHAT:
        if np.any(x == 0.0):
            raise SingularPointError("uhat jumps at x=0")
        # (x - 0i) means the boundary value from below the cut at 0
        return np.where(
            x > 0,
            (x / (x - 1j)) ** (-b) * (x / (x + 1j)) ** b,
            ((-x) / (x - 1j) * np.exp(-1j * np.pi)) ** (-b)
            * ((-x) / (x + 1j) * np.exp(1j * np.pi)) ** b,
        )
    if s.kind is LineKind.UHAT_EPS:
        return ((x - 1j * s.eps) / (x - 1j)) ** (-b) * ((x + 1j * s.eps) / (x + 1j)) ** b
    return 1.0 - sin_pi(b) / np.cosh(np.pi * x)


# ---------------------------------------------------------------------------
# Fourier coefficients on the circle
# ---------------------------------------------------------------------------

def fourier_coeff_v(beta, k):
    """Fourier coefficients of (2-2 cos theta)^beta, Re beta > -1/2, at the
    integer or integer array k: real for a real beta (``working_beta``).

    Closed form (-1)^k Gamma(1+2b) / (Gamma(1+b+k) Gamma(1+b-k)), obtained
    from the Cauchy product of the binomial series of (1-t)^b (1-1/t)^b.
    Every Gamma is taken at an argument of positive real part: where
    1+b-|k| is not, by the reflection 1/Gamma(1+b-m) =
    Gamma(m-b) (-1)^{m+1} sin(pi b)/pi, so the sign is exact and a real
    beta gives exactly real values.  One complex loggamma serves both
    kinds of beta, so a real beta and the same beta with a vanishing
    imaginary part share their real parts.  At an integer beta the
    reciprocal Gamma vanishes for |k| > b.
    """
    b = check_beta(beta, BetaContext.MATRIX)
    k = check_index(k)
    m = np.abs(k)
    live = np.ones(k.shape, dtype=bool)
    if is_near_nonpositive_integer(-b):
        live = m <= round(b.real)
    m = m[live]
    ln = loggamma(1 + 2 * b) - loggamma(1 + b + m)
    direct = 1 + b.real - m > 0
    md, mr = m[direct], m[~direct]
    c = np.zeros(k.shape, dtype=complex)
    c_live = np.empty(m.shape, dtype=complex)
    c_live[direct] = np.where(md % 2, -1.0, 1.0) * np.exp(ln[direct] - loggamma(1 + b - md))
    c_live[~direct] = -sin_pi(b) / np.pi * np.exp(ln[~direct] + loggamma(mr - b))
    c[live] = c_live
    return (c.real if isinstance(working_beta(b), float) else c)[()]


def fourier_coeff_u(beta, k):
    """Fourier coefficients of e^{i beta (theta-pi)} at the integer or
    integer array k: real for a real beta (``working_beta``).

    sin(pi b)/(pi (b-k)) for non-integer b; the monomial limit (-1)^b
    delta_{k,b} when b is an integer.
    """
    b = check_beta(beta, BetaContext.FINITE)
    k = check_index(k)
    bw = working_beta(b)
    if abs(b.imag) < 1e-14 and abs(b.real - round(b.real)) < 1e-14:
        m = round(b.real)
        out = np.zeros(k.shape, dtype=np.result_type(bw))
        out[k == m] = (-1.0) ** (m % 2)
        return out[()]
    return sin_pi(bw) / (np.pi * (bw - k))


def reg_coeff_table(s: CircleSymbol, kmax: int) -> np.ndarray:
    """Coefficients k = -kmax..kmax of a regularized symbol, as one array;
    kmax must be an integer >= 0.

    One FFT of the symbol sampled at M equispaced angles.  The symbol is
    analytic on r < |t| < 1/r, so the coefficients decay like r^|k| and
    the aliasing error of coefficient k is of the size of c_{k +- M}; M
    leaves a margin of (40 + 4|b|)/(-ln r) beyond 2 kmax + 1, where that
    decay has fallen below e^{-40}.  M is capped at _MAX_SAMPLES: an r
    nearer 1 raises DomainError before any sampling.  For a real beta both
    kinds satisfy f(-theta) = conj f(theta), so the table is real.
    """
    if s.kind not in _REGULARIZED_CIRCLE:
        raise DomainError("coefficient table only for regularized kinds")
    kmax = check_order(kmax, "kmax", least=0)
    real = isinstance(working_beta(complex(s.beta)), float)
    if s.r == 0.0:
        out = np.zeros(2 * kmax + 1, dtype=float if real else complex)
        out[kmax] = 1.0
        return out
    tail = int(np.ceil((40.0 + 4 * abs(complex(s.beta))) / -np.log(s.r)))
    M = scipy.fft.next_fast_len(2 * kmax + 1 + tail)
    if M > _MAX_SAMPLES:
        raise DomainError(f"coefficient table needs {M} > {_MAX_SAMPLES} samples at r={s.r}")
    c = scipy.fft.fft(eval_circle(s, 2.0 * np.pi / M * np.arange(M))) / M
    if real:
        c = c.real
    return np.concatenate([c[M - kmax:], c[: kmax + 1]])


def jump_coeff_sum(s: CircleSymbol, kmax: Optional[int] = None) -> CoeffSum:
    """The coefficients k >= 1 of u_b (UBETA, for k <= kmax) or of u_{b,r}
    (UBETA_R, every k) as explicit leading ones and an exponential sum.

    Deforming the coefficient integral onto the cut [1/r, inf) of
    (1 - r t)^b, t = e^d / r, gives for both kinds (r = 1 for u_b)
    c_k = -(sin pi b / pi) r^k int_0^inf e^{-d (k - b)} rho(d) d^e dd,
    rho = ((1 - e^{-d})/d)^b (1 - r^2 e^{-d})^{-b} and e = b for r < 1;
    rho = 1 and e = 0 for r = 1.  It converges for Re b > -1 when r < 1,
    and for every k with Re(k - b) >= 1/2, at the rate e^{-d/2} or faster.
    The m coefficients below that rate are kept explicitly: sin(pi b)/
    (pi (b - k)) for u_b, the FFT table of ``reg_coeff_table`` for u_{b,r}
    (m > 0 only at Re b >= 1/2, where an r too near 1 for its sampling
    raises DomainError).  ``_graded`` discretizes the rest with 16 nodes on
    each octave of d, from a stub where every term is smooth (d K <= 1/10
    for the K = kmax or 40/(-ln r) coefficients that matter; r^K = e^{-40})
    up to where e^{-d/2} falls below e^{-40}, and ``ExpSum.compress`` keeps
    the exponentials eta = d - ln r that matter.  A kmax that is not an
    integer >= 1, and r = 0, where u_{b,r} is 1, raise DomainError.
    """
    if s.kind not in (CircleKind.UBETA, CircleKind.UBETA_R):
        raise DomainError(f"no coefficient sum for symbol kind {s.kind}")
    b = working_beta(complex(s.beta))
    r = 1.0 if s.kind is CircleKind.UBETA else s.r
    if r == 1.0 and kmax is None:
        raise DomainError("the sum for u_b needs the largest index kmax")
    if kmax is not None:
        check_order(kmax, "kmax")
    if r == 0.0:
        raise DomainError("u_(b,r) at r = 0 is 1: no coefficients k >= 1 to sum")
    m = max(0, math.ceil(np.real(b) + 0.5) - 1)
    if r < 1.0 and np.real(b) <= -1.0:
        raise DomainError(f"u_(b,r) coefficient sum needs Re b > -1, got b={b}")
    reach = kmax if r == 1.0 else 40.0 / -math.log(r)
    e = b if r < 1.0 else 0.0
    octaves = math.ceil(math.log2(800.0 * reach))
    d, W = _graded(0.1 / reach * 2.0 ** np.arange(octaves + 1), e, nodes=16)
    f = np.exp(-d * (m + 1 - b))
    if r < 1.0:
        f = f * _pow(-np.expm1(-d) / d, b) * _pow(-np.expm1(2.0 * math.log(r) - d), -b)
    w = -sin_pi(b) / np.pi * r ** (m + 1) * W * f
    if r == 1.0:
        lead = fourier_coeff_u(b, np.arange(1, m + 1))
    else:
        lead = reg_coeff_table(s, m)[m + 1:] if m else np.zeros(0)
    return CoeffSum(lead, _compress_bands(d - math.log(r), w))


#: exponents per band of _compress_bands: ten octaves of jump_coeff_sum's rule
BAND = 160


def _compress_bands(eta, w) -> ExpSum:
    """The even sum sum_q w_q e^{-eta_q u} compressed one band of BAND
    consecutive exponents at a time.  ``ExpSum.compress`` errs by about
    1e-16 of the largest value it fits; apart, the slowest exponentials,
    which alone carry the coefficients far out, keep that accuracy
    relative to their own size.  Compressed in one piece, the sum of u_b
    for kmax = 2^31 erred by 3e-8 relative at k = 2^31, and that capped
    the inverse section at N = 2^26 at 1e-6."""
    order = np.argsort(eta)
    bands = [ExpSum(eta[i], w[i], w[i]).compress()
             for i in np.array_split(order, -(-len(eta) // BAND))]
    w = np.concatenate([k.w_pos for k in bands])
    return ExpSum(np.concatenate([k.eta for k in bands]), w, w,
                  err=max(k.err for k in bands))


# ---------------------------------------------------------------------------
# Line kernels: k(x) = (1/2pi) int (s(xi) - 1) e^{-i xi x} d xi
# ---------------------------------------------------------------------------

def cut_rule(eps: float, b, reach: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes eta and weights W with sum_q W_q f(eta_q) ~ int_eps^1 f(eta)
    (eta - eps)^b (1 - eta)^{-b} d eta for smooth f, -1 < Re b < 1.

    Gauss-Legendre panels graded geometrically toward both ends, and at
    each end a stub [0, delta] in the distance d to that end, taken by
    product integration: the Gauss-Jacobi nodes of the weight d^{Re e}
    (e = b toward eps, -b toward 1) and the weights that integrate
    d^e p(d) exactly for every p of degree < 12, from the closed-form
    moments of d^e against Legendre polynomials.  So the singularity, its
    phase d^{i Im e} included, is integrated exactly however near |Re b|
    is to 1; for a real b these are the Gauss-Jacobi weights.  Distances
    to the ends are formed directly, never as 1 - eta.

    Each level halves the distance to its end.  For f(eta) = e^{-eta u} on
    the whole line, 24 levels go toward 1 and
    max(40, ceil(log2(1/eps)) + 28) toward eps (792 nodes at eps = 1e-4).
    Given the ``reach`` of u, f varies on the scale 1/reach alone, so
    toward 1 max(2, ceil(log2 reach) + 6) levels suffice, and toward eps
    ceil(max(log2(1/eps), log2 reach)) + 6: the weight of a vhat kernel
    has a second branch point at eta = -eps, so the eps side resolves
    eps itself too.  Each is capped at the whole line's count.  At
    eps = 1e-4 that is 348 to 420 nodes for reaches 6 to 450, and the
    sum stays within 2.5e-15 of max |k| of the whole-line rule's on
    |u| <= reach (cut kernels at |b| <= 0.9, complex b included, eps 1e-6
    to 1e-2, reaches 4.5e-3 to 900).
    """
    length = 1.0 - eps
    eps_levels = max(40, int(np.ceil(-np.log2(max(eps, 1e-14)))) + 28)
    one_levels = 24
    if reach is not None:
        eps_levels = min(eps_levels, math.ceil(max(-math.log2(eps), math.log2(reach))) + 6)
        one_levels = min(one_levels, max(2, math.ceil(math.log2(reach)) + 6))
    etas, weights = [], []
    # each end: its levels, the exponent of d there, the end and the direction inward
    for levels, expo, end, inward in ((eps_levels, b, eps, 1.0), (one_levels, -b, 1.0, -1.0)):
        d, w = _graded(length * 0.5 * 2.0 ** -np.arange(levels), expo)
        etas.append(end + inward * d)
        weights.append(w * _pow(length - d, -expo))   # the other end's factor
    return np.concatenate(etas), np.concatenate(weights)


def _graded(bounds, e, nodes: int = 12):
    """Nodes d and weights W with sum_j W_j f(d_j) ~ int_0^B f(d) d^e dd for
    f smooth on [0, B], B = max(bounds): ``gauss_rule`` on the panel ends
    ``bounds`` (monotone, geometric toward 0), and as many nodes on the stub
    [0, delta], delta = min(bounds), by product integration against d^e
    (see ``cut_rule``)."""
    rule = gauss_rule(nodes, bounds)
    delta = rule.interval[0]
    xj, _ = roots_jacobi(nodes, 0.0, float(np.real(e)))
    return (np.concatenate([rule.nodes, 0.5 * delta * (1.0 + xj)]),
            np.concatenate([rule.weights * _pow(rule.nodes, e),
                            _pow(delta, 1.0 + e) * _stub_weights(xj, e)]))


def _stub_weights(x, e):
    """W_j with sum_j W_j p(t_j) = int_0^1 t^e p(t) dt for p of degree < len(x),
    at the nodes t_j = (1 + x_j)/2.  The moments of t^e against the shifted
    Legendre polynomials are prod_{j<k} (e - j) / prod_{j<=k} (e + 1 + j)."""
    n = len(x)
    mu = np.empty(n, dtype=np.result_type(e, float))
    mu[0] = 1.0 / (e + 1.0)
    for k in range(1, n):
        mu[k] = mu[k - 1] * (e - k + 1) / (e + k + 1)
    P = legvander(x, n - 1).T
    # real and imaginary parts apart: a real part the same as a real e's
    W = np.linalg.solve(P, mu.real)
    return W + 1j * np.linalg.solve(P, mu.imag) if np.iscomplexobj(mu) else W


def _pow(x, p):
    """x**p for positive x.  A complex p is taken as x**Re(p) e^{i Im(p) ln x},
    whose real part at Im p -> 0 is the real power bit for bit."""
    if isinstance(p, complex):
        return x**p.real * np.exp(1j * p.imag * np.log(x))
    return x**p


def cut_kernel(s: LineSymbol, window: Optional[float] = None) -> ExpSum:
    """The kernel of a regularized line symbol as a compressed exponential sum.

    Deforming the Fourier integral onto the branch cut [i eps, i] gives
    k(w) = int_eps^1 W(eta) e^{-eta |w|} d eta, with the algebraic weight
    W of the symbol's jump across the cut; it is integrable on the strip
    -1 < Re beta < 1.  ``cut_rule`` discretizes it (792 terms at
    eps = 1e-4) and ``ExpSum.compress`` keeps the few dozen that matter (74
    at eps = 1e-4).  Given a ``window``, the kernel is read on
    |w| <= window alone: ``cut_rule`` takes the reach the compression
    samples, WINDOW_MARGIN * window, and grades only as finely as that
    reach needs (396 terms at eps = 1e-4 on the window 80), and the
    compression keeps fewer (19 to 28 at eps = 1e-4 on the windows 2R of
    R = 10 to 40).  For the jump symbol the weights for w > 0 and w < 0
    have opposite exponents, so the two rules are concatenated.  Every
    base of a power is positive, so a real beta gives real weights.
    """
    if s.kind not in (LineKind.VHAT_EPS, LineKind.UHAT_EPS):
        raise DomainError(f"no branch-cut kernel for symbol kind {s.kind}")
    b = working_beta(check_beta(s.beta, BetaContext.KERNEL_FAMILY))
    eps = s.eps
    pref = -sin_pi(b) / np.pi
    reach = None if window is None else WINDOW_MARGIN * window
    eta, W = cut_rule(eps, b, reach)
    if s.kind is LineKind.VHAT_EPS:
        w = pref * W * _pow((eta + eps) / (1.0 + eta), b)
        return ExpSum(eta, w, w).compress(window)
    eta_neg, W_neg = cut_rule(eps, -b, reach)
    zeros = np.zeros(len(eta), dtype=np.result_type(pref, W))
    return ExpSum(
        np.concatenate([eta, eta_neg]),
        np.concatenate([pref * W * _pow((1.0 + eta) / (eta + eps), b), zeros]),
        np.concatenate([zeros, -pref * W_neg * _pow((eta_neg + eps) / (1.0 + eta_neg), b)]),
    ).compress(window)


@functools.cache
def _sech_sum() -> ExpSum:
    """sech(u/2) for u >= 0 as an exponential sum with exponents >= 1/2
    (its slowest decay), fitted from 301 candidates on [1/2, 100.5].
    Every caller shares it, so its arrays are read-only."""
    k = fit_even(0.5 + np.concatenate([[0.0], np.geomspace(1e-2, 1e2, 300)]),
                 lambda u: 1.0 / np.cosh(u / 2.0))
    for a in (k.eta, k.w_pos, k.interp):
        a.setflags(write=False)
    return k


def sech_kernel(beta) -> ExpSum:
    """The kernel -(sin pi b)/(2 pi) sech(x/2) of the sech symbol as an
    exponential sum: one beta-free fit, fitted on first use, scaled."""
    b = working_beta(check_beta(beta, BetaContext.SECH))
    base = _sech_sum()
    w = -sin_pi(b) / (2.0 * np.pi) * base.w_pos
    return ExpSum(base.eta, w, w, base.interp, base.err)
