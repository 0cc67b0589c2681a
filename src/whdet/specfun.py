"""Complex log-Gamma and Barnes G-function, plus the Barnes identities.

ln G(1+z) is summed from its large-argument expansion (DLMF 5.17.5),

    (z^2/2 - 1/12) ln z - 3z^2/4 + (z/2) ln 2pi + zeta'(-1)
        + sum_k B_{2k+2} / (4k(k+1) z^{2k}),

in plain complex arithmetic once Re z >= 9.  A smaller argument is pushed
there by G(z+m) = G(z) prod_{j<m} Gamma(z+j), whose m log-Gammas come
from one loggamma(z) and logs:
sum_{j<m} ln Gamma(z+j) = m ln Gamma(z) + sum_{i<=m-2} (m-1-i) log(z+i).
Logs are accumulated along that recursion and never reduced back to a
principal branch, so ratios of G-values taken in log space stay
consistent; on Re z > 0 the result coincides with the analytic
continuation of ln G from the positive real axis.

Every finite-n closed form of the theory is a balanced ratio
prod_r G(1+n+x_r)/G(1+n+y_r): as many G's above as below, with
sum x = sum y.  ``ln_barnes_ratio`` expands each factor about z = n, so
the terms of order n^2 ln n cancel in the algebra instead of in floating
point, and sums what is left: ((sum x^2 - sum y^2)/2) ln n plus a short
series in x/n per factor.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import loggamma as _loggamma

from .errors import ConstraintError, PoleError, ZeroError
from .params import is_near_nonpositive_integer

#: zeta'(-1) = 1/12 - ln A, A the Glaisher-Kinkelin constant
_ZETA_PRIME_M1 = -0.16542114370045092921391966024278
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
#: B_{2k+2} / (4k(k+1)) for k = 7, 6, ..., 1: the tail of the expansion in
#: 1/z^2, highest first for Horner
_BERNOULLI_TAIL = (
    -3617.0 / 114240.0,
    1.0 / 144.0,
    -691.0 / 327600.0,
    1.0 / 1056.0,
    -1.0 / 1440.0,
    1.0 / 1008.0,
    -1.0 / 240.0,
)
#: the expansion is summed at Re(1+z) >= 10
_ASYMP_RE = 10.0
#: the balanced expansion needs n >= 12 and every |x| <= n/4, so that
#: |n+x| >= 9, where ``ln_barnes_g`` sums the same seven tail terms
_BALANCED_N = 12
_BALANCED_T = 0.25
#: the series P(t) = sum_j (-1)^j t^j / ((j+1)(j+2)(j+3)), highest term
#: first, for |t| <= 1/100 and for |t| <= 1/4: each cut where its first
#: dropped term is below 1e-16 of the leading 1/6
_P_SHORT_T = 0.01
_P_SHORT, _P_LONG = (tuple((-1) ** j / ((j + 1) * (j + 2) * (j + 3)) for j in reversed(range(terms)))
                     for terms in (7, 22))


def ln_gamma(z) -> complex:
    """Principal branch of log Gamma(z), continuous on the cut plane.

    Raises PoleError within 1e-12 of a nonpositive integer.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PoleError(f"ln_gamma argument must be finite, got {z!r}")
    if is_near_nonpositive_integer(z):
        raise PoleError(f"Gamma has a pole at {z!r}")
    return complex(_loggamma(z))


def _tail(w: complex, coeffs) -> complex:
    """sum_k B_{2k+2} / (4k(k+1) w^{2k}) over the given coefficients."""
    u = 1.0 / (w * w)
    s = 0j
    for c in coeffs:
        s = (s + c) * u
    return s


def ln_barnes_g(z) -> complex:
    """log of the Barnes G-function with recursion-accumulated branch.

    Raises ZeroError within 1e-12 of the zeros of G (the nonpositive
    integers), where the log diverges to -infinity.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ZeroError(f"ln_barnes_g argument must be finite, got {z!r}")
    if is_near_nonpositive_integer(z):
        raise ZeroError(f"Barnes G vanishes at {z!r}")
    # -0.0 + 0.0 is +0.0, so a negative real z with a -0.0 imaginary part
    # lies on the upper side of every log's and loggamma's cut
    z = complex(z.real, z.imag + 0.0)
    m = max(0, math.ceil(_ASYMP_RE - z.real))
    w = z + (m - 1)  # G(z + m) = G(1 + w)
    val = ((0.5 * w * w - 1.0 / 12.0) * cmath.log(w) - 0.75 * w * w + _HALF_LN_2PI * w
           + _ZETA_PRIME_M1 + _tail(w, _BERNOULLI_TAIL))
    if m:
        val -= m * complex(_loggamma(z))
        for i in range(m - 1):
            val -= (m - 1 - i) * cmath.log(z + i)
    return val


def sin_pi(b):
    """sin(pi b) to full relative accuracy near the integers too, as
    (-1)^n sin(pi (b - n)) with n the integer nearest Re b (b - n is exact);
    np.sin(np.pi * b) is off by about 4e-16 absolute there, which is 7e-10
    relative at b = -1 + 1.8e-7."""
    n = round(np.real(b))
    return (-1.0) ** (n % 2) * np.sin(np.pi * (b - n))


def _balanced(xs, ys, n):
    """xs and ys as tuples of complex, and the leading (omega/2) ln n of
    prod_r G(1+n+x_r)/G(1+n+y_r), omega = sum x^2 - sum y^2.

    Raises ConstraintError unless the lists are equally long with sums
    equal to 1e-12 and n > 0.
    """
    xs = tuple(complex(x) for x in xs)
    ys = tuple(complex(y) for y in ys)
    sx = sum(xs)
    sy = sum(ys)
    if len(xs) != len(ys) or abs(sx - sy) > 1e-12:
        raise ConstraintError(
            f"need as many G's above as below with equal sums: "
            f"{len(xs)} with sum {sx}, {len(ys)} with sum {sy}"
        )
    if n <= 0:
        raise ConstraintError("n must be positive")
    omega = sum(x * x for x in xs) - sum(y * y for y in ys)
    return xs, ys, 0.5 * omega * math.log(n)


def _h(a: complex, n) -> complex:
    """h(a, n) in ln G(1+n+a) = (n^2/2 + an + a^2/2 - 1/12) ln n - 3n^2/4
    - an + ((n+a)/2) ln 2pi + zeta'(-1) + h(a, n), for |a| <= n/4:
    a^2 t P(t) - log(1+t)/12 plus the tail in 1/(n+a)^2, with t = a/n."""
    t = a / n
    p = 0.0
    for c in _P_SHORT if abs(t) <= _P_SHORT_T else _P_LONG:
        p = p * t + c
    return a * a * t * p - cmath.log(1.0 + t) / 12.0 + _tail(n + a, _BERNOULLI_TAIL)


def ln_barnes_ratio(xs, ys, n) -> complex:
    """ln prod_r G(1+n+x_r)/G(1+n+y_r) for equally long lists with equal
    sums.

    From n >= 12 with every |x|, |y| <= n/4 this is the balanced
    expansion, ((sum x^2 - sum y^2)/2) ln n + sum h(x, n) - sum h(y, n),
    whose terms are all O(1).  Below, it is the direct sum of ln_barnes_g;
    its error grows like eps |ln G(n)|, which is why the switch comes this
    early (the direct sum of d_n_exact's eight G's is off by 3.6e-12 at
    n = 37).  Raises ConstraintError as ``barnes_ratio_asymptote`` does.
    """
    xs, ys, lead = _balanced(xs, ys, n)
    if n >= _BALANCED_N and max(map(abs, xs + ys), default=0.0) <= _BALANCED_T * n:
        return lead + sum(_h(x, n) for x in xs) - sum(_h(y, n) for y in ys)
    return sum(ln_barnes_g(1 + n + x) for x in xs) - sum(ln_barnes_g(1 + n + y) for y in ys)


def barnes_ratio_asymptote(xs, ys, n) -> complex:
    """Leading-order value n**(omega/2) of prod_r G(1+x_r+n)/G(1+y_r+n),
    the first term of ``ln_barnes_ratio``'s expansion.

    Requires as many xs as ys and sum(xs) == sum(ys) (to 1e-12);
    omega = sum x^2 - sum y^2.
    """
    return cmath.exp(_balanced(xs, ys, n)[2])


def duplication_residual(z) -> float:
    """Absolute defect of the G-function duplication identity at z.

    Compares ln[G(z) G(z+1/2)^2 G(z+1)] with
    ln[G(1/2)^2 pi^z 2^(-2z^2+3z-1) G(2z)] using the package's
    accumulated-branch logs.
    """
    z = complex(z)
    lhs = ln_barnes_g(z) + 2.0 * ln_barnes_g(z + 0.5) + ln_barnes_g(z + 1.0)
    rhs = (
        2.0 * ln_barnes_g(0.5)
        + z * math.log(math.pi)
        + (-2.0 * z * z + 3.0 * z - 1.0) * math.log(2.0)
        + ln_barnes_g(2.0 * z)
    )
    return abs(lhs - rhs)
