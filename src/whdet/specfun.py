"""Complex log-Gamma and Barnes G-function, plus the Barnes identities.

The Barnes G-function is evaluated from its large-argument expansion once
the argument has been pushed to Re z >= 10 by the recursion
G(z+1) = Gamma(z) G(z).  Logs are accumulated along that recursion and
never reduced back to a principal branch, so ratios of G-values taken in
log space stay consistent; on Re z > 0 the result coincides with the
analytic continuation of ln G from the positive real axis.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import loggamma as _loggamma

from .errors import ConstraintError, PoleError, ZeroError
from .params import is_near_nonpositive_integer

#: log of the Glaisher-Kinkelin constant, ln A = 1/12 - zeta'(-1)
LN_GLAISHER = 0.24875447703378426254725299357633
#: Bernoulli numbers B4, B6, ..., B16 for the tail of the expansion
_BERNOULLI_TAIL = (
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)
_ASYMP_RE = 10.0


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


def _ln_barnes_asymp(w: complex) -> complex:
    """Large-argument expansion of ln G(w), valid for Re w >= ~10."""
    z = w - 1.0
    s = (
        0.25 * z * z
        + z * _loggamma(z + 1.0)
        - (0.5 * z * (z + 1.0) + 1.0 / 12.0) * np.log(z)
        - LN_GLAISHER
    )
    z2k = z * z
    for k, b in enumerate(_BERNOULLI_TAIL, start=1):
        s += b / (2 * k * (2 * k + 1) * (2 * k + 2) * z2k)
        z2k *= z * z
    return complex(s)


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
    shift = max(0, math.ceil(_ASYMP_RE - z.real))
    val = _ln_barnes_asymp(z + shift)
    for j in range(shift):
        # G(z+m) = G(z) * prod_j Gamma(z+j)
        val -= complex(_loggamma(z + j))
    return val


def sin_pi(b):
    """sin(pi b) to full relative accuracy near the integers too, as
    (-1)^n sin(pi (b - n)) with n the integer nearest Re b (b - n is exact);
    np.sin(np.pi * b) is off by about 4e-16 absolute there, which is 7e-10
    relative at b = -1 + 1.8e-7."""
    n = round(np.real(b))
    return (-1.0) ** (n % 2) * np.sin(np.pi * (b - n))


def barnes_ratio_asymptote(xs, ys, n) -> complex:
    """Leading-order value n**(omega/2) of prod_r G(1+x_r+n)/G(1+y_r+n).

    Requires sum(xs) == sum(ys) (to 1e-12); omega = sum x^2 - sum y^2.
    """
    xs = [complex(x) for x in xs]
    ys = [complex(y) for y in ys]
    sx = sum(xs)
    sy = sum(ys)
    if abs(sx - sy) > 1e-12:
        raise ConstraintError(
            f"exponent sums must match: sum(xs)={sx}, sum(ys)={sy}"
        )
    if n <= 0:
        raise ConstraintError("n must be positive")
    omega = sum(x * x for x in xs) - sum(y * y for y in ys)
    return np.exp(0.5 * omega * math.log(n))


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
