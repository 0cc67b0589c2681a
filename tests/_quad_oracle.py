"""Adaptive-quadrature oracles for the closed forms of the library: the
Fourier coefficients of circle symbols and the geometric means of line
symbols.  Both take the symbol as a callable and integrate it directly,
independently of every closed form, FFT and branch-cut route in whdet.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad


def fourier_coeff_numeric(f, k: int, tol: float = 1e-11, alpha: float = 0.0) -> complex:
    """(1/2pi) int_0^{2pi} f(theta) e^{-ik theta} d theta by adaptive
    quadrature, split at the theta = 0 singularity.

    f may behave like |theta|^alpha at 0 (alpha > -1).  Each half is mapped
    by theta = u^p (resp. 2 pi - theta = u^p) with p = ceil(3/(1 + alpha)),
    at least 3, which turns the singularity into at least u^2 (C^1 at the
    endpoint), well inside adaptive-quadrature territory.  The second half
    takes f at -u^p and the phase as e^{+ik u^p} (integer k), which avoids
    the rounding of 2 pi - tiny to 2 pi.
    """
    p = min(40, max(3, int(math.ceil(3.0 / (1.0 + alpha)))))
    u_hi = np.pi ** (1.0 / p)
    u_lo = 1e-6  # stub below u_lo is O(u_lo^2) by the choice of p
    parts = (
        lambda u: f(u**p) * np.exp(-1j * k * u**p) * p * u ** (p - 1),
        lambda u: f(-(u**p)) * np.exp(1j * k * u**p) * p * u ** (p - 1),
    )
    total = 0.0 + 0.0j
    err = 0.0
    for g in parts:
        vr, er = quad(lambda u: float(np.real(g(u))), u_lo, u_hi,
                      limit=400, epsabs=tol / 8, epsrel=1e-13)
        vi, ei = quad(lambda u: float(np.imag(g(u))), u_lo, u_hi,
                      limit=400, epsabs=tol / 8, epsrel=1e-13)
        total += vr + 1j * vi
        err += er + ei
    assert err <= tol * 2 * np.pi, f"quadrature error estimate {err:.2e} above tolerance"
    return complex(total / (2.0 * np.pi))


def geometric_mean_log_numeric(f) -> complex:
    """(1/2pi) int log f(x) dx over the line, as the limit of the integrals
    over [-X, X]: (1/2pi) int_0^inf [log f(x) + log f(-x)] dx under
    x = tan u.  Asserts that the quadrature converged (a log that is not
    integrable, e.g. log(1/(1+x^2)), fails)."""
    def integrand(u):
        x = math.tan(u)
        return (np.log(f(x)) + np.log(f(-x))) / math.cos(u) ** 2

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        re, re_err = quad(lambda u: float(np.real(integrand(u))), 0.0, np.pi / 2, limit=400)
        im, im_err = quad(lambda u: float(np.imag(integrand(u))), 0.0, np.pi / 2, limit=400)
    assert not any(issubclass(w.category, IntegrationWarning) for w in caught), \
        "log-symbol integral did not converge"
    assert np.isfinite(re) and np.isfinite(im) and re_err + im_err <= 1e-6
    return complex(re, im) / (2.0 * np.pi)
