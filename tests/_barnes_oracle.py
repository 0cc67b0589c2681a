"""The Barnes-G products of ``d_n_exact`` and ``det_tn_exact`` at 40
digits with mpmath's ``barnesg``: the closed forms without rounding.

Each factor is a principal log, so a value agrees with the package's only
modulo 2 pi i; compare with ``mod_2pi_distance``.
"""

import math

from mpmath import mp


def _ln_g(z):
    return mp.log(mp.barnesg(z))


def mp_d_n(b: complex, n: int, sign: int) -> complex:
    """log det[T_n(v_b) +- H_n(v_b)] from its Barnes-G product."""
    h = 0.5 if sign > 0 else 1.5
    with mp.workdps(40):
        b = mp.mpc(b)
        k = b / 2 * mp.log(2 * mp.pi) - b * b / 2 * mp.log(2) + _ln_g(h) - _ln_g(h + b)
        num = _ln_g(n + 2 - h) + _ln_g(n + 1) + _ln_g(n + 1 + b) + _ln_g(n + h + b)
        den = _ln_g(n + 0.5 + b / 2) + 2 * _ln_g(n + 1 + b / 2) + _ln_g(n + 1.5 + b / 2)
        return complex(k + num - den)


def mp_det_tn(b: complex, n: int) -> complex:
    """log det T_n(v_b) = ln[G(1+b)^2/G(1+2b) G(1+n)G(1+2b+n)/G(1+b+n)^2]."""
    with mp.workdps(40):
        b = mp.mpc(b)
        return complex(2 * _ln_g(1 + b) - _ln_g(1 + 2 * b)
                       + _ln_g(1 + n) + _ln_g(1 + 2 * b + n) - 2 * _ln_g(1 + b + n))


def mod_2pi_distance(got: complex, want: complex) -> float:
    """|got - want| with the imaginary part reduced to (-pi, pi]."""
    d = got - want
    return abs(complex(d.real, d.imag - 2 * math.pi * round(d.imag / (2 * math.pi))))
