"""Log-Gamma / Barnes-G tests against frozen high-precision references and
the defining-product oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import whdet
from whdet import (
    ConstraintError,
    KernelFamily,
    KernelSpec,
    PoleError,
    ZeroError,
    barnes_ratio_asymptote,
    duplication_residual,
    fourier_coeff_v,
    kernel_eval,
    ln_barnes_g,
    ln_barnes_ratio,
    ln_gamma,
    sech_kernel,
)
from whdet.specfun import sin_pi

from _barnes_oracle import mod_2pi_distance
from _specfun_reference import REFERENCE

EULER_GAMMA = 0.5772156649015328606
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def ln_barnes_product_oracle(z: complex, terms: int = 400) -> complex:
    """Defining product of G, log-summed, with Hurwitz-zeta tail corrections.

    Independent of the package's asymptotic-expansion route; valid branch
    on Re z > 0.  Tail bound: after the m<=14 corrections the remainder is
    below |w/terms|^14 * terms, i.e. ~1e-18 for |w| <= 8.
    """
    w = complex(z) - 1.0
    s = w / 2 * math.log(2 * math.pi) - w * (w + 1) / 2 - EULER_GAMMA * w * w / 2
    ks = np.arange(1, terms + 1, dtype=float)
    s += complex(np.sum(ks * np.log(1.0 + w / ks) - w + w * w / (2 * ks)))
    for m in range(3, 15):
        s += (-1) ** (m + 1) * w**m / m * zeta(m - 1, terms + 1)
    return s


class TestLnGamma:
    def test_trivial_values(self):
        assert abs(ln_gamma(1.0)) < 1e-14
        assert abs(ln_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_frozen_reference(self):
        for (re, im), (lg, _) in REFERENCE.items():
            z = complex(re, im)
            got = ln_gamma(z)
            denom = max(abs(lg), 1.0)
            assert abs(got - lg) / denom < 1e-12, z

    def test_pole_rejection(self):
        for z in (0.0, -1.0, -7.0, -3.0 + 1e-13j):
            with pytest.raises(PoleError):
                ln_gamma(z)

    def test_conjugation_symmetry(self):
        for z in (0.3 + 0.7j, 2.5 - 1.2j, 5.0 + 3.0j):
            assert abs(ln_gamma(np.conj(z)) - np.conj(ln_gamma(z))) < 1e-13


class TestLnBarnesG:
    def test_trivial_values(self):
        assert abs(ln_barnes_g(1.0)) < 1e-13
        assert abs(ln_barnes_g(2.0)) < 1e-13
        # G(4) = Gamma(3) G(3) = 2 * Gamma(2) * G(2) = 2
        assert abs(ln_barnes_g(4.0) - math.log(2.0)) < 1e-12

    def test_half_value_against_product_oracle(self):
        want = ln_barnes_product_oracle(0.5)
        assert abs(ln_barnes_g(0.5) - want) < 1e-12

    def test_frozen_reference(self):
        for (re, im), (_, lb) in REFERENCE.items():
            z = complex(re, im)
            got = ln_barnes_g(z)
            denom = max(abs(lb), 1.0)
            assert abs(got - lb) / denom < 1e-12, z

    def test_zero_rejection(self):
        for z in (0.0, -2.0, -5.0 + 1e-13j):
            with pytest.raises(ZeroError):
                ln_barnes_g(z)

    def test_recursion_grid(self):
        # ln G(z+1) = ln Gamma(z) + ln G(z) on 100 points with |z| <= 8
        rng = np.random.default_rng(7)
        count = 0
        worst = 0.0
        while count < 100:
            z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(z) > 8:
                continue
            if abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05:
                continue  # stay off poles/zeros
            worst = max(worst, abs(ln_barnes_g(z + 1) - ln_gamma(z) - ln_barnes_g(z)))
            count += 1
        assert worst < 1e-10

    def test_conjugation_symmetry(self):
        for z in (0.3 + 0.7j, 2.5 - 1.2j, 6.0 + 3.0j):
            assert abs(ln_barnes_g(np.conj(z)) - np.conj(ln_barnes_g(z))) < 5e-13

    @PROPERTY
    @given(z=st.builds(complex, st.floats(-12.0, 30.0), st.floats(-3.0, 3.0)))
    @example(z=complex(9.999, 0.0))
    @example(z=complex(10.0, 0.5))
    def test_against_mpmath(self, z):
        # both sides of the switch to the plain expansion at Re z = 10 and the
        # left half-plane, where the shift takes up to 22 steps from one
        # loggamma; 6.1e-14 relative at most over 4000 draws
        assume(not (abs(z.imag) < 0.05 and z.real < 0.5
                    and abs(z.real - round(z.real)) < 0.05))  # off the zeros of G
        with mpmath.workdps(40):
            want = complex(mpmath.log(mpmath.barnesg(mpmath.mpc(z))))
        assert mod_2pi_distance(ln_barnes_g(z), want) <= 2e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("x", [-0.5, -4.5, -11.3])
    def test_negative_real_axis_from_above(self, x):
        # a -0.0 imaginary part is read as +0.0: the shift's logs and its
        # loggamma all take the upper side of their cuts, as the frozen
        # reference at -4.5 does
        assert ln_barnes_g(complex(x, -0.0)) == ln_barnes_g(complex(x, 0.0))
        up = ln_barnes_g(complex(x, 1e-9))
        assert abs(ln_barnes_g(x) - up) < 1e-6


class TestDuplication:
    def test_at_one(self):
        assert duplication_residual(1.0) < 1e-10

    def test_complex_point(self):
        assert duplication_residual(0.3 + 0.2j) < 1e-9

    def test_grid(self):
        for z in (0.4, 0.9, 1.7, 2.3, 0.6 + 0.4j, 1.1 - 0.3j):
            assert duplication_residual(z) < 1e-9

    @PROPERTY
    @given(z=st.builds(complex, st.floats(1e-3, 8.0, exclude_max=True),
                       st.floats(-3.0, 3.0, exclude_min=True, exclude_max=True)))
    @example(z=complex(1.3, -0.0))
    def test_drawn(self, z):
        # 2.8e-13 at most over 2e4 draws; every G here but G(2z) at Re z >= 5
        # goes through the shift from one loggamma
        assert duplication_residual(z) < 1e-12

    def test_beta_specialization(self):
        # G(1/2+b) G(1+b)^2 G(3/2+b) / G(1+2b) = (2pi)^b 2^{-2b^2} G(1/2) G(3/2)
        b = 0.25
        lhs = (
            ln_barnes_g(0.5 + b)
            + 2 * ln_barnes_g(1 + b)
            + ln_barnes_g(1.5 + b)
            - ln_barnes_g(1 + 2 * b)
        )
        rhs = (
            b * math.log(2 * math.pi)
            - 2 * b * b * math.log(2)
            + ln_barnes_g(0.5)
            + ln_barnes_g(1.5)
        )
        assert abs(np.exp(lhs - rhs) - 1) < 1e-10


class TestBarnesRatioAsymptote:
    def test_trivial_equal_lists(self):
        assert abs(barnes_ratio_asymptote([0.7], [0.7], 1000) - 1.0) < 1e-14

    def test_omega_two(self):
        got = barnes_ratio_asymptote([1.0, -1.0], [0.0, 0.0], 100)
        assert abs(got - 100.0) < 1e-10

    def test_constraint_violation(self):
        # unequal sums, unequal counts (as many G's above as below), n <= 0
        for xs, ys, n in (([1.0], [0.5], 10), ([1.0, 0.0], [1.0], 10), ([0.5], [0.5], 0)):
            for f in (barnes_ratio_asymptote, ln_barnes_ratio):
                with pytest.raises(ConstraintError):
                    f(xs, ys, n)

    @pytest.mark.parametrize("n", [11, 12, 39, 40, 41, 500])
    def test_ratio_is_the_direct_sum(self, n):
        # either side of the switch to the balanced expansion at n = 12 and
        # of the series lengths' bounds on |x|/n; the direct sum is still
        # good to ~1e-11 at n = 500
        xs, ys = [0.3 + 0.2j, -0.1, 0.4], [0.1, 0.1 + 0.2j, 0.4]
        direct = sum(ln_barnes_g(1 + n + x) for x in xs) - sum(ln_barnes_g(1 + n + y) for y in ys)
        assert abs(ln_barnes_ratio(xs, ys, n) - direct) <= 1e-14 * n * n

    def test_empty_ratio(self):
        assert ln_barnes_ratio([], [], 50) == 0.0
        assert barnes_ratio_asymptote([], [], 50) == 1.0

    def test_asymptote_is_the_leading_term(self):
        xs, ys = [0.3 + 0.2j, -0.1], [0.1, 0.1 + 0.2j]
        lead = np.log(barnes_ratio_asymptote(xs, ys, 10**4))
        assert abs(ln_barnes_ratio(xs, ys, 10**4) - lead) < 1e-4

    @pytest.mark.parametrize("xs,ys", [
        ([0.3 + 0.2j, -0.1], [0.1, 0.1 + 0.2j]),
        ([0.5, 0.25], [0.75, 0.0]),
    ])
    def test_direct_product(self, xs, ys):
        # prod G(1+x+n)/G(1+y+n) vs n^{omega/2} at n = 10^4, shrinking gap
        def product_gap(n):
            ln = sum(ln_barnes_g(1 + x + n) for x in xs) - sum(
                ln_barnes_g(1 + y + n) for y in ys
            )
            return abs(np.exp(ln) / barnes_ratio_asymptote(xs, ys, n) - 1.0)

        gap4 = product_gap(10**4)
        assert gap4 < 5e-3
        assert product_gap(10**4) < product_gap(10**3)


class TestSinPi:
    """sin(pi b) to full relative accuracy near the integers, and the
    prefactors that read it, against 40-digit mpmath."""

    @staticmethod
    def mp_sin_pi(b) -> complex:
        with mpmath.workdps(40):
            return complex(mpmath.sin(mpmath.pi * mpmath.mpc(b)))

    @pytest.mark.parametrize("b", [1 + 1e-9, 2 - 1e-9, -1 + 1.8e-7, 3 + 1e-12 + 1e-9j, 0.3])
    def test_against_mpmath(self, b):
        want = self.mp_sin_pi(b)
        assert abs(sin_pi(b) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("b", [1 + 1e-9, 2 - 1e-9])
    def test_reflected_v_coefficient(self, b):
        # k = 5 > 1 + b: the coefficient takes sin(pi b) through the reflection
        with mpmath.workdps(40):
            B = mpmath.mpf(b)
            want = float(-mpmath.gamma(1 + 2 * B) * mpmath.rgamma(1 + B + 5)
                         * mpmath.rgamma(1 + B - 5))
        assert abs(fourier_coeff_v(b, 5) - want) <= 1e-14 * abs(want)

    def test_sech_kernel_prefactor(self):
        # the kernel is -(sin pi b)/(2 pi) times one beta-free fit
        b = -1 + 1e-9
        ratio = sech_kernel(b).w_pos / sech_kernel(-0.5).w_pos
        want = -self.mp_sin_pi(b).real
        assert np.max(np.abs(ratio - want)) <= 1e-14 * abs(want)

    def test_sech_kernel_vanishes_at_minus_one(self):
        assert np.all(sech_kernel(-1.0).w_pos == 0.0)

    def test_cauchy_kernel_prefactor(self):
        b, x, y = 1 - 1e-9, 0.3, 0.45
        got = kernel_eval(KernelSpec(KernelFamily.K0, beta=b), x, y)
        want = -self.mp_sin_pi(b).real / math.pi / (x + y)
        assert abs(got - want) <= 1e-14 * abs(want)
