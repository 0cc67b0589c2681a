"""Asymptotic formulas, their mutual consistency through the duplication
identity, convergence tables, and the closing constant."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from whdet import (
    AsymKind,
    AsymptoteSpec,
    BetaContext,
    DomainError,
    LogDet,
    asymptote_log,
    c_beta,
    convergence_table,
    d_n,
    d_n_exact,
    det_tn_exact,
    finite_section_quotient,
    fredholm_det_hankel_reg,
    hankel_section_inverse_det,
    ln_akhiezer_kac_E,
    ln_barnes_g,
    ln_c_beta,
    rel_exp_diff,
)
from whdet.params import _STRIPS, check_beta

from _barnes_oracle import mod_2pi_distance, mp_d_n, mp_det_tn

BETA_GRID = [0.1, -0.1, 0.25, -0.3, 0.2 + 0.15j]


class TestAsymptoteLog:
    def test_beta_zero_collapses(self):
        for kind in AsymKind:
            spec = AsymptoteSpec(kind, 0.0)
            assert abs(asymptote_log(spec, 12.0)) < 1e-12

    def test_discrete_plus_is_its_formula(self):
        b, n = 0.25, 10**6
        spec = AsymptoteSpec(AsymKind.DISCRETE_PLUS, b)
        want = ((b * b / 2 - b / 2) * math.log(n) + (b / 2) * math.log(2 * math.pi)
                - b * b / 2 * math.log(2) + ln_barnes_g(0.5) - ln_barnes_g(0.5 + b))
        assert abs(asymptote_log(spec, n) - want) < 1e-12

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_duplication_consistency_continuous(self, beta):
        # main+ at R plus main- at R equals the doubling formula at 2R
        R = 7.3
        lhs = (asymptote_log(AsymptoteSpec(AsymKind.CONTINUOUS_PLUS, beta), R)
               + asymptote_log(AsymptoteSpec(AsymKind.CONTINUOUS_MINUS, beta), R))
        rhs = asymptote_log(AsymptoteSpec(AsymKind.W2R_CONT, beta), 2 * R)
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_duplication_consistency_discrete(self, beta):
        n = 37
        lhs = (asymptote_log(AsymptoteSpec(AsymKind.DISCRETE_PLUS, beta), n)
               + asymptote_log(AsymptoteSpec(AsymKind.DISCRETE_MINUS, beta), n))
        rhs = asymptote_log(AsymptoteSpec(AsymKind.T2N_DISCRETE, beta), 2 * n)
        assert abs(lhs - rhs) < 1e-10

    def test_strip_guards(self):
        with pytest.raises(DomainError):
            AsymptoteSpec(AsymKind.CONTINUOUS_MINUS, 0.8)
        with pytest.raises(DomainError):
            AsymptoteSpec(AsymKind.CONTINUOUS_PLUS, -0.6)


# --- the paper's formulas term by term, as the AsymKind comments state them --

LN2, LN2PI = math.log(2.0), math.log(2.0 * math.pi)
G = ln_barnes_g


def _ln_e(b):
    """ln E[phi_b] = ln G^2(3/2+b/2) G^2(1+b/2) G^2(1-b/2) G^2(1/2-b/2)
    - ln G(1/2) G(3/2) G(3/2+b) G(1/2-b)."""
    return (2 * (G(1.5 + b / 2) + G(1 + b / 2) + G(1 - b / 2) + G(0.5 - b / 2))
            - (G(0.5) + G(1.5) + G(1.5 + b) + G(0.5 - b)))


#: each kind: its strip, and its log-asymptote at scale s written out
PAPER = {
    AsymKind.CONTINUOUS_PLUS: (BetaContext.CONTINUOUS_PLUS, lambda b, s: (
        -b * s + (b * b / 2 - b / 2) * math.log(s) + b / 2 * LN2PI
        + (-b * b + b / 2) * LN2 + G(0.5) - G(0.5 + b))),
    AsymKind.CONTINUOUS_MINUS: (BetaContext.CONTINUOUS_MINUS, lambda b, s: (
        -b * s + (b * b / 2 + b / 2) * math.log(s) + b / 2 * LN2PI
        + (-b * b - b / 2) * LN2 + G(1.5) - G(1.5 + b))),
    AsymKind.DISCRETE_PLUS: (BetaContext.DISCRETE_PLUS, lambda b, n: (
        (b * b / 2 - b / 2) * math.log(n) + b / 2 * LN2PI - b * b / 2 * LN2
        + G(0.5) - G(0.5 + b))),
    AsymKind.DISCRETE_MINUS: (BetaContext.DISCRETE_MINUS, lambda b, n: (
        (b * b / 2 + b / 2) * math.log(n) + b / 2 * LN2PI - b * b / 2 * LN2
        + G(1.5) - G(1.5 + b))),
    AsymKind.W2R_CONT: (BetaContext.MATRIX, lambda b, S: (
        -b * S + b * b * math.log(S / 2) + 2 * G(1 + b) - G(1 + 2 * b))),
    AsymKind.T2N_DISCRETE: (BetaContext.MATRIX, lambda b, m: (
        b * b * math.log(m) + 2 * G(1 + b) - G(1 + 2 * b))),
    AsymKind.SECH: (BetaContext.SECH, lambda b, s: -s * (b / 2 + b * b / 2) + _ln_e(b)),
    AsymKind.CBETA: (BetaContext.CONTINUOUS_MINUS, lambda b, s: (
        b * b * LN2 + G(0.5) + G(1.5) + G(1.5 + b) + G(0.5 - b)
        - 2 * (G(1.5 + b / 2) + G(1 + b / 2) + G(1 - b / 2) + G(0.5 - b / 2)))),
}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
IMAG = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
SCALE = st.floats(1.0, 1e4)
#: the window of Re b drawn where a strip is unbounded: the discrete ladders
#: (whose strip is the plane off -1/2, -3/2, ...) and MATRIX (Re b > -1/2)
WINDOW = (-3.0, 3.0)
#: how far draws keep from the strip edges and the ladder points, which are
#: zeros of G in the formulas: check_beta rejects a beta within 1e-12 of one
EDGE = 1e-6


def _beta(context, u, im):
    """A beta of the strip at fraction u of its (windowed) width."""
    lo, hi = _STRIPS.get(context, WINDOW)
    lo, hi = max(lo, WINDOW[0]) + EDGE, min(hi, WINDOW[1]) - EDGE
    b = complex(lo + u * (hi - lo), im)
    assume(min(abs(b - (k + 0.5)) for k in range(-4, 0)) > EDGE)
    return check_beta(b, context)


def _tol(b, s):
    """1e-12 plus two roundings of the term b s, which is about 1e4 at the
    largest scales: two sums of the same terms in another order end up
    apart by one unit in the last place of a number of that size."""
    return 1e-12 + 2 * math.ulp(abs(b) * s)


@pytest.mark.parametrize("kind", list(AsymKind), ids=lambda k: k.name)
@PROPERTY
@given(u=FRACTION, im=IMAG, scale=SCALE)
def test_table_is_the_paper_formula(kind, u, im, scale):
    context, formula = PAPER[kind]
    b = _beta(context, u, im)
    got = asymptote_log(AsymptoteSpec(kind, b), scale)
    assert abs(got - formula(b, scale)) <= _tol(b, scale)


@PROPERTY
@given(u=FRACTION, im=IMAG, n=SCALE)
def test_discrete_sum_rule(u, im, n):
    # DISC+(n) + DISC-(n) = T2N(2n) on MATRIX, inside both ladder planes
    b = _beta(BetaContext.MATRIX, u, im)
    lhs = (asymptote_log(AsymptoteSpec(AsymKind.DISCRETE_PLUS, b), n)
           + asymptote_log(AsymptoteSpec(AsymKind.DISCRETE_MINUS, b), n))
    assert abs(lhs - asymptote_log(AsymptoteSpec(AsymKind.T2N_DISCRETE, b), 2 * n)) <= 1e-12


@PROPERTY
@given(u=FRACTION, im=IMAG, R=SCALE)
def test_continuous_sum_rule(u, im, R):
    # CONT+(R) + CONT-(R) = W2R_CONT(2R) on (-1/2, 1/2), where the strips meet
    b = complex(-0.5 + EDGE + u * (1.0 - 2 * EDGE), im)
    lhs = (asymptote_log(AsymptoteSpec(AsymKind.CONTINUOUS_PLUS, b), R)
           + asymptote_log(AsymptoteSpec(AsymKind.CONTINUOUS_MINUS, b), R))
    rhs = asymptote_log(AsymptoteSpec(AsymKind.W2R_CONT, b), 2 * R)
    assert abs(lhs - rhs) <= _tol(b, 2 * R)


class TestConvergenceTable:
    def test_values_on_asymptote(self):
        spec = AsymptoteSpec(AsymKind.DISCRETE_PLUS, 0.25)
        values = [(float(n), LogDet.from_log(asymptote_log(spec, float(n))))
                  for n in (8, 16, 32)]
        table = convergence_table(values, spec)
        assert all(r.deviation < 1e-14 for r in table.rows)

    def test_synthetic_first_order(self):
        spec = AsymptoteSpec(AsymKind.DISCRETE_PLUS, 0.25)
        values = []
        for n in (16.0, 32.0, 64.0, 128.0):
            ln = asymptote_log(spec, n) + math.log(1.0 + 0.7 / n)
            values.append((n, LogDet.from_log(ln)))
        table = convergence_table(values, spec)
        assert abs(table.fitted_exponent + 1.0) < 0.1

    def test_dn_sweep_deviations_decreasing(self):
        for sign, kind in ((+1, AsymKind.DISCRETE_PLUS), (-1, AsymKind.DISCRETE_MINUS)):
            spec = AsymptoteSpec(kind, 0.25)
            values = [(float(n), d_n(0.25, n, sign)) for n in (64, 128, 256, 512)]
            table = convergence_table(values, spec)
            devs = table.deviations
            assert all(a > b for a, b in zip(devs[:-1], devs[1:]))

    def test_needs_increasing_scales(self):
        spec = AsymptoteSpec(AsymKind.DISCRETE_PLUS, 0.25)
        vals = [(8.0, LogDet(0, 0)), (8.0, LogDet(0, 0)), (16.0, LogDet(0, 0))]
        with pytest.raises(DomainError):
            convergence_table(vals, spec)


class TestCBeta:
    def test_beta_zero(self):
        assert abs(c_beta(0.0) - 1.0) < 1e-12

    @pytest.mark.parametrize("beta", [0.2, -0.3, 0.1 + 0.2j])
    def test_product_with_E_collapses(self, beta):
        # ln C_b + ln E[phi_b] = b^2 ln 2 (the Barnes blocks cancel)
        got = ln_c_beta(beta) + ln_akhiezer_kac_E(beta)
        assert abs(got - beta * beta * math.log(2)) < 1e-10

    def test_strip(self):
        with pytest.raises(DomainError):
            ln_c_beta(0.7)

    def test_limit_consistency(self):
        # C_{+-b} = lim det(I +- H(uhat_{b,eps})) / det(I +- K0 on [eps,1]):
        # estimated at eps=1e-4 through the closed form and the Nystrom
        # restriction of the Cauchy kernel
        from whdet import (KernelFamily, KernelSpec, fredholm_logdet, gauss_rule,
                           geometric_ends, ln_det_hankel_reg_exact, nystrom)
        b, eps = 0.2, 1e-4
        r = (1 - eps) / (1 + eps)
        spec = KernelSpec(KernelFamily.K0, beta=b)
        rule = gauss_rule(16, geometric_ends(eps, 1.0, 40, 12))
        for sign in (+1, -1):
            num = ln_det_hankel_reg_exact(b, r, sign)
            den = fredholm_logdet(nystrom(spec, rule), sign)
            est = (num - den.log).real
            want = ln_c_beta(sign * b).real
            assert abs(est - want) < 5e-2, (sign, est, want)


class TestDiscreteContinuousBridge:
    def test_projection_dets_agree_at_doubled_scale(self):
        # continuous P_R-determinant vs discrete P_n-determinant at R = 2n:
        # the two independent routes land within 2e-4 of each other at all
        # tested n (their true gap decays with n but sits below the
        # numerical floor already at n = 8)
        for n in (8, 16, 32):
            R = 2.0 * n
            cont = finite_section_quotient(0.3, -1, R=R, eps=1e-7)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                disc = hankel_section_inverse_det(-0.3, n, -1, N=2048)
            assert abs(cont.ln_abs - disc.value.ln_abs) < 2e-4, n


#: |Re b| < 1/2, |Im b| < 1/2: the strip the finite-n products are drawn on
CLOSED_BETA = st.builds(complex, st.floats(-0.499, 0.499), st.floats(-0.499, 0.499))
#: n from 1 to 1e5, small orders drawn as often as large ones, so both
#: sides of ``ln_barnes_ratio``'s switch at n = 12 are reached
ORDER = st.one_of(st.integers(1, 64), st.integers(65, 10**5))
SIGN = st.sampled_from([+1, -1])
MPMATH = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestExactProductsAgainstMpmath:
    """d_n_exact and det_tn_exact against their Barnes-G products at 40
    digits, modulo 2 pi i.  The direct sum of eight ln G's near
    n^2 ln(n)/2 was off by 1.5e-8 at n = 2048 and 3e-5 at n = 1e5; the
    balanced expansion keeps every term O(1)."""

    @MPMATH
    @given(b=CLOSED_BETA, n=ORDER, sign=SIGN)
    @example(b=1.7, n=43, sign=-1)
    def test_d_n_exact(self, b, n, sign):
        assert mod_2pi_distance(d_n_exact(b, n, sign).log, mp_d_n(b, n, sign)) <= 2e-12

    @MPMATH
    @given(b=CLOSED_BETA, n=ORDER)
    @example(b=1.7, n=67)
    def test_det_tn_exact(self, b, n):
        assert mod_2pi_distance(det_tn_exact(b, n).log, mp_det_tn(b, n)) <= 2e-12

    @pytest.mark.parametrize("n", [1, 8, 11, 12, 13, 14, 39, 40, 68, 2048, 10**5])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_beyond_the_strip(self, n, sign):
        # b = 1.7: |x| up to 2.2 (3.4 in det T_n), so the direct sum up to
        # n = 11 (13) and the expansion from |x|/n = 0.18 (0.24) down
        assert mod_2pi_distance(d_n_exact(1.7, n, sign).log, mp_d_n(1.7, n, sign)) <= 2e-12
        assert mod_2pi_distance(det_tn_exact(1.7, n).log, mp_det_tn(1.7, n)) <= 2e-12

    @PROPERTY
    @given(b=CLOSED_BETA, n=st.integers(12, 200), sign=SIGN)
    def test_branch_is_the_direct_sums(self, b, n, sign):
        # the imaginary part itself, not modulo 2 pi: the balanced expansion
        # continues the product from real b as the sum of the eight
        # accumulated-branch ln G's does (which loses ~1e-10 here)
        h = 0.5 if sign > 0 else 1.5
        direct = (G(h) - G(h + b) + (b / 2) * LN2PI - (b * b / 2) * LN2
                  + G(n + 2 - h) + G(n + 1) + G(n + 1 + b) + G(n + h + b)
                  - G(n + 0.5 + b / 2) - 2 * G(n + 1 + b / 2) - G(n + 1.5 + b / 2))
        assert abs(d_n_exact(b, n, sign).log - direct) <= 1e-9
        direct = 2 * G(1 + b) - G(1 + 2 * b) + G(1 + n) + G(1 + 2 * b + n) - 2 * G(1 + b + n)
        assert abs(det_tn_exact(b, n).log - direct) <= 1e-9
