"""Hankel sections on the exponential-sum layer: the coefficient sums of u_b
and u_{b,r}, the r x r section determinants of ``expsum.hankel_logdet``,
the inverse section with its N^{-(1 + 2 sign Re b)} extrapolation and the
whole regularized Hankel determinant, against the dense N x N oracles of
``_dense_oracle`` (N <= 2048) and the closed forms."""

import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import whdet.symbols

from whdet import (
    BetaContext,
    CircleKind,
    CircleSymbol,
    DomainError,
    LogDet,
    d_n,
    fredholm_det_hankel_reg,
    hankel_section_inverse_det,
    ln_det_hankel_reg_exact,
    logdet,
    rel_exp_diff,
)
from whdet.expsum import hankel_logdet
from whdet.params import EXCLUSION_TOL, _STRIPS
from whdet.structured import SECTION_RATIO
from whdet.symbols import fourier_coeff_u, jump_coeff_sum

from _dense_oracle import dense_hankel, dense_section_inverse, reg_coeffs

PROPERTY = settings(max_examples=10, deadline=None, derandomize=True, database=None)
FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
IMAG = st.one_of(st.just(0.0), st.floats(-0.4, 0.4))
#: how far into HANKEL_REG's unbounded strip (Re b > -1) betas are drawn
REG_WIDTH = 3.0


def _beta(context, u, im):
    lo, hi = _STRIPS[context]
    hi = min(hi, lo + REG_WIDTH)
    b = lo + u * (hi - lo)
    if not lo + EXCLUSION_TOL < b < hi - EXCLUSION_TOL:  # u too near 0 or 1
        b = 0.5 * (lo + hi)
    return complex(b, im) if im else b


def _section_context(sign):
    return BetaContext.CONTINUOUS_PLUS if sign > 0 else BetaContext.SECH


def _reg(b, r):
    return CircleSymbol(CircleKind.UBETA_R, beta=b, r=r)


class TestCoefficientSums:
    @pytest.mark.parametrize("b", [0.3, -0.3, 0.7, -0.95, 0.2 + 0.3j, 1.3, 1.7 - 0.2j])
    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
    def test_reg_sum_matches_fft_table(self, b, r):
        # the leading Re b + 1/2 coefficients explicit, the rest from the sum
        c = jump_coeff_sum(_reg(b, r))
        assert len(c.lead) == max(0, math.ceil(complex(b).real + 0.5) - 1)
        K = 2000
        want = reg_coeffs(b, r, K)[1:]
        assert np.max(np.abs(c(np.arange(1, K + 1)) - want)) <= 2e-15

    @pytest.mark.parametrize("b", [0.3, -0.45, 1.2, 0.6 + 0.2j, -1.3])
    def test_jump_sum_matches_closed_form(self, b):
        kmax = 2**31
        c = jump_coeff_sum(CircleSymbol(CircleKind.UBETA, beta=b), kmax)
        ks = np.unique(np.geomspace(1, kmax, 200).astype(np.int64))
        want = fourier_coeff_u(b, ks)
        # relative to each coefficient: the sum is compressed one band of
        # exponents at a time, so the slow ones keep their accuracy
        assert np.max(np.abs(c(ks) - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("b, r", [(1.3, 0.999), (2.6, 0.99), (1.9, 0.9999), (3.4, 0.9),
                                      (1.7 - 0.2j, 0.99), (2.2 + 0.3j, 0.999)])
    def test_reg_lead_matches_hypergeometric(self, b, r):
        # c_k = r^k (-b)_k / k! 2F1(k - b, b; k + 1; r^2) at 40 digits
        lead = jump_coeff_sum(_reg(b, r)).lead
        assert len(lead) == math.ceil(complex(b).real + 0.5) - 1
        with mpmath.workdps(40):
            B, R = mpmath.mpc(b), mpmath.mpf(r)
            want = np.array([complex(R**k * mpmath.rf(-B, k) / mpmath.factorial(k)
                                     * mpmath.hyp2f1(k - B, B, k + 1, R * R))
                             for k in range(1, len(lead) + 1)])
        assert np.max(np.abs(lead - want) / np.abs(want)) <= 2e-15

    def test_reg_lead_near_one_raises_before_sampling(self, monkeypatch):
        # at Re b >= 1/2 the lead needs about 40/(1 - r) samples: over the cap
        def unreachable(*args, **kwargs):
            raise AssertionError("the symbol was sampled")
        monkeypatch.setattr(whdet.symbols, "eval_circle", unreachable)
        with pytest.raises(DomainError, match="samples"):
            fredholm_det_hankel_reg(0.7, 1 - 1e-8, +1)

    def test_real_beta_real_sum(self):
        for s in (_reg(0.3, 0.9), CircleSymbol(CircleKind.UBETA, beta=-0.3)):
            c = jump_coeff_sum(s, 64)
            assert not np.iscomplexobj(c.tail.w_pos) and not np.iscomplexobj(c.lead)

    def test_guards(self):
        with pytest.raises(DomainError):
            jump_coeff_sum(CircleSymbol(CircleKind.UBETA, beta=0.3))  # no kmax
        with pytest.raises(DomainError):
            jump_coeff_sum(_reg(-1.2, 0.5))  # the cut integral diverges
        with pytest.raises(DomainError):
            jump_coeff_sum(CircleSymbol(CircleKind.VBETA, beta=0.3), 8)
        with pytest.raises(DomainError):  # the section ends in the explicit rows
            hankel_logdet(jump_coeff_sum(_reg(2.7, 0.5)), +1, 0, 2)


@pytest.mark.parametrize("sign", [+1, -1])
@PROPERTY
@given(u=FRACTION, im=IMAG, r=st.floats(0.5, 0.99), start=st.sampled_from([0, 1, 3]),
       stop=st.sampled_from([8, 64, 512]))
# b = 1.8125: off by 1.1e-12 at sign +1, 1.7e-15 at -1.  Pinned here, since the
# draws hypothesis makes depend on the literals of every loaded module
@example(u=0.9375, im=0.0, r=0.984375, start=0, stop=8)
def test_reg_sections_match_dense(sign, u, im, r, start, stop):
    # Q_s H_N Q_s for s = start, N = stop, explicit rows included at Re b >= 1/2
    b = _beta(BetaContext.HANKEL_REG, u, im)
    got = hankel_logdet(jump_coeff_sum(_reg(b, r)), sign, start, stop)
    want = logdet(dense_hankel(sign * reg_coeffs(b, r, 2 * stop), start, stop))
    assert rel_exp_diff(got, want) <= 1e-12


@pytest.mark.parametrize("sign", [+1, -1])
@PROPERTY
@given(u=FRACTION, im=IMAG, n=st.integers(1, 4), N=st.sampled_from([16, 32, 64, 128]))
def test_section_inverse_matches_dense(sign, u, im, n, N):
    b = _beta(_section_context(sign), u, im)
    res = hankel_section_inverse_det(b, n, sign, N=N, tol=np.inf)
    assert rel_exp_diff(res.coarse, dense_section_inverse(b, n, sign, N)) <= 1e-12
    assert rel_exp_diff(res.fine, dense_section_inverse(b, n, sign, SECTION_RATIO * N)) <= 1e-12


@pytest.mark.parametrize("sign", [+1, -1])
@PROPERTY
@given(u=FRACTION, im=IMAG, r=st.floats(0.5, 0.999))
def test_reg_determinant_matches_closed_form(sign, u, im, r):
    # 1e-13 wherever the determinant is not small; as r -> 1 it falls like
    # (1 - r)^{(b^2 +- b)/2} and the error grows like 1e-16/|det| (3e-4 at
    # b = 2.5, r = 0.999, where det = 3e-13)
    b = _beta(BetaContext.HANKEL_REG, u, im)
    want = ln_det_hankel_reg_exact(b, r, sign)
    got = fredholm_det_hankel_reg(b, r, sign)
    assert rel_exp_diff(got, LogDet.from_log(want)) <= 1e-13 / min(1.0, abs(np.exp(want)))


def _block(b, n, sign, N):
    return hankel_section_inverse_det(b, n, sign, N=N, tol=np.inf).coarse.log


def _step(a, b):
    d = b - a
    return abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))


@pytest.mark.parametrize("sign", [+1, -1])
@PROPERTY
@given(size=st.floats(0.05, 0.35), side=st.sampled_from([+1, -1]),
       im=st.one_of(st.just(0.0), st.floats(-0.3, 0.3)))
def test_block_converges_at_the_predicted_rate(sign, size, side, im):
    # |v_4N - v_N| / |v_16N - v_4N| = 4^p, p = 1 + 2 sign Re b.  At Re b =
    # +-0.45 the next term, of order N^-2 or N^-0.2, still moves the
    # measured rate by 0.06-0.1 at N = 2^20; |Re b| <= 0.35 keeps it within
    # 0.05 here.  Near b = 0 the error's amplitude vanishes with b.
    b = complex(side * size, im)
    N = 2**14
    v = [_block(b, 4, sign, N * 4**i) for i in range(3)]
    rate = math.log(_step(v[0], v[1]) / _step(v[1], v[2]), 4.0)
    assert abs(rate - (1.0 + 2.0 * sign * b.real)) <= 0.1


@pytest.mark.parametrize("sign", [+1, -1])
def test_extrapolation(sign):
    b = 0.2 * sign
    res = hankel_section_inverse_det(b, 4, sign, N=1024)
    p = 1.0 + 2.0 * sign * b
    assert res.exponent == p
    q = SECTION_RATIO**p
    assert abs(res.value.log - (q * res.fine.log - res.coarse.log) / (q - 1.0)) <= 1e-15
    assert res.refinement == abs(res.fine.log - res.coarse.log)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("b, tol", [(0.1, 1e-7), (0.3, 1e-7), (0.45, 1e-7),
                                    (-0.1, 1e-4), (-0.3, 1e-4)])
def test_inverse_section_residual_against_d_n(sign, b, tol):
    # at N = 1024, b = 0.3: 1.5e-8 with beta paired to the sign, 5.6e-5 with
    # the opposite sign.  At b = -0.45 against the sign p = 0.1 and the
    # residual is 0.1.
    b = sign * b
    res = hankel_section_inverse_det(b, 4, sign, N=1024, tol=np.inf)
    assert rel_exp_diff(res.value, d_n(b, 4, sign)) <= tol


def test_any_truncation_without_a_dense_matrix():
    # N = 2^26 and 16N: a dense section would take 36 PB; the r x r route
    # takes a few MB and a few tens of ms
    tracemalloc.start()
    try:
        start = time.perf_counter()
        res = hankel_section_inverse_det(0.3, 4, +1, N=2**26)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 1.0
    assert peak < 64 * 2**20
    assert rel_exp_diff(res.value, d_n(0.3, 4, +1)) <= 1e-12
