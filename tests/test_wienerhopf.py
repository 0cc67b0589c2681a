"""Truncated Wiener-Hopf +- Hankel determinants: doubling identity,
sech laboratory, factor-product determinant, geometric means."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import loggamma

from whdet import (
    BetaContext,
    DomainError,
    LineKind,
    LineSymbol,
    LogDet,
    TruncatedWH,
    akhiezer_kac_E,
    det_w2r,
    det_wr_pm_hr,
    eval_line,
    factor_product_logdet,
    finite_section_quotient,
    geometric_mean_log,
    ln_akhiezer_kac_E,
    reflected_union_rule,
    rel_exp_diff,
    wh_rule,
)
from whdet.params import _STRIPS

from _quad_oracle import geometric_mean_log_numeric


def vhat(beta, eps):
    return LineSymbol(LineKind.VHAT_EPS, beta=beta, eps=eps)


class TestDetWrPmHr:
    def test_beta_zero(self):
        t = TruncatedWH(vhat(0.0, 0.1), 5.0, sign=+1)
        assert det_wr_pm_hr(t).ln_abs == 0.0

    def test_unsupported_symbol(self):
        with pytest.raises(DomainError):
            TruncatedWH(LineSymbol(LineKind.VHAT, beta=0.3), 5.0, sign=+1)

    def test_node_refinement_order(self):
        # |x-y| kink limits plain Nystrom to O(h^2): deltas shrink ~4x per
        # panel doubling; at the finest affordable grids the doubling
        # change sits at ~3e-4, not the much smaller scales of the smooth
        # kernels elsewhere
        sym = vhat(0.3, 1e-3)
        vals = []
        for panels in (20, 40, 80):
            rule = wh_rule(20.0, panels=panels)
            vals.append(det_wr_pm_hr(TruncatedWH(sym, 20.0, rule, +1)).ln_abs)
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert 2.5 < d1 / d2 < 6.0
        assert d2 < 5e-4

    def test_value_against_quotient_route(self):
        # independent route: det(W_R +- H_R)(vhat_eps) =
        # e^{-b(1-eps)R} det(I +- Khat_{-b,eps,R}) / det(I +- H(u_{-b,r}))
        b, eps, R = 0.3, 1e-3, 20.0
        sym = vhat(b, eps)
        lds = []
        for panels in (40, 80):
            rule = wh_rule(R, panels=panels)
            lds.append(det_wr_pm_hr(TruncatedWH(sym, R, rule, +1)).ln_abs)
        direct = lds[1] + (lds[1] - lds[0]) / 3.0  # h^2 Richardson
        quotient = finite_section_quotient(-b, +1, R=R, eps=eps).ln_abs \
            - b * (1 - eps) * R
        assert abs(direct - quotient) < 1e-4

    def test_uhat_symbol_runs(self):
        t = TruncatedWH(LineSymbol(LineKind.UHAT_EPS, beta=0.2, eps=0.05), 4.0, sign=-1)
        ld = det_wr_pm_hr(t)
        assert np.isfinite(ld.ln_abs)

    # log det at R below the compression grid's first point 1e-2/eta_max,
    # where the window [0, 2R] lies under the whole-line grid: the values of
    # the whole-line kernel (compress with no window), to be reproduced
    TINY_R = {
        (LineKind.VHAT_EPS, 0.3, 1e-4, 1e-3, +1): (-0.00043907776830868963, 0.0),
        (LineKind.VHAT_EPS, 0.3, 1e-4, 1e-3, -1): (-1.4992197035268602e-07, 0.0),
        (LineKind.VHAT_EPS, 0.3, 1e-4, 4e-3, +1): (-0.001755669198070649, 0.0),
        (LineKind.VHAT_EPS, 0.3, 1e-4, 4e-3, -1): (-2.3950138478799943e-06, 0.0),
        (LineKind.UHAT_EPS, -0.3 + 0.2j, 1e-2, 1e-3, +1):
            (0.0001593764396763831, 0.00010182736238139276),
        (LineKind.UHAT_EPS, -0.3 + 0.2j, 1e-2, 1e-3, -1):
            (-0.0002969036164749653, 0.0001979932494501916),
        (LineKind.UHAT_EPS, -0.3 + 0.2j, 1e-2, 4e-3, +1):
            (0.000636552013485026, 0.0004064987598212482),
        (LineKind.UHAT_EPS, -0.3 + 0.2j, 1e-2, 4e-3, -1):
            (-0.0011864588249110028, 0.0007918913044306036),
    }

    @pytest.mark.parametrize("key", sorted(TINY_R, key=repr), ids=repr)
    def test_tiny_truncation(self, key):
        kind, b, eps, R, sign = key
        got = det_wr_pm_hr(TruncatedWH(LineSymbol(kind, beta=b, eps=eps), R, sign=sign))
        assert rel_exp_diff(got, LogDet(*self.TINY_R[key])) <= 1e-14

    def test_real_symbol_gives_real_logdet(self):
        for sym in (vhat(0.3, 1e-2), LineSymbol(LineKind.PHI, beta=-0.25)):
            for sign in (+1, -1):
                ld = det_wr_pm_hr(TruncatedWH(sym, 8.0, sign=sign))
                assert abs(math.remainder(ld.arg, math.pi)) < 1e-9
                assert abs(math.remainder(ld.arg, 2 * math.pi)) < 1e-9


DOUBLING_DRAWS = settings(max_examples=10, deadline=None, derandomize=True, database=None)


def strip_beta(ctx):
    """Complex betas with |Im b| < 1/2 and Re b 1e-3 inside the ends of ctx's strip."""
    lo, hi = _STRIPS[ctx]
    return st.builds(complex, st.floats(lo + 1e-3, hi - 1e-3), st.floats(-0.5, 0.5))


def doubling_residual(sym, R):
    """det W_2R against det(W_R + H_R) det(W_R - H_R) on the matched rule."""
    rule = wh_rule(R)
    ldp = det_wr_pm_hr(TruncatedWH(sym, R, rule, +1))
    ldm = det_wr_pm_hr(TruncatedWH(sym, R, rule, -1))
    return rel_exp_diff(det_w2r(sym, 2.0 * R, reflected_union_rule(rule)), ldp + ldm)


class TestDoublingIdentity:
    @pytest.mark.parametrize("beta", [0.3, -0.25])
    def test_matched_union(self, beta):
        assert doubling_residual(vhat(beta, 1e-3), 10.0) < 1e-6

    def test_beta_zero(self):
        assert det_w2r(vhat(0.0, 0.1), 8.0).ln_abs == 0.0

    # Complex betas over each symbol's strip, 1e-3 from its ends.  Measured
    # worst: 1.1e-10 for vhat_eps (at b = -0.999 + 0.3i) and 2.1e-14 for phi.
    # The identity needs an even symbol, so UHAT_EPS is left out: its
    # residual is 8.4 at b = -0.999 + 0.3i.
    @DOUBLING_DRAWS
    @given(b=strip_beta(BetaContext.KERNEL_FAMILY))
    def test_matched_union_vhat_eps_over_strip(self, b):
        assert doubling_residual(vhat(b, 1e-3), 5.0) <= 1e-9

    @DOUBLING_DRAWS
    @given(b=strip_beta(BetaContext.SECH))
    def test_matched_union_phi_over_strip(self, b):
        assert doubling_residual(LineSymbol(LineKind.PHI, beta=b), 5.0) <= 1e-9


class TestSechLab:
    def test_trend_toward_akhiezer_kac(self):
        sym = LineSymbol(LineKind.PHI, beta=0.3)
        lnE = ln_akhiezer_kac_E(0.3).real
        devs = []
        for s in (10.0, 20.0, 30.0):
            ld = det_w2r(sym, s)
            asym = -s * (0.3 / 2 + 0.09 / 2) + lnE
            devs.append(abs(np.exp(ld.ln_abs - asym) - 1.0))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-4

    def test_spectral_node_stability(self):
        sym = LineSymbol(LineKind.PHI, beta=0.3)
        a = det_w2r(sym, 15.0, wh_rule(15.0, panels=20))
        b = det_w2r(sym, 15.0, wh_rule(15.0, panels=40))
        assert abs(a.log - b.log) < 1e-10


class TestAkhiezerKacConstant:
    def test_beta_zero(self):
        assert abs(akhiezer_kac_E(0.0) - 1.0) < 1e-12

    def test_partial_product_oracle(self):
        # E as the exponential of the Gamma-ratio residue sums
        b = 0.3
        n = np.arange(10**4)
        t = (loggamma(1.5 + n) + loggamma(1.0 + n)
             - loggamma(1.5 + b / 2 + n) - loggamma(1.0 - b / 2 + n)
             + loggamma(1.0 + n) + loggamma(0.5 + n)
             - loggamma(1.0 + b / 2 + n) - loggamma(0.5 - b / 2 + n)
             + loggamma(1.5 + b + n) + loggamma(1.0 + n)
             - loggamma(1.5 + b / 2 + n) - loggamma(1.0 + b / 2 + n)
             + loggamma(1.0 + n) + loggamma(0.5 - b + n)
             - loggamma(1.0 - b / 2 + n) - loggamma(0.5 - b / 2 + n))
        partial = float(np.sum(np.real(t)))
        assert abs(partial - ln_akhiezer_kac_E(b).real) < 1e-6

    def test_conjugation(self):
        b = 0.2 + 0.15j
        assert abs(akhiezer_kac_E(np.conj(b)) - np.conj(akhiezer_kac_E(b))) < 1e-12

    def test_strip_guard(self):
        with pytest.raises(DomainError):
            ln_akhiezer_kac_E(0.7)


class TestGeometricMean:
    def test_beta_zero(self):
        assert geometric_mean_log(vhat(0.0, 0.1)) == 0.0

    def test_vhat_eps_closed_form(self):
        assert abs(geometric_mean_log(vhat(0.3, 0.1)) - (-0.27)) < 1e-14

    def test_phi_closed_vs_quadrature(self):
        b = 0.3
        closed = geometric_mean_log(LineSymbol(LineKind.PHI, beta=b))
        f = lambda x: math.log(1.0 - math.sin(math.pi * b) / math.cosh(math.pi * x))
        val, _ = quad(f, -60, 60, limit=400, epsabs=1e-13)
        assert abs(closed - val / (2 * np.pi)) < 1e-9

    @pytest.mark.parametrize("sym", [
        vhat(0.25, 0.2), vhat(-0.4, 1e-3), vhat(0.3 + 0.2j, 0.5),
        LineSymbol(LineKind.VHAT, beta=0.3), LineSymbol(LineKind.VHAT, beta=-0.2 + 0.1j),
        LineSymbol(LineKind.PHI, beta=-0.3), LineSymbol(LineKind.PHI, beta=0.2 + 0.1j),
        *(LineSymbol(LineKind.UHAT_EPS, beta=b, eps=0.1) for b in (0.3, -0.4, 0.3 + 0.2j)),
        *(LineSymbol(LineKind.UHAT_EPS, beta=b, eps=eps)
          for b in (0.9, -0.7, 0.5 + 0.4j, 2.3) for eps in (1e-3, 0.5)),
    ], ids=repr)
    def test_closed_form_vs_quadrature(self, sym):
        want = geometric_mean_log_numeric(lambda x: eval_line(sym, x))
        assert abs(geometric_mean_log(sym) - want) < 1e-12

    def test_nonintegrable_log_rejected(self):
        # the pure jump symbol has no closed form: its log jumps at 0
        with pytest.raises(DomainError):
            geometric_mean_log(LineSymbol(LineKind.UHAT, beta=0.3))

    def test_oracle_rejects_nonintegrable_log(self):
        # log(1/(1+x^2)) ~ -2 log|x| at infinity: not integrable
        with pytest.raises(AssertionError):
            geometric_mean_log_numeric(lambda x: 1.0 / (1.0 + x * x))


class TestFactorProduct:
    def test_factor_product_matches_geometric_mean(self):
        # det[W_R(a_-) W_R(a_+)] = G[a]^R = e^{-b(1-eps)R}
        b, eps, R = 0.3, 1e-2, 10.0
        ld = factor_product_logdet(b, eps, R, rule=wh_rule(R, panels=48))
        target = -b * (1 - eps) * R
        assert abs(ld.ln_abs - target) < 1e-4
        assert abs(ld.arg) < 1e-10


class TestCutAssemblyRange:
    @pytest.mark.parametrize("R", [1000.0, 3000.0])
    @pytest.mark.parametrize("sym", [vhat(0.3, 1e-3), LineSymbol(LineKind.PHI, beta=0.3)],
                             ids=["vhat_eps", "phi"])
    def test_doubling_identity_at_large_R(self, sym, R):
        # eps R up to 3: far beyond the R <= 600 that the e^{+eta x} factors
        # of a dense assembly allowed.  The identity is exact for any matched
        # rule, so a coarse one (N = 4R, 8R; the default has 32R, 64R)
        # checks the arithmetic.  At one 8-node panel per 8 units the Nystrom
        # matrix of W_R + H_R turns indefinite (eigenvalue -2.6e-3 at R = 300)
        # and the identity holds only to 7.5e-10 at R = 3000.
        rule = wh_rule(R, panels=int(R) // 2, nodes=8)
        ldp = det_wr_pm_hr(TruncatedWH(sym, R, rule, +1))
        ldm = det_wr_pm_hr(TruncatedWH(sym, R, rule, -1))
        ld2 = det_w2r(sym, 2.0 * R, reflected_union_rule(rule))
        assert rel_exp_diff(ld2, ldp + ldm) < 1e-10

    def test_sech_symbol_unaffected(self):
        sym = LineSymbol(LineKind.PHI, beta=0.3)
        ld = det_w2r(sym, 700.0, wh_rule(700.0, panels=2, nodes=4))
        assert np.isfinite(ld.ln_abs)
