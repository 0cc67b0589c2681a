"""Symbol evaluation, Fourier coefficients vs the quadrature oracle, and
line-kernel checks against direct oscillatory Fourier transforms."""

import math

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import quad
from scipy.special import loggamma, sici

from whdet import (
    CircleKind,
    CircleSymbol,
    DomainError,
    LineKind,
    LineSymbol,
    SingularPointError,
    cut_kernel,
    eval_circle,
    eval_line,
    fourier_coeff_u,
    fourier_coeff_v,
    reg_coeff_table,
    sech_kernel,
)

from _quad_oracle import fourier_coeff_numeric


def vsym(beta):
    return CircleSymbol(CircleKind.VBETA, beta=beta)


def usym(beta):
    return CircleSymbol(CircleKind.UBETA, beta=beta)


def numeric(s, k, **kw):
    """The quadrature oracle at a circle symbol; v_b behaves like
    |theta|^{2 Re b} at 0."""
    alpha = 2 * complex(s.beta).real if s.kind is CircleKind.VBETA else 0.0
    return fourier_coeff_numeric(lambda th: eval_circle(s, th), k, alpha=alpha, **kw)


def coeff(s, k):
    """Coefficient k of a regularized symbol from the smallest table holding it."""
    return reg_coeff_table(s, abs(k))[abs(k) + k]


class TestEvalCircle:
    def test_v_at_pi(self):
        assert abs(eval_circle(vsym(1.0), np.pi) - 4.0) < 1e-14

    def test_u_at_pi(self):
        assert abs(eval_circle(usym(0.7 + 0.2j), np.pi) - 1.0) < 1e-14

    def test_regularized_at_zero(self):
        s = CircleSymbol(CircleKind.VBETA_R, beta=0.3, r=0.9)
        assert abs(eval_circle(s, 0.0) - 0.1**0.6) < 1e-14

    def test_singular_point_rejected(self):
        for s in (vsym(0.3), usym(0.3)):
            with pytest.raises(SingularPointError):
                eval_circle(s, 0.0)

    def test_evenness_of_v(self):
        th = np.linspace(0.1, np.pi, 9)
        a = eval_circle(vsym(0.3 + 0.2j), th)
        b = eval_circle(vsym(0.3 + 0.2j), 2 * np.pi - th)
        assert np.max(np.abs(a - b)) < 1e-13

    def test_jump_relation(self):
        # u_{beta,r} * (1-r/t)^beta (1-rt)^{-beta} = 1 pointwise
        th = np.linspace(0.2, 6.0, 11)
        b, r = 0.35 + 0.15j, 0.8
        u = eval_circle(CircleSymbol(CircleKind.UBETA_R, beta=b, r=r), th)
        t = np.exp(1j * th)
        assert np.max(np.abs(u * (1 - r / t) ** b * (1 - r * t) ** (-b) - 1)) < 1e-13

    def test_factorization_of_v(self):
        th = np.linspace(0.2, 6.0, 11)
        b = 0.3 + 0.2j
        v = eval_circle(vsym(b), th)
        t = np.exp(1j * th)
        assert np.max(np.abs(v - (1 - t) ** b * (1 - 1 / t) ** b)) < 1e-12


class TestCoefficientsV:
    def test_beta_one(self):
        assert abs(fourier_coeff_v(1.0, 0) - 2.0) < 1e-14
        assert abs(fourier_coeff_v(1.0, 1) + 1.0) < 1e-14
        assert abs(fourier_coeff_v(1.0, -1) + 1.0) < 1e-14
        for k in (2, -3, 5):
            assert abs(fourier_coeff_v(1.0, k)) < 1e-14

    def test_beta_zero(self):
        assert abs(fourier_coeff_v(0.0, 0) - 1.0) < 1e-15
        assert abs(fourier_coeff_v(0.0, 3)) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            fourier_coeff_v(-0.6, 0)

    @pytest.mark.parametrize("beta", [0.3, -0.35, 0.25 + 0.3j])
    def test_against_quadrature(self, beta):
        for k in (-16, -5, -2, 0, 1, 2, 3, 8, 16):
            want = numeric(vsym(beta), k)
            assert abs(fourier_coeff_v(beta, k) - want) < 1e-10

    def test_oracle_self_consistency(self):
        a = numeric(vsym(0.3), 2, tol=1e-11)
        b = numeric(vsym(0.3), 2, tol=1e-12)
        assert abs(a - b) < 1e-10

    def test_oracle_constant_symbol(self):
        one = lambda th: np.ones_like(th)
        assert abs(fourier_coeff_numeric(one, 0) - 1.0) < 1e-12
        assert abs(fourier_coeff_numeric(one, 4)) < 1e-12

    def test_oracle_v1_coefficient(self):
        assert abs(numeric(vsym(1.0), 1) + 1.0) < 1e-11

    def test_oracle_unreachable_tolerance(self):
        with pytest.raises(AssertionError, match="above tolerance"):
            numeric(vsym(-0.45), 3, tol=1e-16)

    def test_evenness(self):
        for k in (1, 4, 9):
            assert abs(fourier_coeff_v(0.3 + 0.2j, k) - fourier_coeff_v(0.3 + 0.2j, -k)) < 1e-13


class TestCoefficientsU:
    def test_beta_zero(self):
        assert fourier_coeff_u(0.0, 0) == 1.0
        assert fourier_coeff_u(0.0, 2) == 0.0

    def test_half(self):
        assert abs(fourier_coeff_u(0.5, 0) - 2.0 / np.pi) < 1e-14

    def test_integer_beta_monomial(self):
        # u_{beta+n} = (-t)^n u_beta: integer beta gives one signed monomial
        assert abs(fourier_coeff_u(2.0, 2) - 1.0) < 1e-14
        assert abs(fourier_coeff_u(3.0, 3) + 1.0) < 1e-14
        assert fourier_coeff_u(2.0, 1) == 0.0

    @pytest.mark.parametrize("beta", [0.3, -0.7 + 0.1j, 1.3])
    def test_against_quadrature(self, beta):
        for k in (-16, -4, 0, 1, 7, 16):
            want = numeric(usym(beta), k)
            assert abs(fourier_coeff_u(beta, k) - want) < 1e-10

    def test_specific_value(self):
        want = np.sin(0.3 * np.pi) / (np.pi * (0.3 + 4))
        assert abs(fourier_coeff_u(0.3, -4) - want) < 1e-15


class TestRegularizedCoefficients:
    def test_r_zero_is_delta(self):
        s = CircleSymbol(CircleKind.UBETA_R, beta=0.4, r=0.0)
        assert coeff(s, 0) == 1.0
        assert coeff(s, 3) == 0.0

    def test_degree_one_product(self):
        # (1-0.5/t)(1-0.5t): coefficient of t is -0.5
        s = CircleSymbol(CircleKind.VBETA_R, beta=1.0, r=0.5)
        assert abs(coeff(s, 1) + 0.5) < 1e-14

    def test_limit_matches_pure_jump_symbol(self):
        # coefficient -> (u_beta)_k linearly in 1 - r; at 1-r = 1e-6 the
        # measured gap is ~3e-6 (constant depends on beta), so assert the
        # decay together with a 5e-6 cap at the tightest r
        gaps = []
        for delta in (1e-2, 1e-4, 1e-6):
            s = CircleSymbol(CircleKind.UBETA_R, beta=0.35, r=1 - delta)
            table = reg_coeff_table(s, 3)
            gaps.append(max(abs(table[3 + k] - fourier_coeff_u(0.35, k))
                            for k in (0, 1, 3)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 5e-6

    def test_sample_count_capped(self):
        # M ~ 41/(1-r) = 4.1e8 samples here, 6.6 GB per complex array
        s = CircleSymbol(CircleKind.UBETA_R, beta=0.35, r=1 - 1e-7)
        with pytest.raises(DomainError, match="samples"):
            reg_coeff_table(s, 3)

    def test_against_quadrature(self):
        s = CircleSymbol(CircleKind.UBETA_R, beta=0.3 + 0.1j, r=0.7)
        for k in (-3, 0, 2):
            want = numeric(s, k)
            assert abs(coeff(s, k) - want) < 1e-10

    def test_table_consistency(self):
        s = CircleSymbol(CircleKind.VBETA_R, beta=-0.25, r=0.6)
        table = reg_coeff_table(s, 5)
        for k in range(-5, 6):
            assert abs(table[k + 5] - coeff(s, k)) < 1e-15


def cauchy_table(kind, beta, r, kmax):
    """Test-side oracle: coefficients -kmax..kmax of (1 - r/t)^{+-b} (1 - r t)^b
    as the Cauchy product of the two binomial series in r t and r/t."""
    nt = kmax + 64 + int(np.ceil((40.0 + 4 * abs(beta)) / -np.log(r)))

    def scaled_binom(b):  # binom(b, j) (-r)^j, j = 0 .. nt-1
        j = np.arange(nt - 1)
        return np.concatenate([[1.0], np.cumprod((j - b) / (j + 1) * r)])

    up = scaled_binom(complex(beta))
    dn = scaled_binom(-complex(beta) if kind is CircleKind.UBETA_R else complex(beta))
    full = np.convolve(up, dn[::-1])  # index m holds t^(m - nt + 1)
    return full[nt - 1 - kmax:nt + kmax]


class TestRegularizedTableOracles:
    @pytest.mark.parametrize("kind", [CircleKind.UBETA_R, CircleKind.VBETA_R])
    @pytest.mark.parametrize("beta", [0.3, -0.4, 0.3 + 0.2j])
    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
    def test_against_cauchy_product(self, kind, beta, r):
        kmax = 300
        table = reg_coeff_table(CircleSymbol(kind, beta=beta, r=r), kmax)
        assert table.shape == (2 * kmax + 1,)
        assert np.max(np.abs(table - cauchy_table(kind, beta, r, kmax))) <= 1e-14

    def test_exact_beta_one_jump_table(self):
        # (1 - r t)/(1 - r/t): c_1 = -r, c_k = 0 for k >= 2, c_{-l} = r^l (1 - r^2);
        # r and kmax are criterion 4's largest (eps = 1e-3)
        r, kmax = (1 - 1e-3) / (1 + 1e-3), 14020
        table = reg_coeff_table(CircleSymbol(CircleKind.UBETA_R, beta=1.0, r=r), kmax)
        want = np.zeros(2 * kmax + 1)
        want[:kmax + 1] = r ** np.arange(kmax, -1, -1) * (1 - r * r)
        want[kmax + 1] = -r
        assert np.max(np.abs(table - want)) <= 1e-15


# ---------------------------------------------------------------------------
# line kernels
# ---------------------------------------------------------------------------

def ft_kernel_vhat_eps(beta, eps, x):
    """Direct oscillatory FT of the even symbol: (1/pi) int_0^inf
    (s(xi)-1) cos(xi x) d xi with an analytic 1/xi^2 tail correction."""
    f = lambda xi: ((xi * xi + eps * eps) / (xi * xi + 1.0)) ** beta - 1.0
    M = 600.0
    total = 0.0
    pieces = np.concatenate([[0.0], np.geomspace(0.5, M, 40)])
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        v, _ = quad(f, lo, hi, weight="cos", wvar=x, limit=400,
                    epsabs=1e-13, epsrel=1e-12)
        total += v
    # int_M^inf cos(xi x)/xi^2 d xi = cos(M x)/M - |x| (pi/2 - Si(M |x|))
    ax = abs(x)
    si, _ = sici(M * ax)
    total += beta * (eps * eps - 1.0) * (np.cos(M * ax) / M - ax * (np.pi / 2 - si))
    return total / np.pi


def ft_kernel_phi(beta, x):
    f = lambda xi: -np.sin(np.pi * beta) / np.cosh(np.pi * xi)
    v, _ = quad(f, 0.0, 40.0, weight="cos", wvar=x, limit=400,
                epsabs=1e-13, epsrel=1e-12)
    return v / np.pi


def ft_kernel_uhat_eps(beta, eps, x):
    """Oscillatory FT of the jump symbol for real beta.

    conj(s(xi)) = s(-xi) makes the kernel real:
    k(x) = (1/pi) int_0^inf [Re(s-1) cos(xi x) + Im(s) sin(xi x)] d xi,
    with the 1/xi tail (s - 1 ~ 2 i beta (eps-1)/xi) integrated in
    closed form through the sine integral.
    """
    def sym(xi):
        return ((xi - 1j * eps) / (xi - 1j)) ** (-beta) * ((xi + 1j * eps) / (xi + 1j)) ** beta

    M = 2000.0
    total = 0.0
    pieces = np.concatenate([[0.0], np.geomspace(0.5, M, 30)])
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        fr = lambda xi: np.real(sym(xi) - 1.0)
        fi = lambda xi: np.imag(sym(xi))
        vc, _ = quad(fr, lo, hi, weight="cos", wvar=x, limit=300)
        vs, _ = quad(fi, lo, hi, weight="sin", wvar=x, limit=300)
        total += vc + vs
    si, _ = sici(M * abs(x))
    total += 2.0 * beta * (eps - 1.0) * np.sign(x) * (np.pi / 2 - si)
    # next order: Re(s-1) ~ -2 beta^2 (eps-1)^2 / xi^2
    total += -2.0 * beta**2 * (eps - 1.0) ** 2 * (
        np.cos(M * x) / M - abs(x) * (np.pi / 2 - si)
    )
    return total / np.pi


def mp_kernel(s, x):
    """k(x) = (1/pi) int_0^inf [Re(s - 1) cos(xi x) + Im(s) sin(xi x)] d xi
    at 20 digits by mpmath's oscillatory quadrature (real beta)."""
    j = mp.mpc(0, 1)
    b, eps = mp.mpf(complex(s.beta).real), mp.mpf(s.eps)

    def sym(xi):
        if s.kind is LineKind.VHAT_EPS:
            return ((xi * xi + eps * eps) / (xi * xi + 1)) ** b
        return ((xi - j * eps) / (xi - j)) ** (-b) * ((xi + j * eps) / (xi + j)) ** b

    def f(xi):
        v = sym(xi)
        return mp.re(v - 1) * mp.cos(xi * x) + mp.im(v) * mp.sin(xi * x)

    with mp.workdps(20):
        return float(mp.quadosc(f, [0, mp.inf], omega=abs(x)) / mp.pi)


class TestKernelLine:
    def test_beta_zero(self):
        s = LineSymbol(LineKind.VHAT_EPS, beta=0.0, eps=0.5)
        assert cut_kernel(s)(1.3) == 0.0

    def test_phi_closed_form_vs_ft(self):
        # the fitted sum every sech route uses, against the transform of the symbol
        got = sech_kernel(0.3)(1.0)
        want = ft_kernel_phi(0.3, 1.0)
        assert abs(got - want) < 1e-9

    def test_vhat_eps_vs_ft(self):
        s = LineSymbol(LineKind.VHAT_EPS, beta=0.3, eps=0.1)
        for x in (0.5, 2.0, 10.0):
            assert abs(cut_kernel(s)(x) - ft_kernel_vhat_eps(0.3, 0.1, x)) < 1e-7

    def test_vhat_eps_small_eps_vs_ft(self):
        s = LineSymbol(LineKind.VHAT_EPS, beta=-0.3, eps=1e-4)
        for x in (0.5, 10.0):
            assert abs(cut_kernel(s)(x) - ft_kernel_vhat_eps(-0.3, 1e-4, x)) < 1e-8

    def test_uhat_eps_vs_ft(self):
        s = LineSymbol(LineKind.UHAT_EPS, beta=0.3, eps=0.01)
        for x in (0.5, -0.5, 2.0):
            got = cut_kernel(s)(x)
            want = ft_kernel_uhat_eps(0.3, 0.01, x)
            assert abs(got - want) < 1e-6, (x, got, want)

    @pytest.mark.parametrize("b", [0.6, -0.6, 0.8, -0.8, 0.9, -0.9, 0.95])
    def test_edge_of_strip_vs_ft(self, b):
        # the end singularities (eta - eps)^b, (1 - eta)^{-b} of the cut weight
        # take Gauss-Jacobi end panels; with Gauss-Legendre panels alone the
        # kernel was off by 1.2e-2 at b = 0.8 and 1.1e-1 at b = 0.9
        vhat = LineSymbol(LineKind.VHAT_EPS, beta=b, eps=0.1)
        for x in (0.5, 2.0):
            assert abs(cut_kernel(vhat)(x) - ft_kernel_vhat_eps(b, 0.1, x)) < 1e-7
        uhat = LineSymbol(LineKind.UHAT_EPS, beta=b, eps=0.1)
        for x in (0.5, -0.5, 2.0):
            assert abs(cut_kernel(uhat)(x) - ft_kernel_uhat_eps(b, 0.1, x)) < 1e-7

    @pytest.mark.parametrize("b", [0.6, 0.8])
    def test_vhat_eps_oracle_is_even(self, b):
        # the 1/xi^2 tail of the oracle needs |x|: with x it was 0.30 off at
        # b = 0.6, x = -0.5 (0.40 at b = 0.8)
        s = LineSymbol(LineKind.VHAT_EPS, beta=b, eps=0.1)
        for x in (0.5, -0.5):
            assert abs(ft_kernel_vhat_eps(b, 0.1, x) - cut_kernel(s)(0.5)) < 1e-7

    @pytest.mark.parametrize("kind, b, x", [(LineKind.VHAT_EPS, 0.95, 0.5),
                                            (LineKind.UHAT_EPS, -0.9, -0.5),
                                            (LineKind.UHAT_EPS, 0.95, 2.0)])
    def test_edge_of_strip_vs_mp_quad(self, kind, b, x):
        # the scipy oracles above resolve to about 1e-11; mpmath to 1e-15
        s = LineSymbol(kind, beta=b, eps=0.1)
        assert abs(cut_kernel(s)(x) - mp_kernel(s, x)) < 1e-13

    @pytest.mark.parametrize("b", [0.3, -0.3, 0.9, -0.9, 0.9 + 0.3j, -0.9 + 0.3j])
    def test_small_eps_vs_mp_cut_integral(self, b):
        # k(x) = -(sin pi b)/pi int_eps^1 ((eta^2-eps^2)/(1-eta^2))^b e^{-eta x}
        # by tanh-sinh at 30 digits, in the distance d to the nearer end (eta
        # itself would round d = 1 - eta) with d = s^p, p = 1/(1 - |Re b|) at
        # the singular end, which leaves a smooth modulus.  Before the end
        # stubs were integrated exactly the kernel was 7e-8 off at b = 0.3,
        # x = 0.5, and 0.3 off at b = 0.9 + 0.3i, where Gauss-Jacobi weights
        # times the phase d^{0.3i} at the nodes still missed the phase.
        eps = 1e-4
        s = LineSymbol(LineKind.VHAT_EPS, beta=b, eps=eps)
        with mp.workdps(30):
            B, E = mp.mpc(b), mp.mpf(eps)
            half = (1 - E) / 2

            def weight(lo, hi, eta, x):  # lo = eta - eps, hi = 1 - eta
                return (lo * (eta + E)) ** B / (hi * (1 + eta)) ** B * mp.exp(-eta * x)

            def end(g, p):  # int_0^half g(d) dd with d = s^p
                return mp.quad(lambda t: g(t**p) * p * t ** (p - 1),
                               [0, mp.mpf("1e-3") ** (1 / p), half ** (1 / p)])

            for x in (0.5, 5.0):
                total = (end(lambda d: weight(d, 1 - E - d, E + d, x), 1 / (1 + min(B.real, 0)))
                         + end(lambda d: weight(1 - E - d, d, 1 - d, x), 1 / (1 - max(B.real, 0))))
                want = complex(-mp.sin(mp.pi * B) / mp.pi * total)
                assert abs(cut_kernel(s)(x) - want) <= 1e-13 * abs(want)

    def test_kernel_evenness(self):
        for k in (cut_kernel(LineSymbol(LineKind.VHAT_EPS, beta=0.3, eps=0.05)),
                  sech_kernel(0.3)):
            xs = np.array([0.3, 1.7, 6.0])
            assert np.max(np.abs(k(xs) - k(-xs))) < 1e-13

    def test_pure_symbols_rejected(self):
        with pytest.raises(DomainError):
            cut_kernel(LineSymbol(LineKind.VHAT, beta=0.3))

    @pytest.mark.parametrize("kind", [LineKind.VHAT_EPS, LineKind.UHAT_EPS])
    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5])
    def test_eps_outside_open_unit_interval_rejected(self, kind, eps):
        # at eps = 1 both symbols are identically 1 and the cut kernel a NaN sum
        with pytest.raises(DomainError, match="eps"):
            LineSymbol(kind, beta=0.3, eps=eps)

    def test_real_beta_gives_real_values(self):
        # beta = 0 included: every real beta gives one dtype, float64
        xs = np.array([-0.5, 0.5, 2.0])
        for b in (0.0, 0.3, -0.4):
            for k in (cut_kernel(LineSymbol(LineKind.VHAT_EPS, beta=b, eps=0.1)),
                      cut_kernel(LineSymbol(LineKind.UHAT_EPS, beta=b, eps=0.1)),
                      sech_kernel(b)):
                assert k(xs).dtype == np.float64, (k, b)
        s = LineSymbol(LineKind.VHAT_EPS, beta=0.3 + 0.1j, eps=0.1)
        assert cut_kernel(s)(xs).dtype == np.complex128

    def test_real_weights_match_complex_weights(self):
        for s in (LineSymbol(LineKind.VHAT_EPS, beta=0.3, eps=1e-3),
                  LineSymbol(LineKind.UHAT_EPS, beta=-0.45, eps=0.05)):
            real = cut_kernel(s)
            cplx = cut_kernel(LineSymbol(s.kind, beta=complex(s.beta, 1e-200), eps=s.eps))
            assert real.w_pos.dtype == real.w_neg.dtype == np.float64
            for w, wc in ((real.w_pos, cplx.w_pos), (real.w_neg, cplx.w_neg)):
                assert np.max(np.abs(w - wc) / np.abs(wc)) < 1e-14

    def test_line_symbol_evenness(self):
        xs = np.linspace(0.1, 5.0, 7)
        for s in (LineSymbol(LineKind.VHAT_EPS, beta=0.3 + 0.1j, eps=0.2),
                  LineSymbol(LineKind.PHI, beta=0.3),
                  LineSymbol(LineKind.VHAT, beta=0.4)):
            assert np.max(np.abs(eval_line(s, xs) - eval_line(s, -xs))) < 1e-13


class TestWienerHopfFactorIdentity:
    def test_phi_factorization(self):
        # phi_b(x) = psi_b(-ix/2) psi_b(ix/2) with
        # psi_b(z) = Gamma(3/4+z)Gamma(1/4+z) / (Gamma(3/4+b/2+z)Gamma(1/4-b/2+z))
        def psi(b, z):
            ln = (loggamma(0.75 + z) + loggamma(0.25 + z)
                  - loggamma(0.75 + b / 2 + z) - loggamma(0.25 - b / 2 + z))
            return np.exp(ln)

        for b in (0.3, -0.4, 0.2 + 0.1j):
            s = LineSymbol(LineKind.PHI, beta=b)
            for x in (0.0, 0.7, 2.5, -1.3):
                lhs = eval_line(s, x)
                rhs = psi(b, -1j * x / 2) * psi(b, 1j * x / 2)
                assert abs(lhs - rhs) < 1e-12, (b, x)
