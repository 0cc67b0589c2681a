"""Toeplitz/Hankel matrices, log-determinants, and the exact Barnes-G
closed forms for the determinant family."""

import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.special import loggamma

from whdet import (
    ConvergenceWarning,
    DomainError,
    LogDet,
    SingularMatrix,
    d_n,
    d_n_exact,
    d_n_minors,
    det_tn_exact,
    fourier_coeff_u,
    fourier_coeff_v,
    fredholm_det_hankel_reg,
    hankel,
    hankel_section_inverse_det,
    ln_det_hankel_reg_exact,
    logdet,
    rel_exp_diff,
    toeplitz,
)
from whdet import structured
from whdet.logdet import _MAX_DENSE_BYTES, check_dense
from whdet.params import is_near_nonpositive_integer

from _barnes_oracle import mp_d_n
from _dense_oracle import dense_d_n, dense_hankel, reg_coeffs


def cofactor_det(a):
    """Naive Laplace expansion, the independent oracle for logdet."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


class TestMatrixBuilders:
    def test_toeplitz_identity(self):
        c = lambda k: (k == 0) * 1.0
        assert np.array_equal(toeplitz(c, 3), np.eye(3))

    def test_toeplitz_v1(self):
        m = toeplitz(lambda k: fourier_coeff_v(1.0, k), 2)
        assert np.allclose(m, [[2, -1], [-1, 2]], atol=1e-14)

    def test_toeplitz_symmetric_for_even_symbol(self):
        m = toeplitz(lambda k: fourier_coeff_v(0.3, k), 4)
        assert np.max(np.abs(m - m.T)) < 1e-15

    def test_hankel_constant_zero(self):
        assert np.array_equal(hankel(lambda k: (k == 0) * 1.0, 3),
                              np.zeros((3, 3)))

    def test_hankel_v1(self):
        m = hankel(lambda k: fourier_coeff_v(1.0, k), 2)
        assert np.allclose(m, [[-1, 0], [0, 0]], atol=1e-14)

    def test_hankel_index_symmetry(self):
        m = hankel(lambda k: fourier_coeff_v(0.35, k), 5)
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("beta, itemsize", [(0.3, 8), (0.3 + 0.1j, 16)])
    @pytest.mark.parametrize("builder", ["toeplitz", "hankel"])
    def test_over_cap_raises_before_assembly(self, builder, beta, itemsize, monkeypatch):
        # the smallest order whose one n x n matrix passes the cap; the
        # coefficients are O(n)
        n = math.isqrt(_MAX_DENSE_BYTES // itemsize) + 1
        check_dense(builder, n - 1, itemsize, 1)

        def unreachable(*args, **kwargs):
            raise AssertionError("an allocation over the dense cap was reached")

        monkeypatch.setattr(structured, "as_strided", unreachable)
        with pytest.raises(DomainError, match=f"{builder} of order {n} "):
            getattr(structured, builder)(lambda k: fourier_coeff_v(beta, k), n)

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("imag", [0.0, 0.5])
    def test_views_match_scipy_bit_for_bit(self, n, imag):
        def coeffs(k):  # a different value at every index
            return np.cos(0.7 * k) + 0.1 * k + imag * 1j * np.sin(k)

        c = coeffs(np.arange(-(n - 1), n))
        want = scipy.linalg.toeplitz(c[n - 1:], c[n - 1::-1])
        got = toeplitz(coeffs, n)
        assert got.dtype == want.dtype and got.shape == (n, n)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        c = coeffs(np.arange(1, 2 * n))
        want = scipy.linalg.hankel(c[:n], c[n - 1:])
        got = hankel(coeffs, n)
        assert got.dtype == want.dtype and got.shape == (n, n)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("builder", [toeplitz, hankel])
    def test_views_are_read_only(self, builder):
        m = builder(lambda k: fourier_coeff_v(0.3, k), 4)
        with pytest.raises(ValueError):
            m[1, 2] = 0.0
        with pytest.raises(ValueError):
            m += 1.0

    @pytest.mark.parametrize("builder", [toeplitz, hankel])
    def test_no_square_array(self, builder):
        n = 2000
        tracemalloc.start()
        try:
            m = builder(lambda k: fourier_coeff_v(0.3, k), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.shape == (n, n)
        assert peak < 1024 * n  # one n x n float64 array takes 8n bytes per order


#: the module, which ``whdet.logdet`` (the function) hides
LOGDET = importlib.import_module("whdet.logdet")


def _unreachable(*args, **kwargs):
    raise AssertionError("an allocation over the dense cap was reached")


def mp_logdet(a) -> LogDet:
    """log det a of the double matrix a, at 40 digits."""
    with mp.workdps(40):
        return LogDet.from_log(complex(mp.log(mp.det(mp.matrix(a.tolist())))))


def _orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _symmetric(q, eigs):
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T)  # exactly symmetric


def _hermitian_pd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = np.eye(n) + 0.1 * (g @ g.conj().T) / n
    return 0.5 * (a + a.conj().T)  # exactly Hermitian, real diagonal


def _complex_symmetric(rng, n):
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.eye(n) + 0.05 * (s + s.T)


#: order of the dispatch matrices
DISPATCH_ORDER = 32
#: case -> (matrix from (rng, n), factorizations tried, bound on rel_exp_diff
#: against 40 digits): the route each matrix takes through logdet, with 4e-15
#: (about 20 ulps) where the condition number is O(1) and 1e-11 at 1e4
DISPATCH = {
    "spd_near_identity": (
        lambda rng, n: _symmetric(_orthogonal(rng, n), np.linspace(1.0, 1.5, n)),
        [("cholesky", True)], 4e-15),
    "spd_ill_conditioned": (
        lambda rng, n: _symmetric(_orthogonal(rng, n), np.geomspace(1.0, 1e-4, n)),
        [("cholesky", False), ("lu", True)], 1e-11),
    "symmetric_indefinite": (
        lambda rng, n: _symmetric(_orthogonal(rng, n), np.linspace(1.0, 2.0, n) * (-1) ** np.arange(n)),
        [("cholesky", False), ("lu", True)], 4e-15),
    "hermitian_pd": (_hermitian_pd, [("cholesky", True)], 4e-15),
    "complex_symmetric": (_complex_symmetric, [("lu", True)], 4e-15),
    "nonsymmetric": (
        lambda rng, n: np.eye(n) + 0.1 * rng.standard_normal((n, n)) / math.sqrt(n),
        [("lu", True)], 4e-15),
}


def _layouts(a):
    """a in C order, in F order, transposed (det a^T = det a) and as a
    read-only view with strides in both axes."""
    big = np.zeros((2 * len(a), 2 * len(a)), dtype=a.dtype)
    strided = big[::2, 1::2]
    strided[:] = a
    strided.flags.writeable = False
    return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a),
            "transposed": np.ascontiguousarray(a).T, "strided": strided}


def _record_route(monkeypatch):
    """Record each factorization logdet tries: ("cholesky", accepted) or
    ("lu", True), with whether LAPACK was handed a column-major array."""
    seen = []
    cholesky, lu = LOGDET._cholesky_pivots, LOGDET.lu_factor

    def cholesky_spy(a):
        pivots = cholesky(a)
        seen.append((("cholesky", pivots is not None), a.flags.f_contiguous))
        return pivots

    def lu_spy(a, **kwargs):
        seen.append((("lu", True), a.flags.f_contiguous))
        return lu(a, **kwargs)

    monkeypatch.setattr(LOGDET, "_cholesky_pivots", cholesky_spy)
    monkeypatch.setattr(LOGDET, "lu_factor", lu_spy)
    return seen


class TestLogDet:
    def test_identity(self):
        ld = logdet(np.eye(5))
        assert ld.ln_abs == 0.0 and ld.arg == 0.0

    def test_diag_complex(self):
        ld = logdet(np.diag([2.0, 1j]))
        assert abs(ld.ln_abs - math.log(2)) < 1e-15
        assert abs(math.remainder(ld.arg - math.pi / 2, 2 * math.pi)) < 1e-15

    def test_random_vs_cofactor(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            want = cofactor_det(a)
            got = logdet(a)
            assert abs(np.exp(got.log) / want - 1.0) < 1e-12

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            logdet(np.zeros((3, 3)))

    @pytest.mark.parametrize("beta", [0.3, 0.3 + 0.1j])
    def test_lu_copy_counts_against_the_cap(self, beta, monkeypatch):
        # a cap between one and two matrices of order n: the builder's one
        # copy passes it, and the LU's copy of that matrix does not
        n = 64
        itemsize = np.result_type(beta).itemsize
        monkeypatch.setattr(LOGDET, "_MAX_DENSE_BYTES", 3 * n * n * itemsize // 2)
        matrix = structured.toeplitz(lambda k: fourier_coeff_v(beta, k), n)
        monkeypatch.setattr(LOGDET, "lu_factor", _unreachable)
        with pytest.raises(DomainError, match=f"logdet of order {n} "):
            logdet(matrix)

    @pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2, 2), ()])
    def test_not_square(self, shape):
        with pytest.raises(DomainError, match="square"):
            logdet(np.ones(shape))

    @pytest.mark.parametrize("case", sorted(DISPATCH))
    def test_dispatch(self, case, monkeypatch):
        build, route, tol = DISPATCH[case]
        a = build(np.random.default_rng(5), DISPATCH_ORDER)
        want = mp_logdet(a)
        for layout, m in _layouts(a).items():
            kept = m.copy()
            seen = _record_route(monkeypatch)
            got = logdet(m)
            # LU adds pi per row swap and negative pivot to the argument:
            # a multiple of pi rounded to an ulp of its size
            bound = tol + 2 * math.ulp(abs(got.arg))
            assert rel_exp_diff(got, want) <= bound, (layout, rel_exp_diff(got, want))
            assert [step for step, _ in seen] == route, layout
            # LAPACK reads a contiguous input in place of gathering it
            assert all(f_order == (layout != "strided") for _, f_order in seen), layout
            assert m.tobytes() == kept.tobytes(), layout

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("m", [np.ones((4, 4)), np.zeros((3, 3)),
                                   np.diag([2.0, 0.0, 1.0]) + 0j])
    def test_singular_psd(self, m):
        # potrf fails, and LU meets an exactly zero pivot
        kept = m.copy()
        with pytest.raises(SingularMatrix):
            logdet(m)
        assert m.tobytes() == kept.tobytes()

    def test_cholesky_no_less_accurate_than_lu(self):
        # Hankel sections I +- H of u_{b,r}: on those the Cholesky route
        # accepts, its error against 40 digits is no larger than LU's, at
        # the median and at the maximum
        err_cholesky, err_lu = [], []
        for b in (-0.7, -0.3, 0.2, 0.45, 0.8, 1.3, 2.1):
            for r in (0.5, 0.8, 0.95, 0.99):
                for sign in (+1, -1):
                    for start, stop in ((0, 8), (1, 16), (3, 24)):
                        a = dense_hankel(sign * reg_coeffs(b, r, 2 * stop), start, stop)
                        if LOGDET._cholesky_pivots(a) is None:
                            continue
                        want = mp_logdet(a)
                        lu, piv = scipy.linalg.lu_factor(a)
                        by_lu = LOGDET.pivot_logdet(np.diag(lu), int(np.sum(piv != np.arange(len(a)))))
                        err_cholesky.append(rel_exp_diff(logdet(a), want))
                        err_lu.append(rel_exp_diff(by_lu, want))
        assert len(err_cholesky) >= 100
        assert np.median(err_cholesky) <= np.median(err_lu)
        assert max(err_cholesky) <= max(err_lu)

    def test_logdet_addition(self):
        a = LogDet(1.0, 0.5)
        b = LogDet(-2.0, 0.25)
        assert (a + b).ln_abs == -1.0 and (a - b).arg == 0.25


BETA_GRID = [0.1, -0.1, 0.25, -0.25, 0.4, -0.4, 0.2 + 0.3j, -0.3 + 0.2j]


class TestDnRoutes:
    def test_n1_is_coefficient_sum(self):
        b = 0.3 + 0.1j
        for sign in (+1, -1):
            want = fourier_coeff_v(b, 0) + sign * fourier_coeff_v(b, 1)
            got = d_n(b, 1, sign)
            assert abs(np.exp(got.log) - want) < 1e-13

    def test_beta_zero(self):
        for sign in (+1, -1):
            ld = d_n(0.0, 6, sign)
            assert abs(ld.ln_abs) < 1e-12

    def test_matrix_vs_exact_spotcheck(self):
        got = d_n(0.25, 16, +1)
        want = d_n_exact(0.25, 16, +1)
        assert rel_exp_diff(got, want) < 1e-9

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_matrix_vs_exact_grid(self, beta):
        for n in (2, 7, 12):
            for sign in (+1, -1):
                assert rel_exp_diff(d_n(beta, n, sign), d_n_exact(beta, n, sign)) < 1e-9

    def test_real_beta_gives_real_determinant(self):
        for beta in (0.3, -0.35):
            for n in (3, 9):
                for sign in (+1, -1):
                    ld = d_n(beta, n, sign)
                    assert abs(math.remainder(ld.arg, math.pi)) < 1e-10

    def test_matrix_route_domain(self):
        with pytest.raises(DomainError):
            d_n(-0.6, 4, +1)

    def test_exact_route_beta_zero(self):
        for sign in (+1, -1):
            assert abs(d_n_exact(0.0, 5, sign).ln_abs) < 1e-12

    def test_exact_route_beyond_matrix_domain(self):
        # minus-sign closed form continues analytically past Re beta = -1/2
        ld = d_n_exact(-0.7, 4, -1)
        assert np.isfinite(ld.ln_abs) and np.isfinite(ld.arg)

    def test_continuation_scan(self):
        # matrix route matches the continued form on a grid approaching the
        # boundary, and the continued form stays continuous across it
        for b in (-0.3, -0.4, -0.45):
            assert rel_exp_diff(d_n(b, 4, -1), d_n_exact(b, 4, -1)) < 1e-9
        grid = np.linspace(-0.72, -0.3, 22)
        vals = np.array([np.exp(d_n_exact(b, 4, -1).log) for b in grid])
        steps = np.abs(np.diff(vals))
        assert np.all(steps < 0.1)  # no jumps along the continuation path

    def test_exact_route_excluded_points(self):
        with pytest.raises(DomainError):
            d_n_exact(-0.5, 3, +1)
        with pytest.raises(DomainError):
            d_n_exact(-1.5, 3, -1)


class TestDetTnExact:
    def test_n1_gamma_ratio(self):
        from scipy.special import loggamma
        b = 0.3 + 0.2j
        want = np.exp(loggamma(1 + 2 * b) - 2 * loggamma(1 + b))
        got = det_tn_exact(b, 1)
        assert abs(np.exp(got.log) - want) < 1e-13

    def test_beta_one_n2(self):
        got = det_tn_exact(1.0, 2)
        assert abs(np.exp(got.log) - 3.0) < 1e-12

    def test_vs_matrix(self):
        b = 0.3
        m = toeplitz(lambda k: fourier_coeff_v(b, k), 12)
        assert rel_exp_diff(logdet(m), det_tn_exact(b, 12)) < 1e-10

    @pytest.mark.parametrize("beta", [0.2, -0.35, 0.25 + 0.3j])
    def test_block_identity(self, beta):
        # det T_2n(v) = D_n^+ D_n^-
        for n in (2, 5, 9):
            t2n = logdet(toeplitz(lambda k: fourier_coeff_v(beta, k), 2 * n))
            assert rel_exp_diff(t2n, d_n(beta, n, +1) + d_n(beta, n, -1)) < 1e-9


def scalar_v_coeff(b: complex, k: int) -> complex:
    """The closed form of fourier_coeff_v evaluated one k at a time, every
    Gamma at an argument of positive real part: where 1+b-|k| is not, through
    1/Gamma(1+b-m) = Gamma(m-b) (-1)^{m+1} sin(pi b)/pi."""
    m = abs(k)
    for arg in (1 + b + m, 1 + b - m):
        if is_near_nonpositive_integer(arg):
            return 0.0
    ln = loggamma(1 + 2 * b) - loggamma(1 + b + m)
    if (1 + b - m).real > 0:
        return (-1) ** (m % 2) * complex(np.exp(ln - loggamma(1 + b - m)))
    return -np.sin(np.pi * b) / np.pi * complex(np.exp(ln + loggamma(m - b)))


def mp_v_coeff(b: complex, k: int) -> complex:
    """(-1)^k Gamma(1+2b) / (Gamma(1+b+k) Gamma(1+b-k)) at 40 digits."""
    with mp.workdps(40):
        b = mp.mpc(b)
        return complex((-1) ** (k % 2) * mp.gamma(1 + 2 * b)
                       * mp.rgamma(1 + b + k) * mp.rgamma(1 + b - k))


class TestCoefficientArrays:
    @pytest.mark.parametrize("beta", [0.3, -0.42, 2.7, 0.2 + 0.15j, -0.3 - 0.4j,
                                      0.0, 1.0, 3.0, 2.0 + 1e-13])
    def test_v_array_matches_scalar(self, beta):
        n = 40
        ks = range(-(2 * n - 1), 2 * n)
        got = fourier_coeff_v(complex(beta), np.arange(-(2 * n - 1), 2 * n))
        assert got.dtype == (np.float64 if complex(beta).imag == 0 else np.complex128)
        for want in ([fourier_coeff_v(beta, k) for k in ks],
                     [scalar_v_coeff(complex(beta), k) for k in ks]):
            want = np.array(want)
            if complex(beta).imag == 0:
                # a real beta: the complex form's Im c_k is rounding from the
                # Gamma reflection (up to 3e-14 relative at |k| ~ 80), dropped
                want = want.real
            zero = want == 0
            assert np.array_equal(got[zero], want[zero])
            assert np.max(np.abs(got[~zero] - want[~zero]) / np.abs(want[~zero])) <= 1e-15

    @pytest.mark.parametrize("beta", [0.3, -0.42, -0.4999998212, 2.7, 0.2 + 0.15j, -0.3 - 0.4j])
    def test_v_array_against_mpmath(self, beta):
        # log-Gamma differences near |k| ln|k| ~ 350 leave ~1e-13 relative
        # (the form through complex loggamma at 1+b-k < 0 measured 1.5e-13)
        ks = np.arange(-79, 80)
        got = fourier_coeff_v(complex(beta), ks)
        want = np.array([mp_v_coeff(complex(beta), int(k)) for k in ks])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-13

    @pytest.mark.parametrize("beta", [0.3, -0.42, -0.4999998212, 2.7])
    def test_v_array_real_beta_is_complex_beta_real_part(self, beta):
        ks = np.arange(-200, 201)
        real, cplx = fourier_coeff_v(beta, ks), fourier_coeff_v(complex(beta, 1e-200), ks)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.max(np.abs(real - cplx) / np.abs(real)) <= 1e-15

    def test_d_n_sign_exact_near_matrix_edge(self):
        # the reflection keeps sin(pi m) rounding out of the coefficients'
        # phase; through complex loggamma at 1+b-k < 0 this arg was -1.9e-9
        assert abs(d_n(-0.4999998212 + 1e-200j, 6, +1).arg) < 1e-12

    def test_v_array_integer_beta_is_finite_difference(self):
        # (2 - 2 cos theta)^2 = 6 - 4(t + 1/t) + (t^2 + 1/t^2)
        got = fourier_coeff_v(2.0, np.arange(-5, 6))
        want = np.array([0, 0, 0, 1, -4, 6, -4, 1, 0, 0, 0])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("beta", [0.3, -0.45, 1.3, 0.2 + 0.1j, 0.0, 1.0, -2.0])
    def test_u_array_matches_scalar(self, beta):
        ks = np.arange(1, 64)
        got = fourier_coeff_u(complex(beta), ks)
        assert got.dtype == (np.float64 if complex(beta).imag == 0 else np.complex128)
        want = np.array([fourier_coeff_u(beta, int(k)) for k in ks])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want), initial=1.0)
        b = complex(beta)
        if b.real != round(b.real) or b.imag:
            oracle = np.sin(np.pi * b) / (np.pi * (b - ks))
            assert np.max(np.abs(got - oracle) / np.abs(oracle)) <= 1e-15
        else:  # the monomial (-1)^b t^b
            m = round(b.real)
            assert np.array_equal(got, np.where(ks == m, (-1.0) ** (m % 2), 0.0))


class TestHankelSectionInverse:
    def test_beta_zero(self):
        res = hankel_section_inverse_det(0.0, 3, +1, N=64)
        assert abs(res.value.ln_abs) < 1e-12

    def test_plus_pairing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            res = hankel_section_inverse_det(0.25, 4, +1)
        assert rel_exp_diff(res.value, d_n(0.25, 4, +1)) < 1e-3

    def test_minus_pairing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            res = hankel_section_inverse_det(-0.25, 4, -1)
        assert rel_exp_diff(res.value, d_n(-0.25, 4, -1)) < 1e-3

    def test_refinement_monotone(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            r1 = hankel_section_inverse_det(0.25, 4, +1, N=128)
            r2 = hankel_section_inverse_det(0.25, 4, +1, N=256)
        assert r2.refinement < r1.refinement

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            hankel_section_inverse_det(0.7, 4, -1)  # outside (-3/2, 1/2)
        with pytest.raises(DomainError):
            hankel_section_inverse_det(0.25, 4, +1, N=8)  # N < 4n

    def test_convergence_warning(self):
        with pytest.warns(ConvergenceWarning):
            hankel_section_inverse_det(0.25, 4, +1, N=128, tol=1e-12)


class TestHankelRegularized:
    def test_r_zero(self):
        ld = fredholm_det_hankel_reg(0.4, 0.0, +1)
        assert ld.ln_abs == 0.0 and ld.arg == 0.0

    @pytest.mark.parametrize("r", [0.5, 0.8])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_closed_form(self, r, sign):
        b = 0.3
        got = fredholm_det_hankel_reg(b, r, sign)
        want = ln_det_hankel_reg_exact(b, r, sign)
        assert abs(np.exp(got.log - want) - 1.0) < 1e-8

    def test_closed_form_value(self):
        # sign=+: ((1-r)/(1+r))^{b/2} (1-r^2)^{b^2/2} at b=0.3, r=0.8
        want = math.log((0.2 / 1.8) ** 0.15 * 0.36**0.045)
        got = fredholm_det_hankel_reg(0.3, 0.8, +1)
        assert abs(got.ln_abs - want) < 1e-8


def conditioned_tol(order: int, b: complex) -> float:
    """1e-13 n^{2|Re b|}: the zero (Re b > 0) or pole (Re b < 0) of v_b of
    order 2|Re b| at theta = 0 drives an extreme eigenvalue of an order-n
    section like n^{-2 Re b}, and every route's rounding with it.  Over 300
    draws of the strip below, n <= 64: at most 2.7e-14 n^{2|Re b|} from the
    LU (both routes at 1e-9 and beyond once Re b > 2)."""
    return 1e-13 * order ** (2.0 * abs(b.real))


#: the MATRIX strip Re b > -1/2, kept 5e-3 from its edge (c_0 ~ 1/(1 + 2b)),
#: up to Re b = 2.5, with |Im b| < 1/2
MATRIX_BETA = st.builds(complex, st.floats(-0.495, 2.5), st.floats(-0.5, 0.5))
SIGN = st.sampled_from([+1, -1])
ORACLE = settings(max_examples=40, deadline=None, derandomize=True, database=None)


class TestDnRecurrence:
    """d_n from the modified Chebyshev recurrence against the dense LU, the
    Toeplitz doubling identity and the 40-digit Barnes-G product."""

    @ORACLE
    @given(b=MATRIX_BETA, n=st.integers(1, 64), sign=SIGN)
    def test_against_dense_lu(self, b, n, sign):
        assert rel_exp_diff(d_n(b, n, sign), dense_d_n(b, n, sign)) <= conditioned_tol(n, b)

    @ORACLE
    @given(b=MATRIX_BETA, n=st.integers(1, 32))
    def test_toeplitz_doubling(self, b, n):
        # det T_2n = D_n^+ D_n^-, T_2n assembled and factored densely
        c = fourier_coeff_v(b, np.arange(2 * n))
        t2n = logdet(scipy.linalg.toeplitz(c, c))
        assert rel_exp_diff(d_n(b, n, +1) + d_n(b, n, -1), t2n) <= conditioned_tol(2 * n, b)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(b=st.builds(complex, st.floats(-0.35, 0.35), st.floats(-0.5, 0.5)))
    def test_against_mpmath_at_2048(self, b):
        # 2.5e-11 at most over 60 draws.  Nearer the strip's ends the bound
        # no longer holds: the recurrence's own rounding grows like n^2 eps
        # (1.3e-10 at b = 0.47, exact coefficients) and fourier_coeff_v loses
        # 1.6e-11 relative at |k| ~ 4096 (1e-10 in the LU too at b = -0.4)
        for sign in (+1, -1):
            got = d_n(b, 2048, sign)
            assert abs(np.exp(got.log - mp_d_n(b, 2048, sign)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("beta", [0.3, 0.2 + 0.15j])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_past_the_old_dense_cap(self, beta, sign):
        # n = 9460 was one past the LU's order cap for a real beta (9459;
        # 6688 complex): its three n x n arrays would have taken 2 GiB.  The
        # recurrence keeps a few length-2n rows.  Measured: 1.1e-10 to
        # 1.8e-10 off, a peak of 244 bytes per order
        n = 9460
        tracemalloc.start()
        try:
            got = d_n(beta, n, sign)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(np.exp(got.log - mp_d_n(beta, n, sign)) - 1.0) <= 5e-9
        assert peak < 1024 * n  # one n x n float64 array takes 8n bytes per order

    @pytest.mark.parametrize("beta", [0.3, -0.45, 0.2 + 0.15j])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_minors_from_one_pass(self, beta, sign):
        minors = d_n_minors(beta, 40, sign)
        assert len(minors) == 40
        assert minors[-1] == d_n(beta, 40, sign)
        for n in (1, 2, 17, 39):
            assert rel_exp_diff(minors[n - 1], dense_d_n(beta, n, sign)) <= 1e-13

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_rank_one_raises_singular(self, sign, monkeypatch):
        # every coefficient 1: T_n + H_n = 2 (1 1 ... 1)^T (1 1 ... 1) has rank
        # one, T_n - H_n = 0
        monkeypatch.setattr(structured, "fourier_coeff_v", lambda b, k: np.ones(len(k)))
        with pytest.raises(SingularMatrix):
            d_n(0.3, 4, sign)
