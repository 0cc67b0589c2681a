"""Admissibility guards for the singularity exponent."""

import math

import numpy as np
import pytest

from whdet import (
    AsymKind,
    AsymptoteSpec,
    BetaContext,
    CircleKind,
    CircleSymbol,
    DomainError,
    KernelFamily,
    KernelSpec,
    LineKind,
    LineSymbol,
    QuadRule,
    TruncatedWH,
    asymptote_log,
    check_beta,
    cut_kernel,
    d_n,
    d_n_exact,
    d_n_minors,
    det_tn_exact,
    det_w2r,
    det_wr_pm_hr,
    expsum,
    finite_section_quotient,
    fourier_coeff_u,
    fourier_coeff_v,
    fredholm,
    fredholm_det_hankel_reg,
    fredholm_logdet,
    gauss_rule,
    hankel,
    hankel_logdet,
    hankel_section_inverse_det,
    jump_coeff_sum,
    ln_akhiezer_kac_E,
    ln_c_beta,
    ln_det_hankel_reg_exact,
    nystrom,
    reg_coeff_table,
    sech_kernel,
    structured,
    toeplitz,
    wh_rule,
    wienerhopf,
)
from whdet.cli import main


class TestStrips:
    def test_discrete_plus_ladder(self):
        check_beta(0.3, BetaContext.DISCRETE_PLUS)
        check_beta(-1.2, BetaContext.DISCRETE_PLUS)
        check_beta(-0.5 + 0.1j, BetaContext.DISCRETE_PLUS)  # off the real axis
        for bad in (-0.5, -1.5, -2.5):
            with pytest.raises(DomainError):
                check_beta(bad, BetaContext.DISCRETE_PLUS)

    def test_discrete_minus_ladder(self):
        check_beta(-0.5, BetaContext.DISCRETE_MINUS)  # allowed for the minus sign
        for bad in (-1.5, -3.5):
            with pytest.raises(DomainError):
                check_beta(bad, BetaContext.DISCRETE_MINUS)

    def test_continuous_strips(self):
        check_beta(1.2, BetaContext.CONTINUOUS_PLUS)
        with pytest.raises(DomainError):
            check_beta(1.5, BetaContext.CONTINUOUS_PLUS)
        check_beta(-0.9, BetaContext.CONTINUOUS_MINUS)
        with pytest.raises(DomainError):
            check_beta(0.5, BetaContext.CONTINUOUS_MINUS)

    def test_kernel_family(self):
        check_beta(0.99, BetaContext.KERNEL_FAMILY)
        with pytest.raises(DomainError):
            check_beta(1.0, BetaContext.KERNEL_FAMILY)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            check_beta(float("nan"), BetaContext.KERNEL_FAMILY)


#: betas within a rounding of a strip end or a ladder point, where a Barnes G
#: of the asymptote vanishes; accepted once, then ln_barnes_g raised ZeroError
AT_A_ZERO_OF_G = [
    (AsymKind.CONTINUOUS_PLUS, -0.5 + 2.2e-16),
    (AsymKind.SECH, 0.5 - 2.2e-16),
    (AsymKind.DISCRETE_PLUS, -0.5 + 1e-14 + 1e-14j),
]


class TestStripEdges:
    @pytest.mark.parametrize("kind, beta", AT_A_ZERO_OF_G)
    def test_rejected_as_domain_error(self, kind, beta):
        with pytest.raises(DomainError):
            AsymptoteSpec(kind, beta)

    @pytest.mark.parametrize("kind, beta", AT_A_ZERO_OF_G)
    def test_accepted_beyond_the_tolerance(self, kind, beta):
        # 2e-12 from the excluded point: every Barnes G stays off its zeros
        inward = -2e-12 if kind is AsymKind.SECH else 2e-12
        spec = AsymptoteSpec(kind, complex(beta).real + inward + 1j * complex(beta).imag)
        assert math.isfinite(abs(asymptote_log(spec, 10.0)))

    @pytest.mark.parametrize("argv", [
        ["--command", "sech-lab", "--beta-re", repr(0.5 - 2.2e-16), "--r-range", "8:8:1"],
        ["--command", "constants", "--beta-re", repr(-0.5 + 1e-14), "--beta-im", "1e-14"],
    ])
    def test_cli_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "invalid config" in capsys.readouterr().err


# public functions that read beta by complex(beta), so any complex-like number
BETA_READERS = {
    "d_n": lambda b: d_n(b, 4, +1).log,
    "det_tn_exact": lambda b: det_tn_exact(b, 4).log,
    "hankel_section_inverse_det":
        lambda b: hankel_section_inverse_det(b, 2, -1, N=64).value.log,
    "ln_det_hankel_reg_exact": lambda b: ln_det_hankel_reg_exact(b, 0.5, +1),
    "fredholm_det_hankel_reg": lambda b: fredholm_det_hankel_reg(b, 0.5, +1).log,
    "ln_akhiezer_kac_E": ln_akhiezer_kac_E,
    "ln_c_beta": ln_c_beta,
}


@pytest.mark.parametrize("name", sorted(BETA_READERS))
def test_numpy_beta_read_as_its_value(name):
    b = -0.2 + 0.1j
    fn = BETA_READERS[name]
    assert fn(np.complex128(b)) == fn(b)


# every entry point of a +- determinant, called with a given sign
SIGN_TAKERS = {
    "d_n": lambda s: d_n(0.3, 4, s),
    "d_n_exact": lambda s: d_n_exact(0.3, 4, s),
    "hankel_section_inverse_det": lambda s: hankel_section_inverse_det(0.3, 2, s, N=16),
    "ln_det_hankel_reg_exact": lambda s: ln_det_hankel_reg_exact(0.3, 0.5, s),
    "fredholm_det_hankel_reg": lambda s: fredholm_det_hankel_reg(0.3, 0.5, s),
    "hankel_logdet": lambda s: hankel_logdet(_u_sum(), s, 0, 8),
    "fredholm_logdet": lambda s: fredholm_logdet(
        nystrom(KernelSpec(KernelFamily.K0, beta=0.3), gauss_rule(8, (0.0, 1.0))), s),
    "TruncatedWH": lambda s: TruncatedWH(
        LineSymbol(LineKind.VHAT_EPS, beta=0.3, eps=0.1), 5.0, sign=s),
}


@pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
@pytest.mark.parametrize("name", sorted(SIGN_TAKERS))
def test_sign_outside_plus_minus_one_rejected(name, sign):
    with pytest.raises(DomainError, match="sign"):
        SIGN_TAKERS[name](sign)


def _small_rule():
    return wh_rule(2.0, panels=4, nodes=8)


def _vhat(b):
    return LineSymbol(LineKind.VHAT_EPS, beta=b, eps=0.1)


MATRIX_EDGES = (-0.5,)
SECH_EDGES = (-1.5, 0.5)
PLUS_EDGES = (-0.5, 1.5)
MINUS_EDGES = (-1.0, 0.5)
KERNEL_EDGES = (-1.0, 1.0)
HANKEL_REG_EDGES = (-1.0, float("inf"))
FINITE_EDGES = (float("inf"), complex(0.0, float("-inf")))

# every entry point that reads beta: (call at small sizes, the edges of its
# open strip, a beta inside it)
STRIP_TABLE = {
    "fourier_coeff_v": (lambda b: fourier_coeff_v(b, 3), MATRIX_EDGES, 0.3),
    "d_n": (lambda b: d_n(b, 4, +1), MATRIX_EDGES, 0.3),
    "AsymptoteSpec(W2R_CONT)":
        (lambda b: AsymptoteSpec(AsymKind.W2R_CONT, b), MATRIX_EDGES, 0.3),
    "AsymptoteSpec(T2N_DISCRETE)":
        (lambda b: AsymptoteSpec(AsymKind.T2N_DISCRETE, b), MATRIX_EDGES, 0.3),
    "LineSymbol(PHI)": (lambda b: LineSymbol(LineKind.PHI, beta=b), SECH_EDGES, -1.2),
    "ln_akhiezer_kac_E": (ln_akhiezer_kac_E, SECH_EDGES, -1.2),
    "sech_kernel": (sech_kernel, SECH_EDGES, -1.2),
    "AsymptoteSpec(SECH)": (lambda b: AsymptoteSpec(AsymKind.SECH, b), SECH_EDGES, -1.2),
    "hankel_section_inverse_det(-1)":
        (lambda b: hankel_section_inverse_det(b, 2, -1, N=16), SECH_EDGES, -0.3),
    "hankel_section_inverse_det(+1)":
        (lambda b: hankel_section_inverse_det(b, 2, +1, N=16), PLUS_EDGES, 0.3),
    "AsymptoteSpec(CONTINUOUS_PLUS)":
        (lambda b: AsymptoteSpec(AsymKind.CONTINUOUS_PLUS, b), PLUS_EDGES, 1.2),
    "ln_c_beta": (ln_c_beta, MINUS_EDGES, -0.9),
    "AsymptoteSpec(CBETA)": (lambda b: AsymptoteSpec(AsymKind.CBETA, b), MINUS_EDGES, -0.9),
    "AsymptoteSpec(CONTINUOUS_MINUS)":
        (lambda b: AsymptoteSpec(AsymKind.CONTINUOUS_MINUS, b), MINUS_EDGES, -0.9),
    "AsymptoteSpec(DISCRETE_PLUS)":
        (lambda b: AsymptoteSpec(AsymKind.DISCRETE_PLUS, b), (-0.5, -1.5), -1.2),
    "AsymptoteSpec(DISCRETE_MINUS)":
        (lambda b: AsymptoteSpec(AsymKind.DISCRETE_MINUS, b), (-1.5, -2.5), -0.5),
    "cut_kernel": (lambda b: cut_kernel(_vhat(b)), KERNEL_EDGES, 0.9),
    "det_wr_pm_hr": (lambda b: det_wr_pm_hr(TruncatedWH(_vhat(b), 2.0, _small_rule(), +1)),
                     KERNEL_EDGES, 0.3),
    "det_w2r": (lambda b: det_w2r(_vhat(b), 2.0, _small_rule()), KERNEL_EDGES, 0.3),
    "CircleSymbol": (lambda b: CircleSymbol(CircleKind.VBETA, beta=b), FINITE_EDGES, 2.7),
    "LineSymbol(UHAT_EPS)": (lambda b: LineSymbol(LineKind.UHAT_EPS, beta=b, eps=0.1),
                             FINITE_EDGES, 2.7),
    "fourier_coeff_u": (lambda b: fourier_coeff_u(b, 2), FINITE_EDGES, 2.7),
    "det_tn_exact": (lambda b: det_tn_exact(b, 4), FINITE_EDGES, 2.7),
    "ln_det_hankel_reg_exact":
        (lambda b: ln_det_hankel_reg_exact(b, 0.5, -1), FINITE_EDGES, 2.7),
    "fredholm_det_hankel_reg":
        (lambda b: fredholm_det_hankel_reg(b, 0.5, +1), HANKEL_REG_EDGES, 2.7),
    "reg_coeff_table": (lambda b: reg_coeff_table(
        CircleSymbol(CircleKind.VBETA_R, beta=b, r=0.5), 4), FINITE_EDGES, 2.7),
}


def _unreachable(*args, **kwargs):
    raise AssertionError("assembly or factorization reached with a rejected input")


@pytest.mark.parametrize("name", sorted(STRIP_TABLE))
def test_strip_table(name, monkeypatch):
    call, edges, inside = STRIP_TABLE[name]
    call(inside)
    monkeypatch.setattr(wienerhopf, "expsum_logdet", _unreachable)
    # expsum_logdet fetches its panel factorization (LAPACK getrf) here
    monkeypatch.setattr(expsum, "get_lapack_funcs", _unreachable)
    monkeypatch.setattr(structured, "_gram_pivots", _unreachable)
    monkeypatch.setattr(expsum, "logdet", _unreachable)
    for bad in (float("nan"), complex(0.3, float("nan")), *edges):
        with pytest.raises(DomainError):
            call(bad)


def _u_sum():
    return jump_coeff_sum(CircleSymbol(CircleKind.UBETA_R, beta=0.3, r=0.5))


def _u_b(kmax):
    return jump_coeff_sum(CircleSymbol(CircleKind.UBETA, beta=0.3), kmax)


def _v_table(kmax):
    return reg_coeff_table(CircleSymbol(CircleKind.VBETA_R, beta=0.3, r=0.5), kmax)


# every entry point that takes a matrix order, a truncation, a section bound,
# a largest index or a node count, given a non-integer or out-of-range one:
# d_n returned D_4 at n = 4.5 and d_n_exact a Barnes-G continuation between
# D_4 and D_5; hankel_logdet(start=2.5) a value between those at start 2 and
# 3, and start -3 raised SingularMatrix; jump_coeff_sum(kmax=0) raised a bare
# ValueError, reg_coeff_table(-1) returned an empty table, and wh_rule and
# gauss_rule, given a float node count, raised numpy's TypeError
NON_INTEGER_ORDERS = {
    "d_n": lambda: d_n(0.3, 4.5, +1),
    "d_n_minors": lambda: d_n_minors(0.3, 4.5, +1),
    "d_n_exact": lambda: d_n_exact(0.3, 4.5, +1),
    "det_tn_exact": lambda: det_tn_exact(0.3, 2.5),
    "hankel_section_inverse_det(n)": lambda: hankel_section_inverse_det(0.3, 2.5, +1, N=64),
    "hankel_section_inverse_det(N)": lambda: hankel_section_inverse_det(0.3, 2, +1, N=64.5),
    "toeplitz": lambda: toeplitz(lambda k: fourier_coeff_v(0.3, k), 2.5),
    "hankel": lambda: hankel(lambda k: fourier_coeff_v(0.3, k), 2.5),
    "hankel_logdet(start=2.5)": lambda: hankel_logdet(_u_sum(), +1, 2.5, 8),
    "hankel_logdet(stop=7.5)": lambda: hankel_logdet(_u_sum(), +1, 0, 7.5),
    "hankel_logdet(start=-3)": lambda: hankel_logdet(_u_sum(), +1, -3),
    "jump_coeff_sum(kmax=0)": lambda: _u_b(0),
    "jump_coeff_sum(kmax=-4)": lambda: _u_b(-4),
    "jump_coeff_sum(kmax=2.5)": lambda: _u_b(2.5),
    "reg_coeff_table(kmax=-1)": lambda: _v_table(-1),
    "reg_coeff_table(kmax=2.5)": lambda: _v_table(2.5),
    "wh_rule(nodes=2.5)": lambda: wh_rule(10.0, nodes=2.5),
    "gauss_rule(m=3.0)": lambda: gauss_rule(3.0, (0, 1)),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_ORDERS))
def test_non_integer_order_rejected(name):
    with pytest.raises(DomainError, match="integer"):
        NON_INTEGER_ORDERS[name]()


# each Fourier-coefficient function, given a non-integer index: both returned
# a Gamma continuation, fourier_coeff_v(0.3, 2.5) = -0.0540 between the
# coefficients at k = 2 and 3
NON_INTEGER_INDICES = {
    "fourier_coeff_v(2.5)": lambda: fourier_coeff_v(0.3, 2.5),
    "fourier_coeff_v(float array)": lambda: fourier_coeff_v(0.3, np.arange(4.0)),
    "fourier_coeff_u(2.5)": lambda: fourier_coeff_u(0.3, 2.5),
    "fourier_coeff_u(float array)": lambda: fourier_coeff_u(0.3, np.array([1.0, 2.5])),
    "fourier_coeff_u(integer beta)": lambda: fourier_coeff_u(2.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INDICES))
def test_non_integer_index_rejected(name):
    with pytest.raises(DomainError, match="integer"):
        NON_INTEGER_INDICES[name]()


def test_integer_index_kinds_accepted():
    want = fourier_coeff_v(0.3, np.arange(3))
    assert fourier_coeff_v(0.3, np.int32(2)) == want[2] == fourier_coeff_v(0.3, 2)
    assert np.array_equal(fourier_coeff_u(0.3, np.arange(3, dtype=np.int16)),
                          fourier_coeff_u(0.3, np.arange(3)))


# every Wiener-Hopf route, given a rule on another interval than [0, R]:
# det_w2r(vhat_eps(0.3, 1e-3), 10, wh_rule(5)) returned det W_5
OTHER_INTERVALS = {
    "det_wr_pm_hr": lambda rule, R: det_wr_pm_hr(TruncatedWH(_vhat(0.3), R, rule)),
    "det_w2r": lambda rule, R: det_w2r(_vhat(0.3), R, rule),
}


@pytest.mark.parametrize("interval", [(0.0, 5.0), (1.0, 10.0), (0.0, 20.0)])
@pytest.mark.parametrize("name", sorted(OTHER_INTERVALS))
def test_rule_on_another_interval_rejected(name, interval, monkeypatch):
    rule = gauss_rule(4, np.linspace(*interval, 3))
    monkeypatch.setattr(wienerhopf, "expsum_logdet", _unreachable)
    with pytest.raises(DomainError, match="does not match"):
        OTHER_INTERVALS[name](rule, 10.0)


def test_numpy_integer_order_accepted():
    assert d_n(0.3, np.int64(4), +1) == d_n(0.3, 4, +1)
    assert d_n_exact(0.3, np.int32(4), -1) == d_n_exact(0.3, 4, -1)


NAN, INF = float("nan"), float("inf")

# every length, scale, panel count, panel end and regularization, given one
# that is not finite or out of range; each was accepted, or failed later in
# numpy, math or LU
BAD_LENGTHS = {
    "TruncatedWH(R=nan)": lambda: TruncatedWH(_vhat(0.3), NAN),
    "wh_rule(R=inf)": lambda: wh_rule(INF),
    "wh_rule(panels=0)": lambda: wh_rule(10.0, panels=0),
    "det_w2r(R2=nan)": lambda: det_w2r(_vhat(0.3), NAN),
    "KernelSpec(KHAT_R, R=nan)": lambda: KernelSpec(KernelFamily.KHAT_R, beta=0.3, R=NAN),
    "finite_section_quotient(R=nan)": lambda: finite_section_quotient(0.3, +1, R=NAN),
    "hankel_section_inverse_det(N=nan)":
        lambda: hankel_section_inverse_det(0.3, 2, +1, N=NAN),
    "asymptote_log(scale=nan)":
        lambda: asymptote_log(AsymptoteSpec(AsymKind.CONTINUOUS_PLUS, 0.3), NAN),
    "jump_coeff_sum(r=0)":
        lambda: jump_coeff_sum(CircleSymbol(CircleKind.UBETA_R, beta=0.3, r=0.0)),
    "gauss_rule(ends not monotone)": lambda: gauss_rule(4, (0.0, 1.0, 0.5)),
    "gauss_rule(ends repeated)": lambda: gauss_rule(4, (0.0, 0.5, 0.5, 1.0)),
    "gauss_rule(ends=(1, inf))": lambda: gauss_rule(4, (1.0, INF)),
    "gauss_rule(ends with nan)": lambda: gauss_rule(4, (0.0, 0.5, NAN, 1.0)),
    "gauss_rule(one end)": lambda: gauss_rule(4, (0.0,)),
    "gauss_rule(no ends)": lambda: gauss_rule(4, ()),
}


@pytest.mark.parametrize("name", sorted(BAD_LENGTHS))
def test_bad_length_rejected_before_assembly(name, monkeypatch):
    for module, attr in ((wienerhopf, "gauss_rule"), (wienerhopf, "cut_kernel"),
                         (wienerhopf, "expsum_logdet"), (fredholm, "nystrom"),
                         (structured, "jump_coeff_sum")):
        monkeypatch.setattr(module, attr, _unreachable)
    with pytest.raises(DomainError):
        BAD_LENGTHS[name]()


# every Wiener-Hopf route, given a malformed rule on [0, 2]: an empty rule
# and nodes and weights of different lengths raised IndexError in
# expsum_logdet; det_wr_pm_hr(vhat_eps(0.3, 0.1)) with the nodes {-50, 1}
# returned ln|det| = 95.49, a NaN node SingularMatrix, and the nodes
# {1, 2.5} or {inf, 1} a value, each read past the kernel's window
MALFORMED_RULES = {
    "empty": ([], []),
    "one weight short": ([0.5, 1.0], [0.5]),
    "node below 0": ([-50.0, 1.0], [1.0, 1.0]),
    "node past R": ([1.0, 2.5], [1.0, 1.0]),
    "nan node": ([NAN, 1.0], [1.0, 1.0]),
    "inf node": ([INF, 1.0], [1.0, 1.0]),
}


@pytest.mark.parametrize("route", sorted(OTHER_INTERVALS))
@pytest.mark.parametrize("name", sorted(MALFORMED_RULES))
def test_malformed_rule_rejected_before_assembly(name, route, monkeypatch):
    nodes, weights = MALFORMED_RULES[name]
    for attr in ("cut_kernel", "expsum_logdet"):
        monkeypatch.setattr(wienerhopf, attr, _unreachable)
    rule = QuadRule(np.array(nodes), np.array(weights), (0.0, 2.0))
    with pytest.raises(DomainError, match="rule"):
        OTHER_INTERVALS[route](rule, 2.0)
