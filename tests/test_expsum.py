"""Exponential sums: the compression of the branch-cut and sech kernels, and
the quasiseparable log-determinant behind every Wiener-Hopf route, against
the dense N x N oracles of ``_dense_oracle``."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from whdet import (
    BetaContext,
    DomainError,
    ExpSum,
    LineKind,
    LineSymbol,
    QuadRule,
    SingularMatrix,
    TruncatedWH,
    cut_kernel,
    cut_rule,
    det_w2r,
    det_wr_pm_hr,
    expsum_logdet,
    factor_product_logdet,
    gauss_rule,
    reflected_union_rule,
    rel_exp_diff,
    sech_kernel,
    wh_rule,
)
from whdet import expsum
from whdet.logdet import _MAX_DENSE_BYTES, check_dense
from whdet.params import EXCLUSION_TOL, _STRIPS

from _dense_oracle import (
    dense_factor_product,
    dense_hankel,
    dense_section_inverse,
    dense_w2r,
    dense_wr_pm_hr,
    raw_cut_kernel,
)

#: beta across the whole KERNEL_FAMILY strip, edges included to 1e-3
STRIP_BETAS = (-0.999, -0.95, -0.8, -0.5, -0.2, 0.1, 0.4, 0.7, 0.9, 0.999, 0.3 + 0.4j)


def _check_grid(eps):
    """u = 0 and 4000 log-spaced points to ten times the sample range; no
    point of it is a sample point of compress."""
    return np.concatenate([[0.0], np.geomspace(1.3e-4, 400.0 / eps, 4000)])


class TestCompression:
    @pytest.mark.parametrize("kind", [LineKind.VHAT_EPS, LineKind.UHAT_EPS])
    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.1])
    def test_cut_kernel_sup_error_and_terms(self, kind, eps):
        worst = 0.0
        for b in STRIP_BETAS:
            sym = LineSymbol(kind, beta=b, eps=eps)
            k, raw = cut_kernel(sym), raw_cut_kernel(sym)
            assert k.terms <= 80 and raw.terms >= 700
            for u in (_check_grid(eps), -_check_grid(eps)):
                full = raw(u)
                err = np.max(np.abs(k(u) - full)) / np.max(np.abs(full))
                worst = max(worst, err)
            assert k.err <= 1e-13
        assert worst <= 1e-13

    def test_sech_fit(self):
        k = sech_kernel(0.3)
        u = np.concatenate([[0.0], np.geomspace(1e-5, 400.0, 4000)])
        want = -np.sin(0.3 * np.pi) / (2.0 * np.pi) / np.cosh(u / 2.0)
        assert np.max(np.abs(k(u) - want)) <= 1e-14 * np.max(np.abs(want))
        assert k.terms <= 80 and np.min(k.eta) >= 0.5

    def test_sech_fit_is_beta_free(self):
        a, b = sech_kernel(0.3), sech_kernel(-1.2 + 0.1j)
        assert a.eta is b.eta
        ratio = b.w_pos / a.w_pos
        assert np.allclose(ratio, ratio[0], rtol=1e-15, atol=0)

    def test_interpolation_matrix(self):
        # every original exponential from the kept ones
        sym = LineSymbol(LineKind.VHAT_EPS, beta=0.3, eps=1e-3)
        k, raw = cut_kernel(sym), raw_cut_kernel(sym)
        u = _check_grid(1e-3)
        approx = np.exp(-np.multiply.outer(u, k.eta)) @ k.interp
        assert np.max(np.abs(approx - np.exp(-np.multiply.outer(u, raw.eta)))) <= 1e-13

    @pytest.mark.parametrize("kind", [LineKind.VHAT_EPS, LineKind.UHAT_EPS])
    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 0.1])
    def test_windowed_cut_kernel_on_its_window(self, kind, eps):
        # the kernel compressed on |u| <= w, against every term of the
        # whole-line cut_rule there (and on [-w, 0] for the odd kernel); at
        # w = 80 it keeps 28 terms at eps = 1e-4, against 74 on the whole
        # line, from a windowed rule of 396 candidates, against 792
        worst = 0.0
        for b in STRIP_BETAS:
            sym = LineSymbol(kind, beta=b, eps=eps)
            raw = raw_cut_kernel(sym)
            for w in (3e-3, 0.5, 20.0, 80.0):
                k = cut_kernel(sym, w)
                assert k.err <= 1e-13
                if w == 80.0 and eps == 1e-4:
                    assert k.terms <= 30
                    windowed = len(cut_rule(eps, b, expsum.WINDOW_MARGIN * w)[0])
                    assert windowed <= 450 and windowed < len(cut_rule(eps, b)[0])
                u = np.concatenate([[0.0], np.geomspace(1e-6 * w, w, 2000)])
                for side in ((u, -u) if kind is LineKind.UHAT_EPS else (u,)):
                    full = raw(side)
                    worst = max(worst, np.max(np.abs(k(side) - full)) / np.max(np.abs(full)))
        assert worst <= 1e-13

    def test_cut_rule_reach(self):
        # 12 nodes a level: 42 + 24 levels on the whole line at eps = 1e-4,
        # 20 + 13 for the reach 120 of the window 80; a reach past the whole
        # line's grading keeps its rule bit for bit
        whole = cut_rule(1e-4, 0.3)
        assert len(whole[0]) == 792
        for reach, n in ((6.0, 348), (120.0, 396), (450.0, 420)):
            assert len(cut_rule(1e-4, 0.3, reach)[0]) == n
        for got, want in zip(cut_rule(1e-4, 0.3, 1e30), whole):
            assert np.array_equal(got, want)

    def test_no_window_is_the_whole_line_grid(self):
        # window None samples to 40/eta_min, and a window past that changes
        # nothing, bit for bit
        raw = raw_cut_kernel(LineSymbol(LineKind.UHAT_EPS, beta=0.3 + 0.2j, eps=1e-3))
        lo, hi = 1e-2 / np.max(raw.eta), 40.0 / np.min(raw.eta)
        n = math.ceil(expsum.SAMPLES_PER_DECADE * math.log10(hi / lo))
        assert np.array_equal(expsum._grid(raw.eta),
                              np.concatenate([[0.0], np.geomspace(lo, hi, n)]))
        whole, far = raw.compress(), raw.compress(hi / expsum.WINDOW_MARGIN)
        for name in ("eta", "w_pos", "w_neg", "interp", "err"):
            assert np.array_equal(getattr(whole, name), getattr(far, name)), name

    @pytest.mark.parametrize("window", [1e-6, 1e-3, 4e-3])
    def test_window_below_the_grid_start(self, window):
        # a window under 1e-2/eta_max still gets a grid of two decades
        k = raw_cut_kernel(LineSymbol(LineKind.VHAT_EPS, beta=0.3, eps=1e-3))
        u = expsum._grid(k.eta, window)
        assert u[0] == 0.0 and np.all(np.diff(u) > 0)
        assert math.isclose(u[-1], expsum.WINDOW_MARGIN * window)
        assert len(u) > 2 * expsum.SAMPLES_PER_DECADE
        assert k.compress(window).err <= 1e-13

    def test_jump_kernel_sides(self):
        # u > 0 reads w_pos, u < 0 w_neg, u = 0 their mean
        k = ExpSum(np.array([0.5, 1.0]), np.array([1.0, 2.0]), np.array([3.0, -1.0]))
        got = k(np.array([1.0, -1.0, 0.0]))
        want = [np.exp(-0.5) + 2 * np.exp(-1.0), 3 * np.exp(-0.5) - np.exp(-1.0), 2.5]
        assert np.allclose(got, want, rtol=1e-15)


class TestExpsumLogdet:
    def test_node_order_is_irrelevant(self):
        sym = LineSymbol(LineKind.UHAT_EPS, beta=0.4, eps=0.1)
        k = cut_kernel(sym)
        rule = wh_rule(5.0, panels=10, nodes=8)
        perm = np.random.default_rng(0).permutation(len(rule))
        shuffled = QuadRule(rule.nodes[perm], rule.weights[perm], rule.interval)
        M = np.diag(k.w_pos)
        assert rel_exp_diff(expsum_logdet(k, rule, M), expsum_logdet(k, shuffled, M)) <= 1e-13

    @pytest.mark.parametrize("kind", [LineKind.VHAT_EPS, LineKind.UHAT_EPS])
    def test_batched_panel_blocks(self, kind):
        # 5 full panels and a last one of 7 nodes, padded as expsum_logdet
        # pads it: each block is I + S k(x_i - x_j) S of its own panel
        k = cut_kernel(LineSymbol(kind, beta=0.3 + 0.2j, eps=0.1), 20.0)
        P = expsum.PANEL
        rule = gauss_rule(5 * P + 7, (0.0, 5.0))
        x, s = rule.nodes, np.sqrt(rule.weights)
        pad = 6 * P - len(x)
        xs = np.concatenate([x, np.full(pad, x[-1])]).reshape(6, P)
        ss = np.concatenate([s, np.zeros(pad)]).reshape(6, P)
        blocks = list(expsum._panel_blocks(k, xs, ss))
        assert len(blocks) == 6
        for i, lo in enumerate(range(0, len(x), P)):
            want = np.eye(P) + np.multiply.outer(ss[i], ss[i]) * k.block(xs[i])
            assert np.array_equal(blocks[i], want)
            # and the kernel itself, read on both sides of the diagonal
            xi, si = x[lo:lo + P], s[lo:lo + P]
            m = len(xi)
            direct = np.eye(m) + np.multiply.outer(si, si) * k(np.subtract.outer(xi, xi))
            assert np.max(np.abs(blocks[i][:m, :m] - direct)) <= 1e-15
        assert np.array_equal(blocks[5][7:, 7:], np.eye(P - 7))

    @pytest.mark.parametrize("kind", [LineKind.UHAT_EPS, LineKind.PHI])
    def test_split_block_is_pairwise(self, kind):
        # ExpSum.block splits PANEL nodes down to BLOCK_LEAF; each product
        # across a split is as accurate as the pairwise exponential, sech's
        # exponents up to 100 included
        k = sech_kernel(0.3) if kind is LineKind.PHI else cut_kernel(
            LineSymbol(kind, beta=-0.3 + 0.2j, eps=1e-3), 20.0)
        x = np.sort(gauss_rule(16, (0.0, 1.0, 2.0)).nodes)
        assert len(x) > expsum.BLOCK_LEAF
        want = k(np.subtract.outer(x, x))
        got = k.block(x)
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
        assert np.array_equal(k.block(np.stack([x, x]))[1], got)

    def test_singular_panel(self):
        # one node of weight 1 with k(0) = -1: the only pivot is 1 + k(0) = 0
        k = ExpSum(np.array([1.0]), np.array([-1.0]), np.array([-1.0]))
        rule = QuadRule(np.array([0.5]), np.array([1.0]), (0.0, 1.0))
        with pytest.raises(SingularMatrix):
            expsum_logdet(k, rule)
        two = QuadRule(np.array([0.25, 0.5]), np.array([0.5, np.nan]), (0.0, 1.0))
        with pytest.raises(SingularMatrix):
            expsum_logdet(k, two)

    def test_partial_last_panel(self):
        # three full panels and one a node short
        P = expsum.PANEL
        sym = LineSymbol(LineKind.VHAT_EPS, beta=-0.6, eps=0.1)
        rule = gauss_rule(4 * P - 1, (0.0, 6.0))
        for sign in (+1, -1):
            assert rel_exp_diff(det_wr_pm_hr(TruncatedWH(sym, 6.0, rule, sign)),
                                dense_wr_pm_hr(sym, rule, sign)) <= 1e-13

    @pytest.mark.parametrize("kind", [LineKind.PHI, LineKind.VHAT_EPS, LineKind.UHAT_EPS])
    def test_single_wide_panel(self, kind, monkeypatch):
        # one short panel of 16 nodes over [0, 40], padded to PANEL: the
        # sech kernel's exponents (up to 100.5) reach e^{-4000} across it,
        # and ExpSum.block's products across each split must not overflow
        sym = _symbol(kind, -0.3 + 0.2j, 0.05)
        rule = gauss_rule(16, (0.0, 40.0))
        assert len(rule) < expsum.PANEL
        calls = []
        block = ExpSum.block
        monkeypatch.setattr(ExpSum, "block", lambda self, x: calls.append(x.shape) or block(self, x))
        for sign in (+1, -1):
            assert rel_exp_diff(det_wr_pm_hr(TruncatedWH(sym, 40.0, rule, sign)),
                                dense_wr_pm_hr(sym, rule, sign)) <= 1e-12
        assert rel_exp_diff(det_w2r(sym, 40.0, rule), dense_w2r(sym, rule)) <= 1e-12
        assert (1, expsum.PANEL) in calls


# --- the dense oracle over each strip, real and complex beta ---------------

# no shrink phase: each example assembles a dense oracle, and a failing test
# reports its first failing draw instead of shrinking it for minutes
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
IMAG = st.one_of(st.just(0.0), st.floats(-0.5, 0.5))
R_SIZE = st.floats(1.0, 12.0)
EPS = st.sampled_from([0.05, 0.1, 0.5])
#: the gaps a rule leaves at 0 and at R, as fractions of R
GAPS = st.tuples(st.floats(0.02, 0.25), st.floats(0.02, 0.25))


#: distance of the complex draws from the strip edges.  The cut weight's end
#: singularity (eta - eps)^{-|b|} integrates to about 1/(1 - |Re b|); for a
#: real b the prefactor sin(pi b) vanishes there too, but not for a complex
#: one, so the kernel grows like |sin(pi b)|/(1 - |Re b|): at b = -0.99 + 0.5i,
#: eps = 0.05 it is 500 at u = 0, the matrix's condition number 5e3 at R = 6,
#: and the compression's 1e-15 relative change of the kernel moves log det by
#: 1e-12.  Real draws cover the whole open strip.
COMPLEX_EDGE_MARGIN = 0.1


def _beta(context, u, im):
    lo, hi = _STRIPS[context]
    if im:
        lo, hi = lo + COMPLEX_EDGE_MARGIN, hi - COMPLEX_EDGE_MARGIN
    b = lo + u * (hi - lo)
    if not lo + EXCLUSION_TOL < b < hi - EXCLUSION_TOL:  # u too near 0 or 1
        b = 0.5 * (lo + hi)
    return complex(b, im) if im else b


def _symbol(kind, b, eps):
    if kind is LineKind.PHI:
        return LineSymbol(kind, beta=b)
    return LineSymbol(kind, beta=b, eps=eps)


def _context(kind):
    return BetaContext.SECH if kind is LineKind.PHI else BetaContext.KERNEL_FAMILY


def _rules(R, gaps):
    """wh_rule(R), and a [0, R] rule whose Gauss panels stop short of 0 and
    of R by the fractions ``gaps`` of R: its first node, where the Hankel
    term enters the recursion as the starting state, is away from 0, and
    so is the first node of the nodes mirrored about R/2."""
    lo, hi = gaps[0] * R, (1.0 - gaps[1]) * R
    panels = max(4, math.ceil(2.0 * (hi - lo)))
    inner = gauss_rule(16, lo + (hi - lo) * np.linspace(0.0, 1.0, panels + 1))
    return wh_rule(R), QuadRule(inner.nodes, inner.weights, (0.0, R))


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("kind", [LineKind.VHAT_EPS, LineKind.UHAT_EPS, LineKind.PHI])
@PROPERTY
@given(u=FRACTION, im=IMAG, R=R_SIZE, eps=EPS, gaps=GAPS)
def test_det_wr_pm_hr_matches_dense(kind, sign, u, im, R, eps, gaps):
    sym = _symbol(kind, _beta(_context(kind), u, im), eps)
    for rule in _rules(R, gaps):
        assert len(rule) <= 4000
        got = det_wr_pm_hr(TruncatedWH(sym, R, rule, sign))
        assert rel_exp_diff(got, dense_wr_pm_hr(sym, rule, sign)) <= 1e-12


@pytest.mark.parametrize("kind", [LineKind.VHAT_EPS, LineKind.PHI])
@PROPERTY
@given(u=FRACTION, im=IMAG, R=R_SIZE, eps=EPS)
def test_det_w2r_matches_dense(kind, u, im, R, eps):
    sym = _symbol(kind, _beta(_context(kind), u, im), eps)
    rule = reflected_union_rule(wh_rule(R))
    assert len(rule) <= 4000
    assert rel_exp_diff(det_w2r(sym, 2.0 * R, rule), dense_w2r(sym, rule)) <= 1e-12


@PROPERTY
@given(u=FRACTION, im=IMAG, R=R_SIZE, eps=EPS, gaps=GAPS)
def test_factor_product_matches_dense(u, im, R, eps, gaps):
    b = _beta(BetaContext.KERNEL_FAMILY, u, im)
    for rule in _rules(R, gaps):
        got = factor_product_logdet(b, eps, R, rule=rule)
        assert rel_exp_diff(got, dense_factor_product(b, eps, R, rule)) <= 1e-12


# --- the dense oracles refuse an order over the library's cap --------------

def _rule(N):
    """N nodes on [0, 2], O(N) to build."""
    return QuadRule(np.linspace(0.5, 1.5, N), np.full(N, 1.0 / N), (0.0, 2.0))


#: each oracle: the N x N arrays it holds at once, and a call at order N
ORACLES = {
    "dense_system": (5, lambda b, N: dense_wr_pm_hr(
        LineSymbol(LineKind.VHAT_EPS, beta=b, eps=0.1), _rule(N), +1)),
    "dense_factor_product": (5, lambda b, N: dense_factor_product(b, 0.1, 2.0, _rule(N))),
    "dense_hankel": (3, lambda b, N: dense_hankel(
        np.zeros(2 * N + 1, dtype=np.result_type(b)), 0, N)),
    "dense_section_inverse": (3, lambda b, N: dense_section_inverse(b, 4, +1, N)),
}


def _unreachable(*args, **kwargs):
    raise AssertionError("an allocation over the dense cap was reached")


@pytest.mark.parametrize("beta, itemsize", [(0.3, 8), (0.3 + 0.1j, 16)])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_dense_oracle_over_cap_raises_before_assembly(name, beta, itemsize, monkeypatch):
    copies, call = ORACLES[name]
    # the smallest order whose arrays pass the cap
    N = math.isqrt(_MAX_DENSE_BYTES // (copies * itemsize)) + 1
    check_dense(name, N - 1, itemsize, copies)
    monkeypatch.setattr(np, "exp", _unreachable)
    monkeypatch.setattr(scipy.linalg, "hankel", _unreachable)
    with pytest.raises(DomainError, match=f"{name} of order {N} "):
        call(beta, N)
