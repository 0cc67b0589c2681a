"""Quadrature rules, the explicit kernel family, Nystrom determinants and
the projection-quotient identity."""

import cmath
import math
import warnings

import numpy as np
import pytest

import whdet.fredholm
from whdet import quadrature
from whdet import (
    DomainError,
    KernelFamily,
    KernelSpec,
    NystromOp,
    d_n,
    default_rule,
    finite_section_quotient,
    fredholm_logdet,
    gauss_rule,
    geometric_ends,
    hankel_section_inverse_det,
    kernel_eval,
    logdet,
    nystrom,
    quotient_identity,
    rel_exp_diff,
)
from whdet.logdet import _MAX_DENSE_BYTES, check_dense


class TestGaussRule:
    def test_two_point_classical(self):
        r = gauss_rule(2, (-1.0, 1.0))
        assert np.allclose(r.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)])
        assert np.allclose(r.weights, [1.0, 1.0])

    def test_cubic_exact(self):
        r = gauss_rule(4, (0.0, 1.0))
        assert abs(np.sum(r.weights * r.nodes**3) - 0.25) < 1e-14

    def test_weights_sum_to_length(self):
        r = gauss_rule(12, geometric_ends(0.25, 2.5, 10, 8))
        assert abs(np.sum(r.weights) - 2.25) < 1e-12

    def test_nodes_increasing(self):
        r = gauss_rule(8, geometric_ends(0.0, 1.0, 6, 6))
        assert np.all(np.diff(r.nodes) > 0)

    def test_mapped_semi_infinite(self):
        r = default_rule(KernelSpec(KernelFamily.HBETA, beta=0.3))
        got = np.sum(r.weights * r.nodes**-3.0)
        assert abs(got - 0.5) < 1e-10

    def test_endpoint_singularity(self):
        r = gauss_rule(16, geometric_ends(0.0, 1.0, 30, 0))
        got = np.sum(r.weights * r.nodes**-0.3)
        assert abs(got - 1.0 / 0.7) < 5e-9

    @pytest.mark.parametrize("ends", [(0.0, 1.0), (0.0, 0.25, 1.0, 4.0),
                                      (1.0, 0.5, 0.25, 0.125)])
    def test_panels_follow_the_ends(self, ends):
        # the panel loop written out: panels in the order of the ends (so a
        # descending grading keeps its order), nodes ascending in each panel
        xg, wg = np.polynomial.legendre.leggauss(6)
        halves = [0.5 * abs(hi - lo) for lo, hi in zip(ends[:-1], ends[1:])]
        mids = [0.5 * (lo + hi) for lo, hi in zip(ends[:-1], ends[1:])]
        r = gauss_rule(6, ends)
        assert np.array_equal(r.nodes, np.concatenate([h * xg + c for h, c in zip(halves, mids)]))
        assert np.array_equal(r.weights, np.concatenate([h * wg for h in halves]))
        assert r.interval == (min(ends), max(ends))

    def test_min_nodes(self):
        with pytest.raises(DomainError):
            gauss_rule(1, (0.0, 1.0))

    def test_legendre_nodes_computed_once(self):
        # one read-only copy per node count, which no rule can write through
        xg, wg = quadrature._legendre(6)
        assert quadrature._legendre(6)[0] is xg
        assert not xg.flags.writeable and not wg.flags.writeable
        r = gauss_rule(6, (-1.0, 1.0))
        r.nodes[:] = 0.0
        assert np.array_equal(xg, np.polynomial.legendre.leggauss(6)[0])


def _g(t):
    return (1.0 - t) / (1.0 + t)


def _g_eps(t, e=0.05):
    return (1.0 + t) * (t - e) / ((1.0 - t) * (t + e))


#: the algebraic factors of each truncated family at n = 3, R = 2, eps = 0.05
PER_FAMILY = {
    KernelFamily.KN: lambda b, x, y: _g(x) ** (6 - b / 2) * _g(y) ** (-b / 2),
    KernelFamily.KHAT_R: lambda b, x, y: (_g(x) * _g(y)) ** (-b / 2) * math.exp(-4.0 * x),
    KernelFamily.KEPS_N: lambda b, x, y: (_g_eps(x) * _g_eps(y)) ** (b / 2) * _g(x) ** 6,
    KernelFamily.KHAT_EPS_R:
        lambda b, x, y: (_g_eps(x) * _g_eps(y)) ** (b / 2) * math.exp(-4.0 * x),
}


class TestKernelEval:
    def test_beta_zero_vanishes(self):
        spec = KernelSpec(KernelFamily.K0, beta=0.0)
        assert kernel_eval(spec, 0.3, 0.6) == 0.0

    def test_k0_value(self):
        spec = KernelSpec(KernelFamily.K0, beta=0.5)
        assert abs(kernel_eval(spec, 0.5, 0.5) + 1.0 / np.pi) < 1e-15

    def test_keps_limit_matches_kn(self):
        # K_{b,eps,n} -> K_{b,n} pointwise in the interior as eps -> 0
        b, n = 0.3, 2
        kn = KernelSpec(KernelFamily.KN, beta=b, n=n)
        vals = []
        for eps in (1e-3, 1e-5, 1e-7):
            ke = KernelSpec(KernelFamily.KEPS_N, beta=b, n=n, eps=eps)
            vals.append(kernel_eval(ke, 0.4, 0.7))
        target = kernel_eval(kn, 0.4, 0.7)
        gaps = [abs(v - target) for v in vals]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-6

    def test_boundary_rejected(self):
        spec = KernelSpec(KernelFamily.KEPS_N, beta=0.3, n=1, eps=0.1)
        with pytest.raises(DomainError):
            kernel_eval(spec, 0.1, 0.5)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_node_at_or_below_the_interval_rejected(self, family):
        # the interval's lower end lo >= 0 bounds x + y away from 0 too
        spec = KernelSpec(family, beta=0.3, n=1, R=1.0, eps=0.1)
        lo, hi = spec.interval
        inside = lo + 0.5 * (min(hi, lo + 1.0) - lo)
        for node in (lo, lo - 0.05, -inside):
            for x, y in ((node, inside), (inside, node), (node, node)):
                with pytest.raises(DomainError):
                    kernel_eval(spec, x, y)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_non_finite_node_rejected(self, x):
        spec = KernelSpec(KernelFamily.HBETA, beta=0.3)
        with pytest.raises(DomainError):
            kernel_eval(spec, x, 2.0)

    def test_strip_guard(self):
        with pytest.raises(DomainError):
            KernelSpec(KernelFamily.K0, beta=1.2)

    def test_hbeta_family(self):
        spec = KernelSpec(KernelFamily.HBETA, beta=0.4)
        got = kernel_eval(spec, 2.0, 3.0)
        want = -np.sin(0.4 * np.pi) / np.pi * ((1 / 3) * (2 / 4)) ** 0.2 / 5.0
        assert abs(got - want) < 1e-15

    @pytest.mark.parametrize("x, y", [(0.3, 0.7), (0.85, 0.12)])
    @pytest.mark.parametrize("b", [0.3, -0.35 + 0.2j])
    @pytest.mark.parametrize("family", list(PER_FAMILY))
    def test_truncated_families(self, family, b, x, y):
        # each family's own closed form, its algebraic factors written out
        spec = KernelSpec(family, beta=b, n=3, R=2.0, eps=0.05)
        want = -cmath.sin(cmath.pi * b) / math.pi * PER_FAMILY[family](b, x, y) / (x + y)
        got = kernel_eval(spec, x, y)
        assert abs(got - want) <= 1e-14 * abs(want)
        assert np.iscomplexobj(got) == isinstance(b, complex)


class TestNystrom:
    def test_beta_zero_matrix(self):
        spec = KernelSpec(KernelFamily.K0, beta=0.0)
        op = nystrom(spec)
        assert np.max(np.abs(op.matrix)) == 0.0

    def test_symmetry_for_k0(self):
        spec = KernelSpec(KernelFamily.K0, beta=0.35)
        op = nystrom(spec)
        assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-14

    def test_node_doubling_stability(self):
        # a trace-class member: the regularized family on [eps, 1]
        spec = KernelSpec(KernelFamily.KHAT_EPS_R, beta=0.3, R=2.0, eps=0.1)
        v1 = fredholm_logdet(nystrom(spec, default_rule(spec, nodes=12)), +1)
        v2 = fredholm_logdet(nystrom(spec, default_rule(spec, nodes=24)), +1)
        assert abs(v1.log - v2.log) < 1e-8

    def test_unregularized_corner_diverges(self):
        # Khat_{b,R} keeps the 1/(x+y) corner at the origin: it is not
        # trace class on [0,1] and its standalone determinant drifts as
        # the discretization resolves deeper (only differences against
        # the Cauchy kernel are trace class)
        spec = KernelSpec(KernelFamily.KHAT_R, beta=0.3, R=4.0)
        v1 = fredholm_logdet(nystrom(spec, default_rule(spec, nodes=12)), +1)
        v2 = fredholm_logdet(nystrom(spec, default_rule(spec, nodes=24)), +1)
        assert abs(v1.log - v2.log) > 1e-2

    def test_interval_mismatch(self):
        spec = KernelSpec(KernelFamily.KEPS_N, beta=0.3, n=1, eps=0.1)
        with pytest.raises(DomainError):
            nystrom(spec, gauss_rule(8, (0.0, 1.0)))

    def test_restriction_of_k0_allowed(self):
        spec = KernelSpec(KernelFamily.K0, beta=0.3)
        rule = gauss_rule(8, (0.1, 1.0))
        op = nystrom(spec, rule)
        assert op.matrix.shape == (8, 8)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_entries_are_weighted_kernel_values(self, family):
        spec = KernelSpec(family, beta=-0.35 + 0.2j, n=3, R=2.0, eps=0.05)
        lo = spec.interval[0]
        rule = gauss_rule(3, (lo, lo + 0.5, lo + 0.9))
        m = nystrom(spec, rule).matrix
        x, sw = rule.nodes, np.sqrt(rule.weights)
        for i, j in np.ndindex(m.shape):
            want = sw[i] * kernel_eval(spec, x[i], x[j]) * sw[j]
            assert abs(m[i, j] - want) <= 1e-15 * abs(want), (i, j)

    def test_permutation_invariance(self):
        spec = KernelSpec(KernelFamily.KEPS_N, beta=0.3, n=1, eps=0.05)
        op = nystrom(spec, gauss_rule(8, geometric_ends(spec.eps, 1.0, 10, 26)))
        rng = np.random.default_rng(1)
        perm = rng.permutation(op.matrix.shape[0])
        m = op.matrix[np.ix_(perm, perm)]
        a = fredholm_logdet(op, -1)
        b = logdet(np.eye(len(perm), dtype=m.dtype) - m)
        assert abs(a.log - b.log) < 1e-12


class TestDenseCap:
    @pytest.mark.parametrize("beta, itemsize", [(0.3, 8), (0.3 + 0.1j, 16)])
    def test_nystrom_over_cap_raises_before_assembly(self, beta, itemsize, monkeypatch):
        # the smallest order whose x + y and kernel (2 N^2 entries) pass the
        # cap; the rule itself is O(N)
        N = math.isqrt(_MAX_DENSE_BYTES // (2 * itemsize)) + 1
        check_dense("nystrom", N - 1, itemsize, 2)
        rule = gauss_rule(2, np.linspace(0.0, 1.0, -(-N // 2) + 1))
        assert N <= len(rule) <= N + 1

        def unreachable(*args, **kwargs):
            raise AssertionError("an allocation over the dense cap was reached")

        monkeypatch.setattr("whdet.fredholm.kernel_eval", unreachable)
        with pytest.raises(DomainError, match="nystrom of order"):
            nystrom(KernelSpec(KernelFamily.K0, beta=beta), rule)


class TestFredholmLogdet:
    @pytest.mark.parametrize("beta", [0.3, 0.3 + 0.2j])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_matrix_is_identity_plus_operator(self, beta, sign, monkeypatch):
        # I +- K formed in place equals np.eye(N) +- K bit for bit
        op = nystrom(KernelSpec(KernelFamily.KEPS_N, beta=beta, n=2, eps=1e-2))
        m = op.matrix
        kept = m.copy()
        want = np.eye(m.shape[0], dtype=m.dtype) + sign * m
        seen = []
        monkeypatch.setattr(whdet.fredholm, "logdet", lambda a: seen.append(a.copy()) or logdet(a))
        got = fredholm_logdet(op, sign)
        assert seen[0].dtype == want.dtype and seen[0].tobytes() == want.tobytes()
        assert got == logdet(want)
        assert m.tobytes() == kept.tobytes()

    def test_zero_operator(self):
        rule = gauss_rule(8, (0.0, 1.0))
        op = NystromOp(rule, np.zeros((8, 8)))
        assert fredholm_logdet(op, +1).ln_abs == 0.0

    def test_rank_one_analytic(self):
        # k(x,y) = f(x) f(y) with f(x) = x: det(I + K) = 1 + int f^2 = 4/3
        rule = gauss_rule(24, (0.0, 1.0))
        f = rule.nodes
        sw = np.sqrt(rule.weights)
        m = (sw * f)[:, None] * (sw * f)[None, :]
        ld = fredholm_logdet(NystromOp(rule, m), +1)
        assert abs(np.exp(ld.log) - 4.0 / 3.0) < 1e-10

    def test_k0_half_minus_selfconvergence(self):
        # det(I - K0_{1/2}) restricted to [eps, 1]: finite, positive,
        # node-doubling stable (on all of [0,1] it diverges with the
        # cutoff, matching the operator not being trace class there)
        spec = KernelSpec(KernelFamily.K0, beta=0.5)
        rules = [gauss_rule(n, geometric_ends(1e-3, 1.0, 24, 10))
                 for n in (16, 32)]
        v1 = fredholm_logdet(nystrom(spec, rules[0]), -1)
        v2 = fredholm_logdet(nystrom(spec, rules[1]), -1)
        assert v1.ln_abs > 0.0 and abs(v1.arg) < 1e-12
        assert abs(v1.log - v2.log) < 1e-8

    def test_cauchy_kernel_spectrum_in_unit_interval(self):
        # the 1/(pi(x+y)) kernel on [0,1]: spectrum inside [0, 1]
        rule = gauss_rule(16, geometric_ends(0.0, 1.0, 12, 0))
        x = rule.nodes
        sw = np.sqrt(rule.weights)
        m = sw[:, None] * (1.0 / (np.pi * np.add.outer(x, x))) * sw[None, :]
        assert m.shape[0] <= 400
        eig = np.linalg.eigvalsh(0.5 * (m + m.T))
        assert eig.min() > -1e-8 and eig.max() < 1.0 + 1e-8


class TestQuotientIdentity:
    def test_zero_matrix(self):
        lhs, rhs = quotient_identity(np.zeros((5, 5)), 2)
        assert lhs.ln_abs == 0.0 and rhs.ln_abs == 0.0

    def test_hundred_seeded_matrices(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            a *= 0.4 / np.linalg.norm(a, 2)
            lhs, rhs = quotient_identity(a, 3)
            worst = max(worst, abs(lhs.log - rhs.log))
        assert worst < 1e-11

    def test_full_block_is_reciprocal(self):
        rng = np.random.default_rng(5)
        a = 0.1 * rng.standard_normal((6, 6))
        lhs, rhs = quotient_identity(a, 6)
        full = logdet(np.eye(6) + a)
        assert abs(lhs.log + full.log) < 1e-12
        assert abs(rhs.log + full.log) < 1e-12


class TestFiniteSectionQuotient:
    def test_beta_zero(self):
        ld = finite_section_quotient(0.0, +1, n=3, eps=1e-3)
        assert abs(ld.ln_abs) < 1e-12

    def test_discrete_route_cross_check(self):
        # same projection determinant through the infinite-Hankel section
        got = finite_section_quotient(0.2, -1, n=4, eps=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = hankel_section_inverse_det(-0.2, 4, -1)
        assert rel_exp_diff(got, want.value) < 1e-3

    def test_continuous_route_eps_trend(self):
        # the eps -> 0 drift shrinks (measured ~eps^0.6 here; the change
        # from 1e-4 to 1e-5 is ~4e-3)
        vals = [finite_section_quotient(0.2, +1, R=8.0, eps=e).ln_abs
                for e in (1e-3, 1e-4, 1e-5)]
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert d2 < d1
        assert d2 < 2e-2

    def test_requires_exactly_one_scale(self):
        with pytest.raises(DomainError):
            finite_section_quotient(0.2, +1, n=3, R=4.0)
        with pytest.raises(DomainError):
            finite_section_quotient(0.2, +1)
