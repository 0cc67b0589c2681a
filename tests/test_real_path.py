"""Real beta, real arithmetic: every dense route factors a real matrix for a
real beta (d_n runs its recurrence on real moments instead), and agrees
with the complex route forced by a 1e-200 imaginary part (to 1e-12, or as
well as the problem's conditioning allows).

Betas are drawn over each route's open strip, read from the one table in
``whdet.params``.  Determinants are compared with ``rel_exp_diff``: a real
LU accumulates its argument as pi per negative pivot and row swap, so the
two routes' raw ``.log`` may differ by a multiple of 2 pi.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whdet import (
    BetaContext,
    KernelFamily,
    KernelSpec,
    LineKind,
    LineSymbol,
    TruncatedWH,
    d_n,
    d_n_exact,
    default_rule,
    det_w2r,
    det_wr_pm_hr,
    factor_product_logdet,
    fredholm_det_hankel_reg,
    fredholm_logdet,
    hankel_section_inverse_det,
    nystrom,
    reflected_union_rule,
    rel_exp_diff,
    wh_rule,
)
from whdet import expsum, fredholm, structured
from whdet.logdet import logdet
from whdet.params import EXCLUSION_TOL, _STRIPS

#: how far into an unbounded strip (MATRIX: Re b > -1/2) betas are drawn
_UNBOUNDED_WIDTH = 3.0

_RULE = wh_rule(3.0, panels=6, nodes=8)


def _vhat(b):
    return LineSymbol(LineKind.VHAT_EPS, beta=b, eps=0.1)


def _uhat(b):
    return LineSymbol(LineKind.UHAT_EPS, beta=b, eps=0.1)


def _keps(b):
    spec = KernelSpec(KernelFamily.KEPS_N, beta=b, n=2, eps=0.1)
    return nystrom(spec, default_rule(spec, nodes=8))


#: route -> (the strip its beta is drawn from, the determinant at small size)
ROUTES = {
    "d_n+": (BetaContext.MATRIX, lambda b: d_n(b, 6, +1)),
    "d_n-": (BetaContext.MATRIX, lambda b: d_n(b, 6, -1)),
    "det_wr_pm_hr(vhat)+": (BetaContext.KERNEL_FAMILY,
                            lambda b: det_wr_pm_hr(TruncatedWH(_vhat(b), 3.0, _RULE, +1))),
    "det_wr_pm_hr(vhat)-": (BetaContext.KERNEL_FAMILY,
                            lambda b: det_wr_pm_hr(TruncatedWH(_vhat(b), 3.0, _RULE, -1))),
    "det_wr_pm_hr(uhat)+": (BetaContext.KERNEL_FAMILY,
                            lambda b: det_wr_pm_hr(TruncatedWH(_uhat(b), 3.0, _RULE, +1))),
    "det_w2r(vhat)": (BetaContext.KERNEL_FAMILY,
                      lambda b: det_w2r(_vhat(b), 6.0, reflected_union_rule(_RULE))),
    "det_w2r(sech)": (BetaContext.SECH,
                      lambda b: det_w2r(LineSymbol(LineKind.PHI, beta=b), 6.0,
                                        reflected_union_rule(_RULE))),
    "factor_product_logdet": (BetaContext.KERNEL_FAMILY,
                              lambda b: factor_product_logdet(b, 0.1, 3.0, rule=_RULE)),
    "fredholm_logdet+": (BetaContext.KERNEL_FAMILY, lambda b: fredholm_logdet(_keps(b), +1)),
    "fredholm_logdet-": (BetaContext.KERNEL_FAMILY, lambda b: fredholm_logdet(_keps(b), -1)),
    "fredholm_det_hankel_reg": (BetaContext.KERNEL_FAMILY,
                                lambda b: fredholm_det_hankel_reg(b, 0.6, +1)),
    "hankel_section_inverse_det": (
        BetaContext.SECH, lambda b: hankel_section_inverse_det(b, 2, -1, N=16, tol=np.inf).coarse),
}
#: distance from the strip edge of the 1e-12 agreement draws.  As b -> -1/2,
#: T_n + H_n(v_b) nears rank one (c_0 ~ 1/(1+2b)).  The two routes' coefficients
#: share their real parts, but real and complex arithmetic round differently,
#: and the conditioning turns that into 1.1e-9 at 1+2b = 3.6e-7 (n = 6).
#: test_d_n_near_matrix_edge covers that end instead.
EDGE_MARGIN = {"d_n+": 5e-3, "d_n-": 5e-3}

#: a fraction of the way across a strip, open at both ends
FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _in_strip(context, u, margin=0.0):
    lo, hi = _STRIPS[context]
    lo, hi = lo + margin, min(hi, lo + _UNBOUNDED_WIDTH) - margin
    b = lo + u * (hi - lo)
    if not lo + EXCLUSION_TOL < b < hi - EXCLUSION_TOL:  # u too near 0 or 1
        b = 0.5 * (lo + hi)
    return b


def _record_dtypes(mp, seen):
    def recorder(factor):
        def recording(matrix):
            seen.append(np.asarray(matrix).dtype)
            return factor(matrix)
        return recording

    for module in (fredholm, expsum):
        mp.setattr(module, "logdet", recorder(logdet))
    # the Wiener-Hopf routes factor one panel at a time, by the LAPACK gesv
    # that expsum_logdet fetches for its state's dtype
    get_lapack_funcs = expsum.get_lapack_funcs

    def recording_gesv(gesv):
        def recording(a, *args, **kwargs):
            seen.append(np.asarray(a).dtype)
            return gesv(a, *args, **kwargs)
        return recording

    def recording_lapack(names, arrays):
        funcs = get_lapack_funcs(names, arrays)
        return tuple(recording_gesv(fn) if name == "gesv" else fn
                     for name, fn in zip(names, funcs))

    mp.setattr(expsum, "get_lapack_funcs", recording_lapack)
    # d_n factors no matrix: its moments and its sigma pivots (the sigma
    # rows take the moments' dtype)
    gram_pivots = structured._gram_pivots

    def recording_pivots(moments, sign):
        pivots = gram_pivots(moments, sign)
        seen.extend((moments.dtype, pivots.dtype))
        return pivots

    mp.setattr(structured, "_gram_pivots", recording_pivots)


@pytest.mark.parametrize("name", sorted(ROUTES))
@PROPERTY
@given(u=FRACTION)
def test_real_beta_factors_real_matrix(name, u):
    context, route = ROUTES[name]
    b = _in_strip(context, u)
    for beta, want in ((b, np.float64), (complex(b, 1e-200), np.complex128)):
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            _record_dtypes(mp, seen)
            route(beta)
        assert seen and all(dtype == want for dtype in seen), (beta, seen)


@pytest.mark.parametrize("name", sorted(ROUTES))
@PROPERTY
@given(u=FRACTION)
def test_real_route_matches_forced_complex_route(name, u):
    context, route = ROUTES[name]
    b = _in_strip(context, u, EDGE_MARGIN.get(name, 0.0))
    assert rel_exp_diff(route(b), route(complex(b, 1e-200))) <= 1e-12


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("gap", [6e-8, 1e-6, 1e-4])
def test_d_n_near_matrix_edge(sign, gap):
    # both routes lose digits to the conditioning alike; the real one keeps
    # the sign of the real determinant exactly
    b = -0.5 + gap
    exact = d_n_exact(b, 6, sign)
    real, cplx = d_n(b, 6, sign), d_n(complex(b, 1e-200), 6, sign)
    assert rel_exp_diff(real, exact) <= 2.0 * rel_exp_diff(cplx, exact) + 1e-12
    assert math.remainder(real.arg, math.pi) == 0.0
