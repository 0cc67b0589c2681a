#!/usr/bin/env python3
"""Truncated Wiener-Hopf +- Hankel operators for the regularized zero/pole
symbol on the line, and the exact doubling identity.

det W_{2R}(a) = det(W_R + H_R) det(W_R - H_R) holds for even symbols; with
the [0, 2R] nodes chosen as the union of the [0, R] nodes and their
reflections, the discretized identity is exact to rounding.
"""

import numpy as np

from whdet import (
    AsymKind, AsymptoteSpec, LineKind, LineSymbol, RefinedLogDet, TruncatedWH,
    asymptote_log, det_w2r, det_wr_pm_hr, reflected_union_rule, wh_rule,
)

beta, eps = 0.3, 1e-4
sym = LineSymbol(LineKind.VHAT_EPS, beta=beta, eps=eps)

print("doubling identity (matched quadrature):")
rule = wh_rule(10.0)
ldp = det_wr_pm_hr(TruncatedWH(sym, 10.0, rule, +1))
ldm = det_wr_pm_hr(TruncatedWH(sym, 10.0, rule, -1))
ld2 = det_w2r(sym, 20.0, reflected_union_rule(rule))
print(f"  log det W_2R          = {ld2.ln_abs:+.12f}")
print(f"  log det(W+H)(W-H) sum = {(ldp + ldm).ln_abs:+.12f}")
print(f"  residual              = {abs(ld2.log - (ldp + ldm).log):.2e}")

print("\nlarge-R behavior vs the zero/pole asymptotics")
print("(one Richardson step in h, panels p = 2R and 2p, for the O(h^2) kink):")
spec = AsymptoteSpec(AsymKind.CONTINUOUS_PLUS, beta)
for R in (20.0, 40.0, 60.0):
    p = len(wh_rule(R)) // 16  # wh_rule's default: 16 nodes per panel
    ld_p, ld_2p = (det_wr_pm_hr(TruncatedWH(sym, R, wh_rule(R, panels=q), +1))
                   for q in (p, 2 * p))
    ld = RefinedLogDet(ld_p, ld_2p, ratio=2, exponent=2).value.log
    a = asymptote_log(spec, R)
    print(f"  R={R:>4.0f}: logdet {ld.real:+10.4f}, asymptote {a.real:+10.4f}, "
          f"|ratio-1| = {abs(np.exp(ld - a) - 1):.3e}")
