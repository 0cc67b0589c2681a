#!/usr/bin/env python3
"""How fast the Toeplitz+-Hankel determinants approach their asymptotics.

D_n^+ ~ n^{b^2/2 - b/2} (2pi)^{b/2} 2^{-b^2/2} G(1/2)/G(1/2+b) and the
minus-sign analogue: the convergence table reports the deviation
|ratio - 1| per n and the fitted decay exponent.
"""

from whdet import AsymKind, AsymptoteSpec, convergence_table, d_n_minors

beta = 0.25
for sign, kind in ((+1, AsymKind.DISCRETE_PLUS), (-1, AsymKind.DISCRETE_MINUS)):
    spec = AsymptoteSpec(kind, beta)
    minors = d_n_minors(beta, 512, sign)  # D_1 .. D_512 from one pass
    values = [(float(n), minors[n - 1]) for n in (16, 32, 64, 128, 256, 512)]
    table = convergence_table(values, spec)
    print(f"\nsign {sign:+d} (beta = {beta}):")
    print(f"{'n':>6} {'deviation':>12} {'local exponent':>16}")
    for row in table.rows:
        expo = f"{row.local_exponent:.2f}" if row.local_exponent else "-"
        print(f"{int(row.scale):>6} {row.deviation:>12.3e} {expo:>16}")
    print(f"fitted decay exponent (last 3): {table.fitted_exponent:.2f}")
