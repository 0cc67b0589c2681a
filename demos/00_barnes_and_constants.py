#!/usr/bin/env python3
"""The special-function layer: Barnes G, its identities, and the closed
constants every asymptotic formula is built from."""

import numpy as np

from whdet import (
    akhiezer_kac_E, barnes_ratio_asymptote, c_beta, duplication_residual,
    ln_barnes_g, ln_barnes_ratio, ln_c_beta, ln_akhiezer_kac_E,
)

print("Barnes G at small integers: G(1)=G(2)=G(3)=1, G(4)=2")
for z in (1.0, 2.0, 3.0, 4.0):
    print(f"  G({z:.0f}) = {np.exp(ln_barnes_g(z)):.15f}")

print("\nduplication identity residual |ln lhs - ln rhs|:")
for z in (0.5, 1.0, 2.3, 0.3 + 0.2j):
    print(f"  z={z}: {duplication_residual(z):.2e}")

print("\nratio asymptotics: prod G(1+x+n)/G(1+y+n) vs n^(omega/2)")
xs, ys = [0.5, 0.25], [0.75, 0.0]
for n in (10**2, 10**3, 10**4):
    gap = abs(np.exp(ln_barnes_ratio(xs, ys, n)) / barnes_ratio_asymptote(xs, ys, n) - 1.0)
    print(f"  n={n:>6}: relative gap {gap:.3e}")

print("\nclosing constants (the Barnes blocks cancel: C * E = 2^(b^2)):")
for b in (0.1, 0.2, 0.3, -0.3):
    E = akhiezer_kac_E(b)
    C = c_beta(b)
    resid = abs((ln_c_beta(b) + ln_akhiezer_kac_E(b)) - b * b * np.log(2))
    print(f"  b={b:+.1f}: E={E.real:.10f}  C={C.real:.10f}  "
          f"|ln C + ln E - b^2 ln 2| = {resid:.1e}")
