#!/usr/bin/env python3
"""The sech-symbol laboratory.

The symbol phi_b(x) = 1 - sin(pi b) sech(pi x) has an entire convolution
kernel, so its truncated determinants converge spectrally and expose the
Akhiezer-Kac structure det W_s(phi_b) ~ G^s E cleanly: G = e^{-b/2-b^2/2}
and E is an explicit Barnes-G product.  The same operator is the Cauchy
kernel 1/(pi(x+y)) on [e^{-s}, 1] in logarithmic coordinates, which ties
it to the kernel family of the projection quotients.
"""

import numpy as np

from whdet import (
    KernelFamily, KernelSpec, LineKind, LineSymbol, akhiezer_kac_E, det_w2r,
    fredholm_logdet, gauss_rule, geometric_ends, ln_akhiezer_kac_E, nystrom, wh_rule,
)

beta = 0.3
sym = LineSymbol(LineKind.PHI, beta=beta)
lnE = ln_akhiezer_kac_E(beta).real
print(f"E[phi] constant at beta={beta}: {akhiezer_kac_E(beta):.12f}")

print(f"\n{'s':>5} {'logdet W_s':>14} {'G^s E prediction':>18} {'gap':>12}")
for s in (5.0, 10.0, 20.0, 30.0):
    ld = det_w2r(sym, s, wh_rule(s))
    asym = -s * (beta / 2 + beta**2 / 2) + lnE
    print(f"{s:>5.0f} {ld.ln_abs:>14.8f} {asym:>18.8f} {abs(ld.ln_abs - asym):>12.3e}")

print("\nsame determinant through the Cauchy kernel on [e^{-s}, 1]:")
s = 10.0
epsc = float(np.exp(-s))
spec = KernelSpec(KernelFamily.K0, beta=beta)  # kernel -sin(pi b)/(pi(x+y))
rule = gauss_rule(16, geometric_ends(epsc, 1.0, 30, 10))
ld_k = fredholm_logdet(nystrom(spec, rule), +1)
ld_w = det_w2r(sym, s, wh_rule(s))
print(f"  Cauchy-kernel route: {ld_k.ln_abs:+.10f}")
print(f"  sech-symbol route:   {ld_w.ln_abs:+.10f}")
print(f"  gap: {abs(ld_k.ln_abs - ld_w.ln_abs):.2e}")
