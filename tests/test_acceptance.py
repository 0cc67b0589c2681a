"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line per criterion (run with `pytest -s` to see them inline).

Criterion 8 compares the regularized determinants det(W_R +- H_R) at
eps = 1e-4 with the paper's asymptote for the unregularized symbol, which
they follow while eps*R << 1 (R <= 60 here).  The deviations decrease
strictly, near 1.5e-3 > 6.8e-4 > 3.3e-4 for beta = +0.3 and
1.6e-3 > 7.9e-4 > 5.1e-4 for beta = -0.3.
"""

import math
import warnings

import numpy as np
import pytest

import whdet
from whdet import (
    AsymKind,
    AsymptoteSpec,
    CircleKind,
    CircleSymbol,
    KernelFamily,
    KernelSpec,
    LineKind,
    LineSymbol,
    TruncatedWH,
    asymptote_log,
    barnes_ratio_asymptote,
    convergence_table,
    d_n,
    d_n_exact,
    det_tn_exact,
    det_w2r,
    det_wr_pm_hr,
    duplication_residual,
    fourier_coeff_v,
    fredholm_det_hankel_reg,
    fredholm_logdet,
    hankel,
    ln_akhiezer_kac_E,
    ln_barnes_g,
    ln_det_hankel_reg_exact,
    ln_gamma,
    logdet,
    nystrom,
    quotient_identity,
    reflected_union_rule,
    reg_coeff_table,
    rel_exp_diff,
    toeplitz,
    wh_rule,
)

from _specfun_reference import REFERENCE

BETA_GRID = [0.1, -0.1, 0.25, -0.25, 0.4, -0.4, 0.2 + 0.3j, -0.3 + 0.2j]


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


def test_criterion_01_exact_closed_forms():
    worst_d, worst_t = 0.0, 0.0
    for b in BETA_GRID:
        for n in range(1, 33):
            for sign in (+1, -1):
                worst_d = max(worst_d, rel_exp_diff(d_n(b, n, sign),
                                                    d_n_exact(b, n, sign)))
            tn = logdet(toeplitz(lambda k: fourier_coeff_v(b, k), n))
            worst_t = max(worst_t, rel_exp_diff(tn, det_tn_exact(b, n)))
    ok = worst_d <= 1e-8 and worst_t <= 1e-9
    assert report(1, "exact closed forms", ok,
                  f"d_n {worst_d:.2e} (tol 1e-8), detT_n {worst_t:.2e} (tol 1e-9)")


def test_criterion_02_block_identities():
    worst_t = 0.0
    for b in (0.1, -0.1, 0.3, -0.44, 0.2 + 0.3j, -0.3 + 0.2j):
        for n in range(1, 25):
            t2n = logdet(toeplitz(lambda k: fourier_coeff_v(b, k), 2 * n))
            worst_t = max(worst_t, rel_exp_diff(t2n, d_n(b, n, +1) + d_n(b, n, -1)))
    sym = LineSymbol(LineKind.VHAT_EPS, beta=0.3, eps=1e-3)
    rule = wh_rule(10.0)
    ldp = det_wr_pm_hr(TruncatedWH(sym, 10.0, rule, +1))
    ldm = det_wr_pm_hr(TruncatedWH(sym, 10.0, rule, -1))
    ld2 = det_w2r(sym, 20.0, reflected_union_rule(rule))
    wh_res = rel_exp_diff(ld2, ldp + ldm)
    ok = worst_t <= 1e-9 and wh_res <= 1e-6
    assert report(2, "block identities", ok,
                  f"Toeplitz {worst_t:.2e} (tol 1e-9), WH doubling {wh_res:.2e} (tol 1e-6)")


def test_criterion_03_quotient_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a *= 0.4 / np.linalg.norm(a, 2)
        lhs, rhs = quotient_identity(a, 3)
        worst = max(worst, abs(lhs.log - rhs.log))
    ok = worst <= 1e-11
    assert report(3, "projection-quotient identity", ok, f"worst {worst:.2e} (tol 1e-11)")


def test_criterion_04_kernel_family_equality():
    worst = 0.0
    coeff_cache = {}
    for eps in (1e-2, 1e-3):
        r = (1 - eps) / (1 + eps)
        M = max(256, int(math.ceil(14.0 / -math.log(r))))
        for b in (0.2, -0.2):
            key = (b, eps)
            if key not in coeff_cache:
                sym = CircleSymbol(CircleKind.UBETA_R, beta=b, r=r)
                coeff_cache[key] = reg_coeff_table(sym, 2 * M + 20)[2 * M + 20:].real
            co = coeff_cache[key]
            for n in (2, 4, 8):
                H = hankel(lambda k: co[k + 2 * n], M)  # co[j + k + 2n + 1]
                spec = KernelSpec(KernelFamily.KEPS_N, beta=b, n=n, eps=eps)
                op = nystrom(spec)
                for sign in (+1, -1):
                    hd = logdet(np.eye(M) + sign * H)
                    nys = fredholm_logdet(op, sign)
                    worst = max(worst, abs(np.exp(nys.log - hd.log) - 1.0))
    ok = worst <= 1e-6
    assert report(4, "kernel family vs shifted section", ok, f"worst {worst:.2e} (tol 1e-6)")


def test_criterion_05_regularized_hankel_closed_form():
    worst = 0.0
    for b in (0.3, -0.3):
        for r in (0.5, 0.8, 0.95):
            for sign in (+1, -1):
                got = fredholm_det_hankel_reg(b, r, sign)
                want = ln_det_hankel_reg_exact(b, r, sign)
                worst = max(worst, abs(np.exp(got.log - want) - 1.0))
    ok = worst <= 1e-8
    assert report(5, "regularized Hankel closed form", ok, f"worst {worst:.2e} (tol 1e-8)")


def test_criterion_06_discrete_trend():
    ok = True
    details = []
    for sign, kind in ((+1, AsymKind.DISCRETE_PLUS), (-1, AsymKind.DISCRETE_MINUS)):
        spec = AsymptoteSpec(kind, 0.25)
        values = [(float(n), d_n(0.25, n, sign)) for n in (64, 128, 256, 512)]
        devs = convergence_table(values, spec).deviations
        decreasing = all(a > b for a, b in zip(devs[:-1], devs[1:]))
        ok = ok and decreasing and devs[-1] <= 0.05
        details.append(f"sign {sign:+d}: last {devs[-1]:.2e}")
    assert report(6, "discrete asymptotic trend", ok, "; ".join(details))


def test_criterion_07_sech_lemma():
    sym = LineSymbol(LineKind.PHI, beta=0.3)
    spec = AsymptoteSpec(AsymKind.SECH, 0.3)
    devs = []
    for s in (10.0, 20.0, 30.0):
        rule = wh_rule(s)
        assert len(rule) >= 300
        ld = det_w2r(sym, s, rule)
        devs.append(abs(ld.log - asymptote_log(spec, s)))
    ok = devs[0] > devs[1] > devs[2] and devs[2] <= 0.02
    assert report(7, "sech-symbol truncation", ok,
                  f"devs {devs[0]:.2e} > {devs[1]:.2e} > {devs[2]:.2e}, last tol 0.02")


def test_criterion_08_continuous_trend():
    eps = 1e-4
    all_ok = True
    details = []
    for b, sign, kind in ((0.3, +1, AsymKind.CONTINUOUS_PLUS),
                          (-0.3, -1, AsymKind.CONTINUOUS_MINUS)):
        sym = LineSymbol(LineKind.VHAT_EPS, beta=b, eps=eps)
        spec = AsymptoteSpec(kind, b)
        devs = []
        for R in (20.0, 40.0, 60.0):
            lds = []
            for panels in (int(2 * R), int(4 * R)):
                rule = wh_rule(R, panels=panels)
                lds.append(det_wr_pm_hr(TruncatedWH(sym, R, rule, sign)))
            ln = lds[1].log + (lds[1].log - lds[0].log) / 3.0
            devs.append(abs(np.exp(ln - asymptote_log(spec, R)) - 1.0))
        decreasing = devs[0] > devs[1] > devs[2]
        bound = devs[2] <= 0.05
        all_ok = all_ok and decreasing and bound
        details.append(
            f"beta {b:+.1f}: devs {devs[0]:.3e}, {devs[1]:.3e}, {devs[2]:.3e} "
            f"(decreasing: {decreasing}, <=0.05: {bound})")
    report(8, "continuous asymptotic trend", all_ok, "; ".join(details))
    assert all_ok, (
        "deviations from the paper's asymptote must decrease strictly over "
        "R = 20, 40, 60 and be <= 0.05 at R = 60: " + "; ".join(details))


def test_criterion_09_duplication_and_ratio():
    worst = max(duplication_residual(z)
                for z in (0.4, 0.9, 1.0, 1.7, 0.6 + 0.4j, 0.3 + 0.2j, 1.1 - 0.3j))
    dupl1 = 0.0
    for b in (0.25, -0.3, 0.2 + 0.3j):
        lhs = (ln_barnes_g(0.5 + b) + 2 * ln_barnes_g(1 + b)
               + ln_barnes_g(1.5 + b) - ln_barnes_g(1 + 2 * b))
        rhs = (b * math.log(2 * math.pi) - 2 * b * b * math.log(2)
               + ln_barnes_g(0.5) + ln_barnes_g(1.5))
        dupl1 = max(dupl1, abs(np.exp(lhs - rhs) - 1.0))
    xs, ys = [0.3 + 0.2j, -0.1], [0.1, 0.1 + 0.2j]
    n = 10**4
    ln = (sum(ln_barnes_g(1 + x + n) for x in xs)
          - sum(ln_barnes_g(1 + y + n) for y in ys))
    ratio_gap = abs(np.exp(ln) / barnes_ratio_asymptote(xs, ys, n) - 1.0)
    ok = worst <= 1e-9 and dupl1 <= 1e-9 and ratio_gap <= 5e-3
    assert report(9, "duplication and ratio asymptotics", ok,
                  f"dupl {worst:.2e} (tol 1e-9), ratio gap {ratio_gap:.2e} (tol 5e-3)")


def test_criterion_10_special_functions():
    worst = 0.0
    for (re, im), (lg, lb) in REFERENCE.items():
        z = complex(re, im)
        # relative away from zero; absolute at the exact zeros of the grid
        for got, ref in ((ln_gamma(z), lg), (ln_barnes_g(z), lb)):
            denom = abs(ref) if abs(ref) > 1e-3 else 1.0
            worst = max(worst, abs(got - ref) / denom)
    rng = np.random.default_rng(7)
    rec, count = 0.0, 0
    while count < 100:
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if abs(z) > 8 or (abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05):
            continue
        rec = max(rec, abs(ln_barnes_g(z + 1) - ln_gamma(z) - ln_barnes_g(z)))
        count += 1
    ok = worst <= 1e-12 and rec <= 1e-10
    assert report(10, "special functions vs frozen oracles", ok,
                  f"oracle {worst:.2e} (tol 1e-12), recursion {rec:.2e} (tol 1e-10)")
