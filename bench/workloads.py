"""The four workloads of the whdet benchmark, and the checks that gate them.

Every pass computes determinants through the library's public API and
compares each with an independent route (a Barnes-G closed form, the
doubling identity, or a Nystrom quotient).  Library functions are always
looked up as ``whdet.<name>`` at call time, so the tracer can wrap them
after this module is imported.

Why these four: each ROADMAP layer does most of its work in one workload
and almost none in another, so a change to that layer has a workload that
should move and one that should not.

- toeplitz: full-rank dense LU, the T+H gather and fourier_coeff_v; no
  branch-cut kernel and no regularized coefficients.
- wiener_hopf: the 792-term branch-cut kernel assembly and complex LU; the
  sech symbol runs the same determinants through a closed-form kernel.
- hankel_sections: regularized coefficient tables, Hankel sections of low
  numerical rank, Nystrom discretization and section solves.
- closed_forms: many small Barnes-G evaluations and nothing else.
"""

from __future__ import annotations

import functools
import math
import random
import sys
import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

import whdet

WORKLOADS = ("toeplitz", "wiener_hopf", "hankel_sections", "closed_forms")

#: Problem sizes the benchmark measures.
SIZES = {
    "toeplitz": {"n": (256, 512, 1024, 2048)},
    "wiener_hopf": {"R": (10.0, 20.0, 40.0), "eps": 1e-4},
    "hankel_sections": {
        "eps": (1e-2, 3e-3), "kernel_n": 4, "r": (0.9, 0.99),
        "section_n": 4, "section_N": 1024,
    },
    "closed_forms": {"betas": 20, "n_max": 200},
}
#: Sizes of the warm-up pass: every code path of the workload in well under
#: a second, so lazy imports and first calls are paid before timing starts.
WARMUP_SIZES = {
    "toeplitz": {"n": (16, 32)},
    "wiener_hopf": {"R": (4.0,), "eps": 1e-4},
    "hankel_sections": {
        "eps": (5e-2,), "kernel_n": 2, "r": (0.9,),
        "section_n": 2, "section_N": 256,
    },
    "closed_forms": {"betas": 3, "n_max": 10},
}

#: Check tolerances, one per identity, as in the acceptance suite.
TOL_TOEPLITZ = 1e-6       # dense LU vs the Barnes-G closed form
TOL_DOUBLING_WH = 1e-6    # det W_2R = det(W_R + H_R) det(W_R - H_R)
TOL_KERNEL_FAMILY = 1e-6  # Nystrom K_{b,eps,n} vs the shifted Hankel section
TOL_HANKEL_REG = 1e-8     # det(I +- H(u_{b,r})) vs its closed form
TOL_SECTION = 1e-3        # Richardson-refined inverse section vs d_n
TOL_CLOSED = 1e-8         # D_n^+ D_n^- = det T_2n, all in closed form
TOL_DUPLICATION = 1e-9    # Barnes G duplication identity
TOL_CONSTANTS = 1e-10     # C_b E[phi_b] = 2^{b^2}

#: residuals are clamped to [unit roundoff, 1] for err_digits: exact
#: agreement reads as 15.95 digits, and a residual of 1 or more, or NaN, as 0
UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class Inputs:
    """A workload's inputs: betas drawn from the seed, sizes fixed."""

    workload: str
    betas: tuple
    sizes: dict


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def make_inputs(workload: str, seed: int, table: dict | None = None) -> Inputs:
    """Draw the workload's betas from the seed, inside each route's strip.

    Sizes come from ``table``, by default SIZES.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sizes = (SIZES if table is None else table)[workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "toeplitz":
        # matrix route needs Re b > -1/2; one real, one complex
        betas = (rng.uniform(-0.4, 0.45),
                 complex(rng.uniform(-0.3, 0.4), _signed(rng, 0.05, 0.3)))
    elif workload == "wiener_hopf":
        # (vhat_{b,eps} beta, sech beta); real, as in the continuous asymptotics
        betas = (_signed(rng, 0.1, 0.45), _signed(rng, 0.1, 0.45))
    elif workload == "hankel_sections":
        # the kernel family needs |Re b| < 1, the section-inverse pairing < 1/2
        betas = (_signed(rng, 0.1, 0.4),)
    else:
        betas = tuple(complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.5, 0.5))
                      for _ in range(sizes["betas"]))
    return Inputs(workload, betas, sizes)


def worse(a: float, b: float) -> float:
    """The worse of two residuals; NaN if either is NaN (``max`` can drop one)."""
    if math.isnan(a) or a >= b:
        return a
    return b


class Checks:
    """Counts the checks of a run, keeps the worst residual, records warnings.

    A check fails when it raises or its residual is not within the
    tolerance (a NaN residual fails); failures and warnings are printed to
    stderr, never silenced.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.warnings = Counter()
        self.seconds = defaultdict(list)   # check label -> wall time per timed pass
        self.timing = True                 # off for warm-up and traced passes
        self.between = None                # called before each check, untimed

    def check(self, label: str, tol: float, residual) -> None:
        """Run ``residual()`` (a no-argument callable) as one check."""
        if self.between is not None:
            self.between()
        self.attempted += 1
        value = None
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = float(residual())
            except Exception as exc:
                print(f"FAILED {label}: raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
        if self.timing:
            self.seconds[label].append(time.perf_counter() - start)
        for w in caught:
            self.warnings[w.category.__name__] += 1
            print(f"warning in {label}: {w.category.__name__}: {w.message}",
                  file=sys.stderr)
        if value is None:
            self.failed += 1
            return
        if not value <= tol:
            self.failed += 1
            print(f"FAILED {label}: residual {value:.3e} above tolerance {tol:g}",
                  file=sys.stderr)
        self.worst = worse(self.worst, value)

    def err_digits(self) -> float:
        """-log10 of the worst residual, clamped to [UNIT_ROUNDOFF, 1]."""
        worst = self.worst if self.worst <= 1.0 else 1.0
        return -math.log10(max(worst, UNIT_ROUNDOFF))

    def pass_share(self) -> float:
        return 1.0 - self.failed / self.attempted


def run_toeplitz(inp: Inputs, checks: Checks) -> None:
    for b in inp.betas:
        for n in inp.sizes["n"]:
            for sign in (+1, -1):
                checks.check(
                    f"d_n b={b:.4g} n={n} sign={sign:+d}", TOL_TOEPLITZ,
                    lambda: whdet.rel_exp_diff(whdet.d_n(b, n, sign),
                                               whdet.d_n_exact(b, n, sign)))


def run_wiener_hopf(inp: Inputs, checks: Checks) -> None:
    b_vhat, b_phi = inp.betas
    symbols = (
        whdet.LineSymbol(whdet.LineKind.VHAT_EPS, beta=b_vhat, eps=inp.sizes["eps"]),
        whdet.LineSymbol(whdet.LineKind.PHI, beta=b_phi),
    )

    def doubling(sym, R):
        rule = whdet.wh_rule(R)
        plus = whdet.det_wr_pm_hr(whdet.TruncatedWH(sym, R, rule, +1))
        minus = whdet.det_wr_pm_hr(whdet.TruncatedWH(sym, R, rule, -1))
        full = whdet.det_w2r(sym, 2.0 * R, whdet.reflected_union_rule(rule))
        return whdet.rel_exp_diff(full, plus + minus)

    for sym in symbols:
        for R in inp.sizes["R"]:
            checks.check(f"WH doubling {sym.kind.value} b={sym.beta:.4g} R={R:g}",
                         TOL_DOUBLING_WH, lambda: doubling(sym, R))


def run_hankel_sections(inp: Inputs, checks: Checks) -> None:
    (b,) = inp.betas
    sz = inp.sizes
    n = sz["kernel_n"]

    def kernel_family(eps):
        # criterion 4's section length: entries beyond M fall below r^(2M) ~ e^-28
        r = (1 - eps) / (1 + eps)
        M = max(256, int(math.ceil(14.0 / -math.log(r))))
        sym = whdet.CircleSymbol(whdet.CircleKind.UBETA_R, beta=b, r=r)
        co = whdet.reg_coeff_table(sym, 2 * M + 20)[2 * M + 20:].real
        H = whdet.hankel(lambda k: co[k + 2 * n], M)
        op = whdet.nystrom(whdet.KernelSpec(whdet.KernelFamily.KEPS_N, beta=b, n=n, eps=eps))
        return functools.reduce(worse, (
            whdet.rel_exp_diff(whdet.fredholm_logdet(op, sign),
                               whdet.logdet(np.eye(M) + sign * H)) for sign in (+1, -1)))

    for eps in sz["eps"]:
        checks.check(f"kernel family b={b:.4g} eps={eps:g} n={n} both signs",
                     TOL_KERNEL_FAMILY, lambda: kernel_family(eps))
    for r in sz["r"]:
        for sign in (+1, -1):
            checks.check(
                f"regularized Hankel b={b:.4g} r={r:g} sign={sign:+d}", TOL_HANKEL_REG,
                lambda: whdet.rel_exp_diff(
                    whdet.fredholm_det_hankel_reg(b, r, sign),
                    whdet.LogDet.from_log(whdet.ln_det_hankel_reg_exact(b, r, sign))))
    # Each sign is paired with a beta of the same sign: with the opposite
    # sign the N -> 2N Richardson step converges far more slowly (residual
    # ~1e-2 at |b| = 0.3, N = 1024) and the check would measure that instead.
    n, N = sz["section_n"], sz["section_N"]
    for sign in (+1, -1):
        bs = sign * abs(b)
        checks.check(
            f"inverse section b={bs:.4g} n={n} N={N} sign={sign:+d}", TOL_SECTION,
            lambda: whdet.rel_exp_diff(
                whdet.hankel_section_inverse_det(bs, n, sign, N=N).value,
                whdet.d_n(bs, n, sign)))


def run_closed_forms(inp: Inputs, checks: Checks) -> None:
    ln2 = math.log(2.0)
    n_max = inp.sizes["n_max"]

    def doubling(b):
        worst = 0.0
        for n in range(1, n_max + 1):
            halves = whdet.d_n_exact(b, n, +1) + whdet.d_n_exact(b, n, -1)
            worst = worse(worst, whdet.rel_exp_diff(halves, whdet.det_tn_exact(b, 2 * n)))
        return worst

    for b in inp.betas:
        checks.check(f"closed-form doubling b={b:.4g} n<={n_max}", TOL_CLOSED,
                     lambda: doubling(b))
        checks.check(f"duplication z={0.75 + b:.4g}", TOL_DUPLICATION,
                     lambda: whdet.duplication_residual(0.75 + b))
        checks.check(f"C_b E_b = 2^(b^2) b={b:.4g}", TOL_CONSTANTS,
                     lambda: abs(whdet.c_beta(b)
                                 * np.exp(whdet.ln_akhiezer_kac_E(b) - b * b * ln2) - 1.0))


PASSES = {
    "toeplitz": run_toeplitz,
    "wiener_hopf": run_wiener_hopf,
    "hankel_sections": run_hankel_sections,
    "closed_forms": run_closed_forms,
}
