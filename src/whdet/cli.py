"""Command-line front end: identity suites, convergence sweeps, constants.

Commands
--------
verify           exact-identity suites (quotient identity, Toeplitz doubling,
                 Wiener-Hopf doubling, kernel-family equality, closed-form
                 cross-checks); exit 1 on any violation beyond tolerance
sweep-discrete   Toeplitz+-Hankel determinants vs their asymptotics over n
sweep-continuous truncated Wiener-Hopf+-Hankel determinants vs theirs over R
sech-lab         sech-symbol truncations vs the Akhiezer-Kac prediction
constants        E[phi_b], C_b and the asymptotic constants for a beta list

Exit codes: 0 ok, 1 tolerance violation, 2 invalid config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import asymptotics, expsum, fredholm, structured, symbols, wienerhopf
from .asymptotics import AsymKind, AsymptoteSpec, asymptote_log
from .errors import DomainError, WhdetError
from .logdet import LogDet, logdet, rel_exp_diff
from .params import BetaContext, check_beta, check_eps
from .structured import RefinedLogDet

CSV_HEADER = [
    "scale",
    "value_ln_abs",
    "value_arg",
    "asymptote_ln_abs",
    "asymptote_arg",
    "ratio_abs",
    "deviation",
]

#: sweep-continuous rows also carry the h -> h/2 change behind each value
CONTINUOUS_HEADER = CSV_HEADER + ["refinement"]

#: sweep-discrete rows also carry rel_exp_diff(d_n, d_n_exact)
DISCRETE_HEADER = CSV_HEADER + ["error"]

CHECK_HEADER = ["check", "measured", "tol"]

CONSTANTS_HEADER = [
    "beta_re",
    "beta_im",
    "e_phi_re",
    "e_phi_im",
    "c_beta_re",
    "c_beta_im",
    "const_discrete_plus_re",
    "const_discrete_plus_im",
    "const_discrete_minus_re",
    "const_discrete_minus_im",
]


@dataclass
class RunConfig:
    """One run, as parsed from the command line (defaults in build_parser)."""

    command: str
    betas: List[complex]
    n_range: Optional[List[int]]
    r_range: Optional[List[float]]
    eps: float
    panels: Optional[int]
    nodes: int
    trunc_N: int
    seed: int
    tol: float
    out: Optional[str]
    fmt: str


def _parse_range_ints(text: str) -> List[int]:
    a, b, step = (int(p) for p in text.split(":"))
    if step <= 0 or b < a or a < 1:  # matrix orders start at 1
        raise ValueError(f"bad range {text}")
    return list(range(a, b + 1, step))


def _parse_range_floats(text: str) -> List[float]:
    a, b, step = (float(p) for p in text.split(":"))
    if not (0 < step and -math.inf < a <= b < math.inf):
        raise ValueError(f"bad range {text}")
    # a + i step, not a running sum: its rounding drifts and drops the end b
    return [a + i * step for i in range(math.floor((b - a + 1e-12) / step) + 1)]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="whdet", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--command", required=True, choices=list(COMMANDS))
    p.add_argument("--beta-re", type=float, action="append", default=None,
                   help="real part of a beta (repeatable)")
    p.add_argument("--beta-im", type=float, action="append", default=None,
                   help="imag part matching the corresponding --beta-re")
    p.add_argument("--n-range", type=str, default=None, help="a:b:step (integers)")
    p.add_argument("--r-range", type=str, default=None, help="a:b:step (floats)")
    p.add_argument("--eps", type=float, default=1e-3,
                   help="regularization of the line symbol ((x^2+eps^2)/(x^2+1))^beta")
    p.add_argument("--panels", type=int, default=None)
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--trunc-N", type=int, default=512, dest="trunc_N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", type=str, choices=["csv", "json"], default="csv",
                   dest="fmt")
    return p


def _check_writable(path: str) -> None:
    """Reject an --out that could not be written, before any route runs."""
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise ValueError(f"cannot write --out {path}")


def parse_config(argv) -> RunConfig:
    """The run argv asks for; ValueError or DomainError if it is invalid."""
    args = vars(build_parser().parse_args(argv))
    # an appended option cannot take a list default: argparse appends to it
    res = args.pop("beta_re") or [0.25]
    ims = args.pop("beta_im") or [0.0] * len(res)
    if len(ims) != len(res):
        raise ValueError("--beta-im count must match --beta-re count")
    for key, parse in (("n_range", _parse_range_ints), ("r_range", _parse_range_floats)):
        args[key] = parse(args[key]) if args[key] else None
    cfg = RunConfig(betas=[complex(r, i) for r, i in zip(res, ims)], **args)
    check_eps(cfg.eps)
    if not (cfg.nodes >= 2 and cfg.trunc_N >= 4 and 0 <= cfg.tol < math.inf
            and (cfg.panels is None or cfg.panels >= 1)):
        raise ValueError("knobs out of range (nodes>=2, trunc-N>=4, panels>=1, finite tol>=0)")
    for b in cfg.betas:
        check_beta(b, COMMANDS[cfg.command].strip)
    if cfg.out:  # an empty --out writes to stdout
        _check_writable(cfg.out)
    return cfg


def _row(scale: float, value: LogDet, asym: complex) -> dict:
    ratio = np.exp(value.log - asym)
    return {
        "scale": scale,
        "value_ln_abs": value.ln_abs,
        "value_arg": value.arg,
        "asymptote_ln_abs": asym.real,
        "asymptote_arg": asym.imag,
        "ratio_abs": float(abs(ratio)),
        "deviation": float(abs(ratio - 1.0)),
    }


def run_verify(cfg: RunConfig):
    """Exact identities as records {check, measured, tol}, and the records
    whose residual is not within its tolerance (NaN included)."""
    records = []
    tol = cfg.tol

    def check(name: str, measured: float, tol: float):
        records.append({"check": name, "measured": measured, "tol": tol})

    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(100):
        dim = 8
        A = 0.05 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        lhs, rhs = fredholm.quotient_identity(A, 3)
        worst = max(worst, abs(lhs.log - rhs.log))
    check("quotient-identity", worst, max(tol, 1e-11))

    ns = cfg.n_range or [4, 8]
    for b in cfg.betas:
        minors = {sign: structured.d_n_minors(b, max(ns), sign) for sign in (+1, -1)}
        for n in ns:
            dn = {sign: minors[sign][n - 1] for sign in (+1, -1)}
            for sign in (+1, -1):
                check(f"d_n{sign:+d}({b:g},{n})",
                      rel_exp_diff(dn[sign], asymptotics.d_n_exact(b, n, sign)),
                      max(tol, 1e-8))
            # Toeplitz doubling: det T_2n = D_n+ D_n-
            t2n = logdet(structured.toeplitz(
                lambda k: symbols.fourier_coeff_v(b, k), 2 * n))
            check(f"toeplitz-doubling({b:g},{n})",
                  rel_exp_diff(t2n, dn[+1] + dn[-1]), max(tol, 1e-9))
        # regularized Hankel closed form
        for r in (0.5, 0.8):
            for sign in (+1, -1):
                got = structured.fredholm_det_hankel_reg(b, r, sign)
                want = LogDet.from_log(asymptotics.ln_det_hankel_reg_exact(b, r, sign))
                check(f"hankel-reg({b:g},{r},{sign:+d})", rel_exp_diff(got, want),
                      max(tol, 1e-8))
        # inverse-section route at the configured truncation
        if -0.5 < b.real < 0.5:
            # sign paired so the section converges at the fast rate
            sign = -1 if b.real >= 0 else +1
            sec = structured.hankel_section_inverse_det(
                -b, 4, sign, N=max(cfg.trunc_N, 32))
            check(f"inverse-section({b:g})",
                  rel_exp_diff(sec.value, structured.d_n(-b, 4, sign)), max(tol, 1e-3))
        # Wiener-Hopf doubling with matched quadrature
        sym = symbols.LineSymbol(symbols.LineKind.VHAT_EPS, beta=b, eps=cfg.eps)
        rule = wienerhopf.wh_rule(10.0, panels=cfg.panels, nodes=cfg.nodes)
        ldp = wienerhopf.det_wr_pm_hr(wienerhopf.TruncatedWH(sym, 10.0, rule, +1))
        ldm = wienerhopf.det_wr_pm_hr(wienerhopf.TruncatedWH(sym, 10.0, rule, -1))
        ld2 = wienerhopf.det_w2r(sym, 20.0, wienerhopf.reflected_union_rule(rule))
        check(f"wh-doubling({b:g})", rel_exp_diff(ld2, ldp + ldm), max(tol, 1e-6))
        # kernel-family equality (discrete side)
        if abs(b.imag) < 1e-14 and -1 < b.real < 1 and b != 0:
            n0 = 2
            spec = fredholm.KernelSpec(fredholm.KernelFamily.KEPS_N,
                                       beta=b, n=n0, eps=1e-2)
            nys = fredholm.fredholm_logdet(fredholm.nystrom(spec), +1)
            # the shifted section Q_n0 H(u_{b,r}) Q_n0 of the whole Hankel matrix
            r0 = (1 - 1e-2) / (1 + 1e-2)
            csym = symbols.CircleSymbol(symbols.CircleKind.UBETA_R, beta=b, r=r0)
            hd = expsum.hankel_logdet(symbols.jump_coeff_sum(csym), +1, start=n0)
            check(f"kernel-vs-section({b:g})", rel_exp_diff(nys, hd), max(tol, 1e-6))
    return records, [c for c in records if not c["measured"] <= c["tol"]]


def _wh_logdet(cfg: RunConfig, b: complex, sign: int, R: float) -> RefinedLogDet:
    """det(W_R +- H_R) at panels p and 2p (p from --panels or wh_rule's
    default) with one Richardson step in h: the O(h^2) error of the
    diagonal kink is as large as the asymptotic deviation itself."""
    sym = symbols.LineSymbol(symbols.LineKind.VHAT_EPS, beta=b, eps=cfg.eps)
    coarse = wienerhopf.wh_rule(R, panels=cfg.panels, nodes=cfg.nodes)
    fine = wienerhopf.wh_rule(R, panels=2 * (len(coarse) // cfg.nodes), nodes=cfg.nodes)
    ld_p, ld_2p = (wienerhopf.det_wr_pm_hr(wienerhopf.TruncatedWH(sym, R, rule, sign))
                   for rule in (coarse, fine))
    return RefinedLogDet(ld_p, ld_2p, ratio=2, exponent=2)


def run_sweep_discrete(cfg: RunConfig):
    """D_n against the discrete asymptotes, every n of the range from one
    d_n_minors pass per (beta, sign); the MATRIX strip of the betas lies
    inside both asymptote strips."""
    ns = cfg.n_range or [16, 32, 64]
    rows = []
    for b in cfg.betas:
        for sign, kind in ((+1, AsymKind.DISCRETE_PLUS), (-1, AsymKind.DISCRETE_MINUS)):
            spec = AsymptoteSpec(kind, b)
            minors = structured.d_n_minors(b, max(ns), sign)
            for n in ns:
                ld = minors[n - 1]
                rows.append({**_row(float(n), ld, asymptote_log(spec, float(n))),
                             "error": rel_exp_diff(ld, asymptotics.d_n_exact(b, n, sign))})
    return rows, []


def run_sweep_continuous(cfg: RunConfig):
    """det(W_R +- H_R) against the continuous asymptotes, for each sign
    whose strip holds beta."""
    rows = []
    for b in cfg.betas:
        for sign, kind in ((+1, AsymKind.CONTINUOUS_PLUS), (-1, AsymKind.CONTINUOUS_MINUS)):
            try:
                spec = AsymptoteSpec(kind, b)
            except DomainError:
                continue  # beta outside this sign's strip
            for R in cfg.r_range or [10.0, 20.0, 40.0]:
                asym = asymptote_log(spec, float(R))
                ld = _wh_logdet(cfg, b, sign, R)
                rows.append({**_row(float(R), ld.value, asym), "refinement": ld.refinement})
    return rows, []


def run_sech_lab(cfg: RunConfig):
    rows = []
    for b in cfg.betas:
        spec = AsymptoteSpec(AsymKind.SECH, b)
        sym = symbols.LineSymbol(symbols.LineKind.PHI, beta=b)
        for s in (cfg.r_range or [10.0, 20.0, 30.0]):
            rule = wienerhopf.wh_rule(s, panels=cfg.panels, nodes=cfg.nodes)
            ld = wienerhopf.det_w2r(sym, s, rule)
            rows.append(_row(s, ld, asymptote_log(spec, s)))
    return rows, []


def _or_nan(constant, b: complex) -> complex:
    """constant(b), or NaN where b lies outside the constant's strip."""
    try:
        return constant(b)
    except DomainError:
        return complex("nan")


def run_constants(cfg: RunConfig):
    rows = []
    for b in cfg.betas:
        e_phi = _or_nan(asymptotics.akhiezer_kac_E, b)
        cb = _or_nan(asymptotics.c_beta, b)
        cplus = np.exp(asymptote_log(AsymptoteSpec(AsymKind.DISCRETE_PLUS, b), 1.0))
        cminus = np.exp(asymptote_log(AsymptoteSpec(AsymKind.DISCRETE_MINUS, b), 1.0))
        rows.append({
            "beta_re": b.real, "beta_im": b.imag,
            "e_phi_re": e_phi.real, "e_phi_im": e_phi.imag,
            "c_beta_re": cb.real, "c_beta_im": cb.imag,
            "const_discrete_plus_re": complex(cplus).real,
            "const_discrete_plus_im": complex(cplus).imag,
            "const_discrete_minus_re": complex(cminus).real,
            "const_discrete_minus_im": complex(cminus).imag,
        })
    return rows, []


def write_output(cfg: RunConfig, rows: list, violations: list):
    """The rows as CSV, header first, or as one JSON document with the
    config and the violations; to --out, else to stdout."""
    dest = open(cfg.out, "w", newline="") if cfg.out else contextlib.nullcontext(sys.stdout)
    with dest as f:
        if cfg.fmt == "json":
            config = {k: v for k, v in asdict(cfg).items() if k not in ("out", "fmt")}
            config["betas"] = [[b.real, b.imag] for b in cfg.betas]
            json.dump({"config": config, "rows": rows, "violations": violations},
                      f, indent=1, sort_keys=True)
            f.write("\n")
        else:
            header = COMMANDS[cfg.command].header
            writer = csv.DictWriter(f, fieldnames=header, lineterminator="\n")
            writer.writeheader()
            writer.writerows({h: row[h] if isinstance(row[h], str) else f"{row[h]:.17g}"
                              for h in header} for row in rows)


class Command(NamedTuple):
    """A command's runner, which returns (rows, violations), the CSV header
    of its rows and the strip its betas must lie in."""

    run: Callable[[RunConfig], Tuple[list, list]]
    header: List[str]
    strip: BetaContext


#: every --command; every beta of KERNEL_FAMILY, the cut kernel's strip,
#: lies in at least one of the two continuous asymptote strips
COMMANDS = {
    "verify": Command(run_verify, CHECK_HEADER, BetaContext.FINITE),
    "sweep-discrete": Command(run_sweep_discrete, DISCRETE_HEADER, BetaContext.MATRIX),
    "sweep-continuous": Command(run_sweep_continuous, CONTINUOUS_HEADER,
                                BetaContext.KERNEL_FAMILY),
    "sech-lab": Command(run_sech_lab, CSV_HEADER, BetaContext.SECH),
    "constants": Command(run_constants, CONSTANTS_HEADER, BetaContext.FINITE),
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        rows, violations = COMMANDS[cfg.command].run(cfg)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except (ValueError, DomainError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except WhdetError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    write_output(cfg, rows, violations)
    for v in violations:
        print(f"VIOLATION {v['check']}: {v['measured']:.3e} > {v['tol']:.3e}",
              file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
