"""whdet benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload toeplitz --seed 1 --seconds 15 --trace 0

Run from the root of a whdet checkout; the library is imported from its
``src/`` directory, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The lines before it give the
environment and the run's details; the same, with the metrics, is written
to ``bench/out/``, and a traced run also writes its spans there.

The library has one caller that waits for each result (a closed loop), so
the workload is run pass after pass for ``--seconds``, and at least
TIMED_PASSES[workload] times, after one warm-up pass at tiny sizes.  Every
check is timed on its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: set-up is timed this many times, each in a fresh interpreter, spread
#: evenly over the untraced run
SETUP_SAMPLES = 8
#: wall_s is taken from exactly this many timed passes, the first after the
#: warm-up, so its sample count does not depend on the speed of the code.
#: Passes are kept short and many (two betas in toeplitz, twenty in
#: closed_forms), so each check is timed more often and over more of the run.
TIMED_PASSES = {"toeplitz": 5, "wiener_hopf": 3, "hankel_sections": 3, "closed_forms": 18}
#: fewest passes of each kind, untraced and traced, in a traced run
TRACED_PASSES = 2

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import whdet
whdet.d_n(0.25, 8, +1)
whdet.ln_barnes_g(0.5 + 0.25j)
elapsed = time.perf_counter() - t0
if not whdet.__file__.startswith(sys.argv[1]):
    sys.exit("imported whdet from " + whdet.__file__)
print(elapsed)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("toeplitz", "wiener_hopf", "hankel_sections", "closed_forms"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup() -> float:
    """Seconds to import whdet and make one tiny call, in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up run failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


class SetupSampler:
    """Takes SETUP_SAMPLES set-up times, due at even steps over ``seconds``.

    Called between checks, it takes a sample when one is due, so the samples
    span the run instead of one moment of it; ``finish`` takes any left.
    """

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.step = seconds / SETUP_SAMPLES
        self.times = []

    def __call__(self) -> None:
        due = self.start + len(self.times) * self.step
        if len(self.times) < SETUP_SAMPLES and time.perf_counter() >= due:
            self.times.append(time_setup())

    def finish(self) -> list:
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(time_setup())
        return self.times


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS loaded into this process, by library file."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "whdet").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _openblas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def run_passes(pass_fn, checks, seconds: float, timed_passes: int, tracer=None):
    """Run passes until ``seconds`` have gone by.

    Untraced, every pass is timed check by check, and at least
    ``timed_passes`` are run.  Traced, passes alternate untraced and traced,
    so the two medians are taken under the same conditions, and at least
    TRACED_PASSES of each kind are run.
    Returns (untraced pass walls, traced pass walls, traced per-pass sums).
    """
    deadline = time.perf_counter() + seconds
    plain, traced, sums = [], [], []
    pass_id = 1
    while True:
        if tracer is None:
            enough = len(plain) >= timed_passes
        else:
            enough = min(len(plain), len(traced)) >= TRACED_PASSES
        if enough and time.perf_counter() >= deadline:
            break
        trace_this = tracer is not None and pass_id % 2 == 0
        checks.timing = not trace_this
        if trace_this:
            tracer.begin_pass(pass_id)
        t = time.perf_counter()
        pass_fn()
        wall = time.perf_counter() - t
        if trace_this:
            sums.append(tracer.end_pass())
            traced.append(wall)
        else:
            plain.append(wall)
        pass_id += 1
    return plain, traced, sums


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "whdet" / "__init__.py").is_file():
        print(f"error: no whdet sources under {SRC}; run from a whdet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One BLAS thread: on a shared two-core machine a second thread often
    # waits for a busy core, which made dense LU times swing by 2x.  Set
    # before numpy loads, here and in the set-up interpreters.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    import whdet
    import tracer as tracing
    import workloads

    if not whdet.__file__.startswith(str(SRC)):
        print(f"error: imported whdet from {whdet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    checks = workloads.Checks()
    run_workload = workloads.PASSES[args.workload]

    # The warm-up pass (lazy imports, first calls) runs at tiny sizes and is
    # neither timed nor traced.  Its failures count in pass_share; its
    # residuals are left out of err_digits, which describes the sizes
    # measured (the section inverse's residual is larger at N=256 than at 1024).
    checks.timing = False
    run_workload(workloads.make_inputs(args.workload, args.seed, workloads.WARMUP_SIZES),
                 checks)
    checks.worst = 0.0
    tracer = sampler = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        # set-up is reported untraced only; its samples are taken between checks
        sampler = checks.between = SetupSampler(args.seconds)
    timed_passes = TIMED_PASSES[args.workload]
    plain, traced, sums = run_passes(lambda: run_workload(inputs, checks), checks,
                                     args.seconds, timed_passes, tracer)
    checks.between = None
    setup_times = sampler.finish() if sampler is not None else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    wall = statistics.median(plain)
    # A pass is its checks, each timed on its own; wall_s is the sum over the
    # checks of each check's fastest time over the first timed_passes passes.
    # On a shared machine other load only ever adds time, in bursts that a
    # median of a few samples still catches, so the minimum is the steadier
    # figure.  Pass walls also hold the set-up samples taken between checks.
    wall_by_check = sum(min(t[:timed_passes]) for t in checks.seconds.values())
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "betas": [str(b) for b in inputs.betas], "sizes": inputs.sizes,
        "wall_s": wall_by_check, "wall_samples": min(len(plain), timed_passes),
        "passes": len(plain), "pass_s_median": wall, "pass_s_all": plain,
        "worst_residual": checks.worst, "err_digits": checks.err_digits(),
        "checks_attempted": checks.attempted, "checks_failed": checks.failed,
        "warnings": dict(checks.warnings), "setup_s_all": setup_times,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_by_check, "s"),
            "err_digits": (checks.err_digits(), "digits"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_share": (checks.pass_share(), "share"),
        }
    else:
        tracer.uninstall()
        metrics, absent = tracing.layer_metrics(tracer, sums)
        pass_s = statistics.median(traced)
        self_sum = statistics.median(
            sum(s for _, s in p["stats"].values()) / w for p, w in zip(sums, traced))
        metrics.update({
            "trace.pass_s": (pass_s, "s"),
            "trace.untraced_pass_s": (wall, "s"),
            "trace.overhead_s": (pass_s - wall, "s"),
            "trace.self_share": (self_sum, "share"),
        })
        detail["traced_wall_s_all"] = traced
        detail["absent"] = absent
        for name in absent:
            print(f"absent: {name} (its library function no longer exists)", file=sys.stderr)

    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        # one spans file per workload, replaced by each traced run
        detail["spans_written"] = tracer.write_spans(
            OUT / f"{args.workload}-spans.json",
            {"workload": args.workload, "seed": args.seed, "env": env})
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"env": env, "detail": detail, "check_seconds": checks.seconds,
                   "result": result}, fh, indent=1)
    print("env: " + json.dumps(env))
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
