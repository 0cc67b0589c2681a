#!/usr/bin/env python3
"""Benchmark two commits in alternating pairs of runs.

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD \\
        --workload hankel_sections --seed 5 --pairs 10 --seconds 15 --out BENCH.json

Each commit's files are written by ``git archive`` into a directory of
their own under a temporary one, so both sides run committed files only and
the repository gains no worktree.  For every workload, pair i runs
``bench/run.py --trace 0`` once in each tree, the base first in even pairs
and the head first in odd ones, so that slow stretches of a shared machine
fall on both sides alike.  The output holds, per workload and side, every
run's end-to-end metrics, their median and quartiles and the ``env:`` line
of the side's first run; per metric, the number of pairs the head won
(better in the direction BENCHMARK.json gives; ties count for neither) and
whether a gain may be claimed: a win in at least nine tenths of the pairs
and medians further apart than the distance between the base's quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit measured as the reference")
    p.add_argument("--head", default="HEAD", help="commit measured against it")
    p.add_argument("--workload", action="append", required=True,
                   help="a bench/run.py workload; repeat for several")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    return args


def rev_parse(rev: str) -> str:
    done = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=REPO,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {rev!r} is not a commit: {done.stderr.strip()}")
    return done.stdout.strip()


def export(commit: str, into: Path) -> None:
    """Write the files of ``commit`` into the directory ``into``."""
    into.mkdir()
    git = subprocess.Popen(["git", "archive", commit], cwd=REPO, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=git.stdout, mode="r|") as tar:
        tar.extractall(into, filter="data")
    if git.wait() != 0:
        sys.exit(f"error: git archive {commit} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """One untraced bench/run.py run in ``tree``: (env, result)."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: bench/run.py in {tree} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env: "))[len("env: "):])
    return env, json.loads(lines[-1])


def summarize(runs: list) -> dict:
    """Median and quartiles of each metric over a side's runs."""
    values = {name: [run["metrics"][name]["value"] for run in runs] for name in runs[0]["metrics"]}
    return {
        "median": {name: statistics.median(v) for name, v in values.items()},
        "quartiles": {name: statistics.quantiles(v, n=4)[::2] for name, v in values.items()},
    }


def compare(base: dict, head: dict, better: dict) -> dict:
    """Per metric, the head's wins over the pairs and whether a gain holds,
    from each side's runs and summary."""
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        diffs = [sign * (h["metrics"][name]["value"] - b["metrics"][name]["value"])
                 for b, h in zip(base["runs"], head["runs"])]
        wins = sum(d > 0 for d in diffs)
        q1, q3 = base["quartiles"][name]
        gap = sign * (head["median"][name] - base["median"][name])
        out[name] = {"head_wins": wins, "ties": sum(d == 0 for d in diffs),
                     "gain": wins >= 0.9 * len(diffs) and gap > q3 - q1}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    better = {m["name"]: m["better"]
              for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"base": rev_parse(args.base), "head": rev_parse(args.head)}
    report = {"command": ["tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
              **sides, "seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for side, commit in sides.items():
            trees[side] = Path(tmp) / side
            export(commit, trees[side])
        for workload in args.workload:
            runs = {"base": [], "head": []}
            envs = {}
            firsts = []
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                firsts.append(order[0])
                for side in order:
                    env, result = run_once(trees[side], workload, args.seed, args.seconds)
                    envs.setdefault(side, env)
                    runs[side].append(result)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
            measured = {side: {"env": envs[side], "runs": runs[side], **summarize(runs[side])}
                        for side in runs}
            report["workloads"][workload] = {
                "first": firsts, **measured,
                "metrics": compare(measured["base"], measured["head"], better),
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
