"""Smoke test of the benchmark at the warm-up's tiny sizes (about a minute).

    python3 -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import whdet  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Run the benchmark in this process at the warm-up sizes."""
    monkeypatch.setattr(workloads, "SIZES", workloads.WARMUP_SIZES)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


def run_tiny(capsys, workload, trace, seed=1):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return detail, json.loads(lines[-1])


def test_spec_names_the_workloads():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_its_unit(tiny, capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        detail, result = run_tiny(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace == 0:
            err_untraced = detail["err_digits"]
            assert len(detail["setup_s_all"]) == run.SETUP_SAMPLES
        else:
            assert detail["err_digits"] == err_untraced


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_betas_not_sizes(workload):
    a = workloads.make_inputs(workload, 1)
    b = workloads.make_inputs(workload, 2)
    assert a.sizes == b.sizes
    assert a.betas != b.betas
    assert workloads.make_inputs(workload, 1) == a


def test_nan_or_raising_check_fails_and_shows():
    nan = float("nan")
    assert math.isnan(workloads.worse(1e-3, nan)) and math.isnan(workloads.worse(nan, 1e-3))
    checks = workloads.Checks()
    checks.check("finite", 1.0, lambda: 1e-12)
    checks.check("nan", 1.0, lambda: nan)
    checks.check("finite after nan", 1.0, lambda: 1e-10)
    checks.check("raises", 1.0, lambda: 1 / 0)
    assert checks.attempted == 4 and checks.failed == 2
    assert checks.pass_share() == 0.5
    assert checks.err_digits() == 0.0


def test_nan_inside_a_check_is_not_dropped(monkeypatch):
    calls = []

    def rel_exp_diff(a, b):
        calls.append(1)
        return float("nan") if len(calls) == 2 else 0.0

    monkeypatch.setattr(whdet, "rel_exp_diff", rel_exp_diff)
    inputs = workloads.make_inputs("closed_forms", 1, workloads.WARMUP_SIZES)
    checks = workloads.Checks()
    workloads.run_closed_forms(inputs, checks)
    assert checks.failed == 1 and checks.err_digits() == 0.0


def test_missing_library_function_is_reported_absent():
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    tr.wrapped.discard("symbols.cut_kernel")
    metrics, absent = tracer.layer_metrics(tr, [{"stats": {}, "counters": {}}])
    assert {"symbols.cut_kernel.self_s", "symbols.cut_kernel.terms"} <= set(absent)
    assert "symbols.cut_kernel.terms" not in metrics
    assert "logdet.logdet.calls" in metrics


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "toeplitz", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
