"""tools/bench_pairs.py: the summary of each side's runs and the rule that
decides a gain (at least nine wins in ten pairs, and medians further apart
than the base's quartiles, in the metric's better direction)."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(**metrics):
    """One run per position of the value lists: {"metrics": {name: {"value": v}}}."""
    n = len(next(iter(metrics.values())))
    return [{"metrics": {name: {"value": v[i]} for name, v in metrics.items()}}
            for i in range(n)]


def _side(**metrics):
    runs = _runs(**metrics)
    return {"runs": runs, **bench_pairs.summarize(runs)}


BASE_WALL = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_summarize_median_and_quartiles():
    s = bench_pairs.summarize(_runs(wall_s=[5.0, 1.0, 4.0, 2.0, 3.0], err_digits=[7.0] * 5))
    assert s["median"] == {"wall_s": 3.0, "err_digits": 7.0}
    assert s["quartiles"]["wall_s"] == statistics.quantiles([1, 2, 3, 4, 5], n=4)[::2]
    assert s["quartiles"]["wall_s"] == [1.5, 4.5]
    assert s["quartiles"]["err_digits"] == [7.0, 7.0]


def test_gain_needs_nine_wins_in_ten():
    base = _side(wall_s=BASE_WALL)
    nine = [0.8] * 9 + [1.5]
    got = bench_pairs.compare(base, _side(wall_s=nine), {"wall_s": "lower"})["wall_s"]
    assert got == {"head_wins": 9, "ties": 0, "gain": True}
    eight = [0.8] * 8 + [1.5, 1.5]
    got = bench_pairs.compare(base, _side(wall_s=eight), {"wall_s": "lower"})["wall_s"]
    assert got == {"head_wins": 8, "ties": 0, "gain": False}


def test_gain_needs_a_median_gap_past_the_quartiles():
    # ten wins, by less than the base's quartile distance
    base = _side(wall_s=BASE_WALL)
    q1, q3 = base["quartiles"]["wall_s"]
    head = [v - 0.5 * (q3 - q1) for v in BASE_WALL]
    got = bench_pairs.compare(base, _side(wall_s=head), {"wall_s": "lower"})["wall_s"]
    assert got["head_wins"] == 10 and not got["gain"]
    head = [v - 2.0 * (q3 - q1) for v in BASE_WALL]
    assert bench_pairs.compare(base, _side(wall_s=head), {"wall_s": "lower"})["wall_s"]["gain"]


@pytest.mark.parametrize("better, gain", [("higher", True), ("lower", False)])
def test_gain_follows_the_better_direction(better, gain):
    base = _side(err_digits=[13.0 + 0.01 * i for i in range(10)])
    head = _side(err_digits=[14.0 + 0.01 * i for i in range(10)])
    got = bench_pairs.compare(base, head, {"err_digits": better})["err_digits"]
    assert got["head_wins"] == (10 if gain else 0) and got["gain"] is gain


def test_ties_count_for_neither_side():
    base = _side(wall_s=BASE_WALL)
    tied = [0.5] * 9 + [BASE_WALL[9]]
    got = bench_pairs.compare(base, _side(wall_s=tied), {"wall_s": "lower"})["wall_s"]
    assert got == {"head_wins": 9, "ties": 1, "gain": True}
    tied = [0.5] * 8 + BASE_WALL[8:]
    got = bench_pairs.compare(base, _side(wall_s=tied), {"wall_s": "lower"})["wall_s"]
    assert got == {"head_wins": 8, "ties": 2, "gain": False}
    same = bench_pairs.compare(base, _side(wall_s=BASE_WALL), {"wall_s": "lower"})["wall_s"]
    assert same == {"head_wins": 0, "ties": 10, "gain": False}
