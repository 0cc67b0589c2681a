"""Command-line interface: commands, output formats, exit codes,
reproducibility."""

import csv
import json
import warnings

import pytest

from whdet import (
    LineKind,
    LineSymbol,
    TruncatedWH,
    d_n,
    d_n_exact,
    det_wr_pm_hr,
    rel_exp_diff,
    wh_rule,
)
from whdet.cli import (CHECK_HEADER, COMMANDS, CONSTANTS_HEADER, CONTINUOUS_HEADER, CSV_HEADER,
                       DISCRETE_HEADER, main, parse_config)
from whdet.errors import ConvergenceWarning, SingularMatrix


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def patch_runner(monkeypatch, command, run):
    """Replace a command's runner in the table main dispatches on."""
    monkeypatch.setitem(COMMANDS, command, COMMANDS[command]._replace(run=run))


class TestConfig:
    def test_ranges(self):
        cfg = parse_config(["--command", "verify", "--n-range", "4:16:4"])
        assert cfg.n_range == [4, 8, 12, 16]

    def test_beta_pairs(self):
        cfg = parse_config(["--command", "constants",
                            "--beta-re", "0.3", "--beta-im", "0.1"])
        assert cfg.betas == [0.3 + 0.1j]

    def test_bad_knobs_exit_2(self):
        assert main(["--command", "verify", "--eps", "-1"]) == 2

    @pytest.mark.parametrize("knob", [["--tol", "nan"], ["--tol", "inf"], ["--tol=-1e-6"],
                                      ["--panels", "0"], ["--panels", "-2"],
                                      ["--eps", "1"], ["--eps", "1.5"]])
    def test_bad_knob_exit_2_before_any_route(self, knob, monkeypatch, capsys):
        # a NaN tol flagged every check, an infinite one passed every check,
        # panels < 1 failed in numpy only after verify ran its routes, and
        # eps >= 1 reached the routes, which reject it
        ran = []
        patch_runner(monkeypatch, "verify", lambda cfg: ran.append(cfg) or ([], []))
        assert main(["--command", "verify", *knob]) == 2
        assert "invalid config" in capsys.readouterr().err
        assert ran == []

    def test_n_range_below_one_exit_2(self):
        assert main(["--command", "sweep-discrete", "--n-range", "0:8:4"]) == 2

    def test_unknown_command_exit_2(self):
        assert main(["--command", "frobnicate"]) == 2

    @pytest.mark.parametrize("text, a, step, count", [
        ("0:100:0.01", 0.0, 0.01, 10001), ("0:10:0.1", 0.0, 0.1, 101),
        ("6:10:4", 6.0, 4.0, 2)])
    def test_float_range_keeps_its_end(self, text, a, step, count):
        # a running sum x += step drifts and drops the end point
        scales = parse_config(["--command", "sech-lab", "--r-range", text]).r_range
        assert scales == [a + i * step for i in range(count)]
        assert scales[-1] == float(text.split(":")[1])

    @pytest.mark.parametrize("text", ["1:nan:1", "1:2:nan", "1:inf:1"])
    def test_non_finite_float_range_exit_2(self, text):
        assert main(["--command", "sech-lab", "--r-range", text]) == 2

    def test_unwritable_out_exit_2_before_any_route(self, tmp_path, monkeypatch, capsys):
        ran = []
        patch_runner(monkeypatch, "sech-lab", lambda cfg: ran.append(cfg) or ([], []))
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert main(["--command", "sech-lab", "--out", str(out)]) == 2
            assert "invalid config" in capsys.readouterr().err
        assert ran == []

    def test_eps_one_exit_2(self, capsys):
        assert main(["--command", "sweep-continuous", "--beta-re", "0.3",
                     "--r-range", "4:4:1", "--eps", "1"]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_json_config_records_every_option(self, tmp_path):
        out = tmp_path / "k.json"
        assert main(["--command", "constants", "--beta-re", "0.1", "--beta-im", "0.2",
                     "--n-range", "4:8:4", "--r-range", "1:2:1", "--eps", "0.01",
                     "--panels", "3", "--nodes", "4", "--trunc-N", "16", "--seed", "5",
                     "--tol", "1e-5", "--out", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text())["config"] == {
            "command": "constants", "betas": [[0.1, 0.2]], "n_range": [4, 8],
            "r_range": [1.0, 2.0], "eps": 0.01, "panels": 3, "nodes": 4, "trunc_N": 16,
            "seed": 5, "tol": 1e-5}

    def test_json_config_defaults(self, capsys):
        assert main(["--command", "constants", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == {
            "command": "constants", "betas": [[0.25, 0.0]], "n_range": None,
            "r_range": None, "eps": 1e-3, "panels": None, "nodes": 16, "trunc_N": 512,
            "seed": 0, "tol": 1e-6}


class TestVerify:
    def test_beta_zero_grid_passes(self, tmp_path):
        out = tmp_path / "v.json"
        rc = main(["--command", "verify", "--beta-re", "0",
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["violations"] == []
        assert all(row["measured"] < 1e-10 for row in doc["rows"])

    def test_csv_records_name_each_check(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["--command", "verify", "--beta-re", "0.25", "--n-range", "4:4:1",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == CHECK_HEADER
        names = [r["check"] for r in rows]
        assert names[:4] == ["quotient-identity", "d_n+1(0.25+0j,4)",
                             "d_n-1(0.25+0j,4)", "toeplitz-doubling(0.25+0j,4)"]
        assert all(float(r["measured"]) <= float(r["tol"]) for r in rows)

    def test_nonzero_beta_passes(self):
        assert main(["--command", "verify", "--beta-re", "0.25"]) == 0

    def test_violation_exit_1(self, monkeypatch, capsys):
        patch_runner(monkeypatch, "verify",
                     lambda cfg: ([], [{"check": "fake", "measured": 1.0, "tol": 0.5}]))
        assert main(["--command", "verify"]) == 1
        assert "VIOLATION" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, monkeypatch):
        def boom(cfg):
            raise SingularMatrix("synthetic")

        patch_runner(monkeypatch, "verify", boom)
        assert main(["--command", "verify"]) == 3

    def test_convergence_warning_reaches_caller(self, monkeypatch):
        def under_resolved(cfg):
            warnings.warn("synthetic under-resolved section", ConvergenceWarning)
            return [], []

        patch_runner(monkeypatch, "verify", under_resolved)
        with pytest.warns(ConvergenceWarning, match="synthetic"):
            assert main(["--command", "verify"]) == 0


class TestSweeps:
    def test_discrete_sweep_decreasing(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = main(["--command", "sweep-discrete", "--beta-re", "0.25",
                   "--n-range", "64:512:64", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == DISCRETE_HEADER
        devs = [float(r["deviation"]) for r in rows]
        half = len(devs) // 2  # one block per sign
        for block in (devs[:half], devs[half:]):
            assert all(a > b for a, b in zip(block[:-1], block[1:]))

    def test_discrete_error_column(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["--command", "sweep-discrete", "--beta-re", "0.3", "--beta-im", "0.1",
                     "--n-range", "8:24:8", "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())["rows"]
        want = [rel_exp_diff(d_n(0.3 + 0.1j, n, sign), d_n_exact(0.3 + 0.1j, n, sign))
                for sign in (+1, -1) for n in (8, 16, 24)]
        assert [row["error"] for row in rows] == want
        assert all(0.0 < e < 1e-8 for e in want)

    def test_discrete_sweep_from_one_pass(self, tmp_path, monkeypatch):
        from whdet import structured
        calls = []
        minors = structured.d_n_minors

        def counted(beta, n, sign):
            calls.append((beta, n, sign))
            return minors(beta, n, sign)

        monkeypatch.setattr(structured, "d_n_minors", counted)
        out = tmp_path / "d.json"
        b = 0.3 + 0.1j
        assert main(["--command", "sweep-discrete", "--beta-re", "0.3", "--beta-im", "0.1",
                     "--n-range", "16:256:48", "--out", str(out), "--format", "json"]) == 0
        assert calls == [(b, 256, +1), (b, 256, -1)]
        rows = json.loads(out.read_text())["rows"]
        want = [d_n(b, n, sign) for sign in (+1, -1) for n in range(16, 257, 48)]
        assert len(rows) == len(want)
        for row, ld in zip(rows, want):
            assert abs(row["value_ln_abs"] - ld.ln_abs) <= 1e-14
            assert abs(row["value_arg"] - ld.arg) <= 1e-14

    def test_sech_lab_header_is_its_row_keys(self, tmp_path):
        args = ["--command", "sech-lab", "--beta-re", "0.3", "--r-range", "4:6:2"]
        assert main(args + ["--out", str(tmp_path / "s.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "s.json"), "--format", "json"]) == 0
        with open(tmp_path / "s.csv") as f:
            header = next(csv.reader(f))
        rows = json.loads((tmp_path / "s.json").read_text())["rows"]
        assert header == CSV_HEADER
        assert len(rows) == 2
        assert all(set(row) == set(header) for row in rows)

    def test_sech_lab(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["--command", "sech-lab", "--beta-re", "0.3",
                   "--r-range", "8:16:4", "--out", str(out)])
        assert rc == 0
        devs = [float(r["deviation"]) for r in read_csv(out)]
        assert devs[0] > devs[-1]

    def test_continuous_sweep_runs(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["--command", "sweep-continuous", "--beta-re", "0.3",
                   "--r-range", "6:10:4", "--eps", "1e-3",
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc["rows"][0].keys()) == set(CONTINUOUS_HEADER)
        assert doc["config"]["eps"] == 1e-3

    def test_continuous_sweep_extrapolates_in_h(self, tmp_path):
        out = tmp_path / "c.json"
        assert main(["--command", "sweep-continuous", "--beta-re", "0.3",
                     "--r-range", "6:10:4", "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())["rows"]
        sym = LineSymbol(LineKind.VHAT_EPS, beta=0.3, eps=1e-3)
        want = []
        for sign in (+1, -1):  # 0.3 lies in both continuous strips
            for R, p in ((6.0, 16), (10.0, 20)):  # wh_rule's default panels
                ld_p, ld_2p = (det_wr_pm_hr(TruncatedWH(sym, R, wh_rule(R, panels=q), sign))
                               for q in (p, 2 * p))
                change = ld_2p.ln_abs - ld_p.ln_abs
                want.append((ld_2p.ln_abs + change / 3.0, abs(change)))
        assert len(rows) == len(want)
        for row, (value, refinement) in zip(rows, want):
            assert abs(row["value_ln_abs"] - value) <= 1e-12
            # a real symbol: the change is all in the modulus
            assert abs(row["refinement"] - refinement) <= 1e-12
            assert 0.0 < row["refinement"] < 1e-2

    def test_continuous_csv_has_refinement_column(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["--command", "sweep-continuous", "--beta-re", "0.3",
                     "--r-range", "6:6:1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == CONTINUOUS_HEADER
        assert all(float(r["refinement"]) > 0.0 for r in rows)

    @pytest.mark.parametrize("argv", [
        ["--command", "sweep-discrete", "--beta-re", "nan"],
        ["--command", "sweep-continuous", "--beta-re", "1.2", "--r-range", "4:8:4"],
        ["--command", "sech-lab", "--beta-re", "0.5"],
    ])
    def test_beta_outside_command_strip_exit_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid config" in captured.err


class TestConstants:
    def test_beta_zero_units(self, tmp_path):
        out = tmp_path / "k.json"
        rc = main(["--command", "constants", "--beta-re", "0",
                   "--out", str(out), "--format", "json"])
        assert rc == 0
        row = json.loads(out.read_text())["rows"][0]
        assert abs(row["e_phi_re"] - 1.0) < 1e-12
        assert abs(row["c_beta_re"] - 1.0) < 1e-12
        assert abs(row["const_discrete_plus_re"] - 1.0) < 1e-12
        assert abs(row["const_discrete_minus_re"] - 1.0) < 1e-12


class TestStdout:
    def test_json_to_stdout(self, capsys):
        assert main(["--command", "constants", "--beta-re", "0.25", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["command"] == "constants"
        assert doc["rows"][0]["beta_re"] == 0.25

    def test_csv_to_stdout_starts_with_header(self, capsys):
        assert main(["--command", "constants", "--beta-re", "0.25"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split(",") == CONSTANTS_HEADER
        assert len(lines) == 2


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--command", "sech-lab", "--beta-re", "0.3",
                "--r-range", "6:10:2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_recorded_in_json(self, tmp_path):
        out = tmp_path / "v.json"
        main(["--command", "verify", "--beta-re", "0", "--seed", "7",
              "--out", str(out), "--format", "json"])
        assert json.loads(out.read_text())["config"]["seed"] == 7
