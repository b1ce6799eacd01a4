"""CLI: argument handling, table formats, round-tripping, exit codes."""
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from signalprop import cli


def run(argv, capsys):
    status = cli.main(argv)
    return status, capsys.readouterr().out


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


class TestParsing:
    def test_range_forms(self):
        assert cli._parse_range("1.7") == [1.7]
        values = cli._parse_range("0.0:1.0:5")
        assert values == [0.0, 0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("text", ["1:2", "2.0:1.0:5", "1:2:0", "a:b:3"])
    def test_bad_ranges(self, text):
        with pytest.raises(Exception):
            cli._parse_range(text)

    def test_rho_list(self):
        assert cli._parse_rho_list("0.9,1.0") == [0.9, 1.0]

    @pytest.mark.parametrize("value", ["abc", "1"])
    def test_bad_quad_order_env_exits_with_message(self, value, monkeypatch,
                                                    capsys):
        monkeypatch.setenv("SIGNALPROP_QUAD_ORDER", value)
        status = cli.main(["critical-line", "--sigma-b-sq", "0.05"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: SIGNALPROP_QUAD_ORDER")

    @pytest.mark.parametrize("order", ["1", "0"])
    def test_bad_quad_order_flag_exits_with_message(self, order, capsys):
        status = cli.main(["phase-diagram", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--quad-order", order])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: quadrature order must be >= 2, got {order}\n"

    def test_non_finite_rule_flag_exits_with_message(self, capsys):
        status = cli.main(["phase-diagram", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--quad-order", "400"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == ("error: quadrature order 400 is too large: its "
                                "Gauss-Hermite nodes or weights are not finite\n")

    def test_non_finite_rule_env_exits_with_message(self, monkeypatch, capsys):
        monkeypatch.setenv("SIGNALPROP_QUAD_ORDER", "400")
        status = cli.main(["critical-line", "--sigma-b-sq", "0.05"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: quadrature order 400 is too large")

    def test_bad_flag_exits_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["phase-diagram", "--sigma-w-sq", "1:2"])
        assert excinfo.value.code != 0
        assert "--sigma-w-sq" in capsys.readouterr().err


class TestCriticalLine:
    def test_csv_round_trip(self, capsys):
        status, out = run(["critical-line", "--sigma-b-sq", "0.05"], capsys)
        assert status == 0
        rows = parse_csv(out)
        value = float(rows[0]["sigma_w_sq_critical"])
        # 17 significant digits survive the text round trip.
        assert out.count(rows[0]["sigma_w_sq_critical"]) >= 1
        assert f"{value:.17g}" == rows[0]["sigma_w_sq_critical"]

    def test_zero_bias_anchor(self, capsys):
        status, out = run(["critical-line", "--sigma-b-sq", "0.0"], capsys)
        assert status == 0
        assert float(parse_csv(out)[0]["sigma_w_sq_critical"]) == 1.0


class TestPhaseDiagram:
    def test_grid_and_phases(self, capsys):
        status, out = run(["phase-diagram", "--sigma-w-sq", "0.5:2.5:3",
                           "--sigma-b-sq", "0.05"], capsys)
        assert status == 0
        rows = parse_csv(out)
        phases = {row["phase"] for row in rows}
        assert {"ordered", "chaotic", "critical"} <= phases

    def test_partial_failure_exit_code(self, capsys):
        # Linear activation has no fixed point at sigma_w_sq >= 1.
        status, out = run(["phase-diagram", "--activation", "linear",
                           "--sigma-w-sq", "0.5:1.5:2",
                           "--sigma-b-sq", "0.1"], capsys)
        assert status == 2
        rows = parse_csv(out)
        assert rows[0]["error"] == ""
        assert rows[1]["error"] != ""


class TestDepthScales:
    def test_infinities_in_csv(self, capsys):
        # sigma_w_sq = 1, sigma_b_sq = 0 is exactly critical for tanh.
        status, out = run(["depth-scales", "--sigma-w-sq", "1.0",
                           "--sigma-b-sq", "0.0"], capsys)
        assert status == 0
        row = parse_csv(out)[0]
        assert row["xi_grad"] == "inf"
        assert row["xi_c_theory"] == "inf"

    def test_infinities_in_json(self, capsys):
        status, out = run(["depth-scales", "--sigma-w-sq", "1.0",
                           "--sigma-b-sq", "0.0", "--format", "json"], capsys)
        assert status == 0
        row = json.loads(out)[0]
        assert row["xi_grad"] is None
        assert row["xi_grad_flag"] == "inf"

    def test_measured_matches_theory(self, capsys):
        status, out = run(["depth-scales", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05"], capsys)
        assert status == 0
        row = parse_csv(out)[0]
        theory = float(row["xi_c_theory"])
        measured = float(row["xi_c_measured"])
        assert math.isclose(measured, theory, rel_tol=0.05)


class TestTrainableDepth:
    def test_six_xi_c(self, capsys):
        status, out = run(["trainable-depth", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--rho", "0.99"], capsys)
        assert status == 0
        row = parse_csv(out)[0]
        assert math.isclose(float(row["max_trainable_depth"]),
                            6 * float(row["xi_c"]), rel_tol=1e-15)


class TestSimulate:
    def test_forward_columns(self, capsys):
        status, out = run(["simulate", "forward", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--depth", "4",
                           "--width", "50", "--networks", "3"], capsys)
        assert status == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        assert {"layer", "q_aa_hat", "q_aa_stderr", "c_ab_hat",
                "c_ab_stderr", "q_aa_theory", "c_ab_theory"} <= rows[0].keys()

    def test_gradients_json(self, capsys):
        status, out = run(["simulate", "gradients", "--sigma-w-sq", "1.3",
                           "--sigma-b-sq", "0.05", "--depth", "4",
                           "--width", "50", "--networks", "2",
                           "--format", "json"], capsys)
        assert status == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert all(math.isfinite(r["log_grad_norm_sq"]) for r in rows)

    def test_grad_covariance(self, capsys):
        status, out = run(["simulate", "grad-covariance",
                           "--sigma-w-sq", "1.3", "--sigma-b-sq", "0.05",
                           "--depth", "4", "--width", "50",
                           "--networks", "2"], capsys)
        assert status == 0
        rows = parse_csv(out)
        factor = float(rows[0]["theory_factor"])
        assert 0 < factor < 1

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "inputs.f32"
        rng = np.random.default_rng(0)
        rng.standard_normal((2, 32)).astype("<f4").tofile(path)
        status, out = run(["simulate", "forward", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--depth", "3",
                           "--width", "32", "--networks", "2",
                           "--input-file", str(path)], capsys)
        assert status == 0
        assert len(parse_csv(out)) == 3

    def test_seed_changes_output(self, capsys):
        argv = ["simulate", "forward", "--sigma-w-sq", "1.7",
                "--sigma-b-sq", "0.05", "--depth", "3", "--width", "40",
                "--networks", "2"]
        _, first = run(argv + ["--seed", "1"], capsys)
        _, second = run(argv + ["--seed", "2"], capsys)
        _, repeat = run(argv + ["--seed", "1"], capsys)
        assert first == repeat
        assert first != second


    def test_unrepresentable_input_scale_is_an_error_row(self, capsys):
        # N rho (q0 - sigma_b^2) / sigma_w^2 overflows at this sigma_w^2
        status, out = run(["simulate", "forward", "--sigma-w-sq", "1e-307",
                           "--depth", "3", "--width", "1000",
                           "--networks", "2"], capsys)
        assert status == cli.EXIT_PARTIAL
        rows = parse_csv(out)
        assert len(rows) == 1
        assert "not finite" in rows[0]["error"]


class TestParserReuse:
    # (argv, SIGNALPROP_QUAD_ORDER): an argparse error, defaults right after
    # explicit values, and an order changed between calls.
    SEQUENCE = [
        (["phase-diagram", "--sigma-w-sq", "0.5:1.5:3", "--rho", "1,0.9"], None),
        (["phase-diagram", "--sigma-w-sq", "1:2"], None),
        (["phase-diagram"], None),
        (["phase-diagram", "--format", "json"], "31"),
        (["simulate", "forward", "--depth", "2", "--width", "20", "--networks", "2"],
         None),
    ]

    def test_repeated_calls_match_fresh_processes(self, monkeypatch, capsys):
        # The parser is built once per process; each call must still print
        # what a fresh interpreter prints, byte for byte.
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("SIGNALPROP_QUAD_ORDER", raising=False)
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        fresh = []
        for argv, order in self.SEQUENCE:
            env = dict(os.environ, PYTHONPATH=src)
            if order is not None:
                env["SIGNALPROP_QUAD_ORDER"] = order
            result = subprocess.run([sys.executable, "-m", "signalprop.cli", *argv],
                                    capture_output=True, env=env)
            fresh.append((result.returncode, result.stdout.decode(),
                          result.stderr.decode()))
        for _ in range(2):
            for (argv, order), expected in zip(self.SEQUENCE, fresh):
                if order is None:
                    monkeypatch.delenv("SIGNALPROP_QUAD_ORDER", raising=False)
                else:
                    monkeypatch.setenv("SIGNALPROP_QUAD_ORDER", order)
                try:
                    status = cli.main(argv)
                except SystemExit as exc:
                    status = exc.code
                captured = capsys.readouterr()
                assert (status, captured.out, captured.err) == expected, argv
        assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 0]


class TestOutput:
    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        status = cli.main(["critical-line", "--sigma-b-sq", "0.05",
                           "--out", str(path)])
        assert status == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().startswith("sigma_b_sq,")

    def test_json_values_round_trip(self, capsys):
        status, out = run(["phase-diagram", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--format", "json"], capsys)
        assert status == 0
        rows = json.loads(out)
        assert rows[0]["sigma_w_sq"] == 1.7

    def test_csv_cell_formats(self):
        assert cli._csv_cell(math.inf) == "inf"
        assert cli._csv_cell(-math.inf) == "-inf"
        assert cli._csv_cell(math.nan) == "nan"
        assert float(cli._csv_cell(1 / 3)) == 1 / 3
        assert cli._csv_cell(None) == ""


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import signalprop.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
