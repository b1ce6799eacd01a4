"""CLI: argument handling, table formats, round-tripping, exit codes."""
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signalprop import cli
from signalprop.activations import builtin


def run(argv, capsys):
    status = cli.main(argv)
    return status, capsys.readouterr().out


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


_SMALL_NET = ["--depth", "3", "--width", "20", "--networks", "2"]


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

    @pytest.mark.parametrize("order", ["1", "0"])
    def test_bad_quad_order_flag_exits_with_message(self, order, capsys):
        status = cli.main(["phase-diagram", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--quad-order", order])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: quadrature order must be >= 2, got {order}\n"

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_exits_with_message(self, where, tmp_path, monkeypatch, capsys):
        # The output is opened before the sweep, which never runs.
        path = tmp_path / "missing" / "t.csv" if where == "missing directory" else tmp_path
        reason = "No such file or directory" if where == "missing directory" else "Is a directory"

        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli.meanfield, "critical_sigma_w", unreachable)
        status = cli.main(["critical-line", "--sigma-b-sq", "0.05", "--out", str(path)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: {reason}\n"

    def test_non_finite_rule_flag_exits_with_message(self, capsys):
        status = cli.main(["phase-diagram", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--quad-order", "400"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err == ("error: quadrature order 400 is too large: its "
                                "Gauss-Hermite nodes or weights are not finite\n")

    def test_bad_flag_exits_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["phase-diagram", "--sigma-w-sq", "1:2"])
        assert excinfo.value.code != 0
        assert "--sigma-w-sq" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["critical-line", "--rho", "0.9"],  # dropout has no critical line
        ["phase-diagram", "--q0", "0.5"],
        ["trainable-depth", "--fit-floor", "1e-9"],
        ["simulate", "forward", "--fit-floor", "1e-9"],
        # forward has no readout; gradients runs one input
        ["simulate", "forward", *_SMALL_NET, "--classes", "0",
         "--backprop-weights", "independent"],
        ["simulate", "forward", *_SMALL_NET, "--classes", "3"],
        ["simulate", "gradients", *_SMALL_NET, "--c0", "-0.9"],
        # the file fixes the inputs
        ["simulate", "grad-covariance", *_SMALL_NET, "--input-file", "inputs.f32",
         "--q0", "0.5"],
        ["simulate", "forward", "--c0", "0.5", "--input-file", "inputs.f32"],
    ])
    def test_each_command_rejects_a_flag_it_does_not_read(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        # The command's own usage and error line, naming the flag.
        command = " ".join(argv[:2] if argv[0] == "simulate" else argv[:1])
        assert captured.err.startswith(f"usage: signalprop {command} [-h]")
        error = captured.err.splitlines()[-1]
        assert error.startswith(f"signalprop {command}: error: ")
        assert argv[-2] in error

    def test_oversized_quad_order_is_rejected_before_the_rule_is_built(self, capsys):
        # hermgauss would take minutes and gigabytes at this order.
        status = cli.main(["critical-line", "--quad-order", str(10 ** 6)])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("error: quadrature order 1000000 is too large")


class TestErrorRows:
    # Inputs outside the domain: one typed error row per point and exit 2,
    # never a traceback, a nan cell or an empty table.
    @pytest.mark.parametrize("argv, message", [
        (["phase-diagram", "--sigma-w-sq", "inf"], "sigma_w_sq must be finite"),
        (["phase-diagram", "--sigma-w-sq", "nan"], "sigma_w_sq must be finite"),
        (["depth-scales", "--sigma-w-sq", "nan"], "sigma_w_sq must be finite"),
        (["simulate", "forward", "--sigma-w-sq", "inf", *_SMALL_NET],
         "sigma_w_sq must be finite"),
        (["critical-line", "--sigma-b-sq", "inf"], "sigma_b_sq must be finite"),
        (["simulate", "gradients", "--classes", "0", *_SMALL_NET],
         "a softmax readout needs at least 2 classes"),
        (["simulate", "gradients", "--classes", "1", *_SMALL_NET],
         "a softmax readout needs at least 2 classes"),
        (["simulate", "grad-covariance", "--classes", "0", *_SMALL_NET],
         "a softmax readout needs at least 2 classes"),
        (["simulate", "grad-covariance", "--classes", "1", *_SMALL_NET],
         "a softmax readout needs at least 2 classes"),
        (["simulate", "forward", "--input-file", "/nonexistent/inputs.f32", *_SMALL_NET],
         "cannot read input file"),
        (["depth-scales", "--fit-floor", "1e-2", "--fit-ceiling", "1e-3"],
         "fit window needs 0 < floor < ceiling"),
        (["depth-scales", "--fit-floor", "0"], "fit window needs 0 < floor < ceiling"),
        (["depth-scales", "--depth", "-3"], "layers must be >= 1"),
        # the input scale itself, 2 * 1e-300 / 1e308, underflows to 0
        (["simulate", "forward", "--sigma-w-sq", "1e308", "--q0", "1e-300", "--sigma-b-sq",
          "0", "--depth", "4", "--width", "2", "--networks", "2"],
         "input scale N rho (q0 - sigma_b^2) / sigma_w^2"),
        # tanh' underflows: every gradient norm is 0
        (["simulate", "gradients", "--sigma-w-sq", "1e100", "--depth", "4", "--width", "20",
          "--networks", "2"], "Monte Carlo truncated at layer 0"),
        (["simulate", "forward", "--seed", "-1", "--depth", "2", "--width", "20",
          "--networks", "2"], "seed must be >= 0, got -1"),
        # nan and inf starts are rejected by name, not met downstream
        (["depth-scales", "--sigma-w-sq", "1.7", "--c0", "nan"], "c0 must lie in [-1, 1]"),
        (["depth-scales", "--sigma-w-sq", "1.7", "--q0", "inf"], "q0_a must be finite"),
        (["simulate", "forward", "--depth", "2", "--width", "20", "--networks", "2",
          "--c0", "nan"], "c0 must lie in [-1, 1]"),
        # the q* bracket's first upper end, sigma_w^2/rho + sigma_b^2 + 1, is inf
        (["depth-scales", "--sigma-w-sq", "1e308", "--rho", "0.5"], "q* bracket overflows"),
        (["phase-diagram", "--sigma-w-sq", "1e308", "--sigma-b-sq", "1e308"],
         "q* bracket overflows"),
        # petabyte arrays: the allocation fails at once on a 64-bit system
        (["simulate", "gradients", "--depth", "2", "--width", "20", "--networks", "2",
          "--classes", "1000000000000000"], "Unable to allocate"),
        (["simulate", "forward", "--depth", "2", "--width", "20",
          "--networks", "1000000000000000"], "Unable to allocate"),
        # one ulp below 1, the rule's E[z^2] = 1 + 4.4e-16 leaves linear's
        # V(q) - q rising, so there is no root to bracket
        (["phase-diagram", "--activation", "linear", "--sigma-w-sq", "0.9999999999999998",
          "--sigma-b-sq", "0.87"],
         "no variance fixed point at sigma_w_sq/rho=0.9999999999999998, sigma_b_sq=0.87"),
        # linear's phi^2 overflows on the outer nodes, at the first upper end
        # and at a root near the largest double
        (["phase-diagram", "--activation", "linear", "--sigma-w-sq", "1e307"],
         "E[phi^2] overflows at q=1e+307"),
        (["phase-diagram", "--activation", "linear", "--sigma-w-sq", "0.5",
          "--sigma-b-sq", "1e307"], "E[phi^2] overflows at q=1e+307"),
    ])
    def test_error_row(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out = run(argv, capsys)
        assert status == cli.EXIT_PARTIAL
        rows = parse_csv(out)
        assert rows[0]["error"].startswith(message)

    @pytest.mark.parametrize("mode", ["forward", "gradients", "grad-covariance"])
    def test_width_one_is_one_error_row(self, mode, capsys):
        # Two synthetic inputs span a plane, which one unit cannot hold:
        # a typed error row, not a 0/0 warning or an empty table.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out = run(["simulate", mode, "--depth", "2", "--width", "1",
                               "--networks", "2"], capsys)
        assert status == cli.EXIT_PARTIAL
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["error"] == "synthetic inputs need width >= 2, got width=1"


def _near(centre, low, high):
    """centre +- 10^U(low, high)."""
    return st.builds(lambda sign, e: centre + sign * 10.0 ** e,
                     st.sampled_from([-1.0, 1.0]), st.floats(low, high))


def _log_uniform(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@st.composite
def _quad_orders(draw):
    """The default rule four times in five, else an order from 2 to 201."""
    if draw(st.integers(0, 4)):
        return None
    return draw(st.sampled_from([2, 3, 21, 61, 201]))


@given(command=st.sampled_from(["phase-diagram", "critical-line", "depth-scales",
                                "trainable-depth"]),
       act=st.sampled_from(["tanh", "hard_tanh", "linear"]),
       sw2=st.one_of(st.floats(0.01, 10.0), _log_uniform(-4.0, 1.0), _near(1.0, -16.0, -2.0)),
       sb2=st.one_of(st.just(0.0), _log_uniform(-300.0, 0.0), st.floats(0.0, 1.0)),
       rho=st.one_of(st.just(1.0), st.floats(0.5, 1.0),
                     _log_uniform(-12.0, -1.0).map(lambda gap: 1.0 - gap)),
       order=_quad_orders())
# V(q) - q of linear one ulp below sigma_w^2 = 1 rises on the 61-node rule
@example(command="phase-diagram", act="linear", sw2=0.9999999999999998, sb2=0.87,
         rho=1.0, order=None)
@settings(max_examples=60, deadline=None)
def test_every_analytic_point_is_a_row(command, act, sw2, sb2, rho, order):
    # A value, a flagged non-finite or a typed error row, everywhere in
    # the domain: never a traceback or a numpy warning.
    argv = [command, "--activation", act, "--sigma-b-sq", repr(sb2)]
    if command != "critical-line":
        argv += ["--sigma-w-sq", repr(sw2), "--rho", repr(rho)]
    if order is not None:
        argv += ["--quad-order", str(order)]
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error", RuntimeWarning)
        status = cli.main(argv)
    assert status in (cli.EXIT_OK, cli.EXIT_PARTIAL)
    table = csv.DictReader(io.StringIO(out.getvalue()))
    rows = list(table)
    # phase-diagram adds a critical row for a bounded activation at rho = 1
    critical = command == "phase-diagram" and builtin(act).bounded and rho == 1.0
    assert len(rows) == 1 + critical
    assert ("error" in table.fieldnames) == (status == cli.EXIT_PARTIAL)
    for row in rows:
        if row.get("error"):
            continue
        for column, cell in row.items():
            if column not in ("phase", "error"):
                float(cell)


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

    def test_linear_q_star_far_above_the_first_bracket(self, capsys):
        # q* = sigma_b^2 / (1 - sigma_w^2) = 500; linear has no critical
        # line, so no critical row is requested.
        status, out = run(["phase-diagram", "--activation", "linear",
                           "--sigma-w-sq", "0.9999", "--sigma-b-sq", "0.05"], capsys)
        assert status == 0
        rows = parse_csv(out)
        assert len(rows) == 1 and "error" not in rows[0]
        assert math.isclose(float(rows[0]["q_star"]), 500.0, rel_tol=1e-11)


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

    @pytest.mark.parametrize("extra", [
        ["--q0", "0"],         # a zero variance from the start
        ["--depth", "1200"],   # 0.8 * 0.5^L underflows to 0
    ])
    def test_zero_variance_on_the_trajectory_is_an_error_row(self, extra, capsys):
        status, out = run(["depth-scales", "--sigma-w-sq", "0.5",
                           "--sigma-b-sq", "0", *extra], capsys)
        assert status == cli.EXIT_PARTIAL
        rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0]["error"].startswith("correlation undefined")


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

    @pytest.mark.parametrize("flags", [
        ["--q0", "1e200", "--depth", "3"],          # q0_a q0_b overflows
        ["--sigma-w-sq", "1e250", "--depth", "4"],  # the input scales' product underflows
    ])
    def test_input_scales_whose_product_leaves_the_double_range(self, flags, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out = run(["simulate", "forward", *flags, "--width", "20",
                               "--networks", "2"], capsys)
        assert status == 0
        rows = parse_csv(out)
        assert len(rows) == int(flags[-1])
        q0 = float(flags[1]) if flags[0] == "--q0" else 0.8
        assert math.isclose(float(rows[0]["q_aa_theory"]), q0, rel_tol=1e-15)
        assert abs(float(rows[0]["c_ab_theory"]) - 0.6) <= 1e-15

    def test_huge_variances_keep_finite_statistics(self, capsys):
        # q_a q_b and the squares of the spread overflow where each
        # variance is still finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status, out = run(["simulate", "forward", "--sigma-w-sq", "1e160",
                               "--depth", "4", "--width", "20", "--networks", "2"], capsys)
        assert status == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        for row in rows:
            for column in ("q_aa_hat", "q_aa_stderr", "c_ab_hat", "c_ab_stderr"):
                assert math.isfinite(float(row[column]))
            assert abs(float(row["c_ab_hat"])) <= 1.0
        assert float(rows[3]["q_aa_hat"]) > 1e159


class TestSimulateModes:
    # A value other than the default for every flag a simulate mode takes.
    CHANGED = {
        "--sigma-w-sq": "1.3", "--sigma-b-sq": "0.1", "--rho": "0.9",
        "--activation": "hard_tanh", "--format": "json", "--quad-order": "31",
        "--q0": "0.5", "--c0": "0.3", "--depth": "3", "--width": "30",
        "--networks": "3", "--seed": "1", "--backprop-weights": "independent",
        "--classes": "3",
    }

    @pytest.mark.parametrize("mode", ["forward", "gradients", "grad-covariance"])
    def test_every_flag_changes_the_output(self, mode, tmp_path, capsys):
        path = tmp_path / "inputs.f32"
        np.random.default_rng(0).standard_normal((2, 20)).astype("<f4").tofile(path)
        changed = dict(self.CHANGED, **{"--out": str(tmp_path / "table.csv"),
                                        "--input-file": str(path)})
        base = ["simulate", mode, "--depth", "2", "--width", "20", "--networks", "2"]
        status, default = run(base, capsys)
        assert status == 0
        flags = [names[0] for names, _ in cli._COMMANDS[f"simulate {mode}"][0]]
        assert len(flags) == {"forward": 14, "gradients": 15, "grad-covariance": 16}[mode]
        for flag in flags:
            status, out = run(base + [flag, changed[flag]], capsys)
            assert status == 0, flag
            assert out != default, flag

    def test_file_input_theory_starts_at_the_realized_moments(self, tmp_path, capsys):
        path = tmp_path / "inputs.f32"
        vectors = np.random.default_rng(0).standard_normal((2, 32)).astype("<f4")
        vectors.tofile(path)
        status, out = run(["simulate", "forward", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--rho", "0.9", "--depth", "2",
                           "--width", "32", "--networks", "2",
                           "--input-file", str(path)], capsys)
        assert status == 0
        row = parse_csv(out)[0]
        x_a, x_b = vectors.astype(float)
        q_a = 1.7 * (x_a @ x_a) / (0.9 * 32) + 0.05
        q_b = 1.7 * (x_b @ x_b) / (0.9 * 32) + 0.05
        c = (1.7 * (x_a @ x_b) / 32 + 0.05) / math.sqrt(q_a * q_b)
        assert math.isclose(float(row["q_aa_theory"]), q_a, rel_tol=1e-14)
        assert math.isclose(float(row["c_ab_theory"]), c, rel_tol=1e-14)

    def test_clamped_correlation_theory_tracks_monte_carlo(self, capsys):
        # Independent masks at rho = 0.9 cap the inputs' correlation at
        # 0.90625 below the requested 0.99; the theory starts there too.
        status, out = run(["simulate", "forward", "--sigma-w-sq", "1.7",
                           "--sigma-b-sq", "0.05", "--rho", "0.9", "--c0", "0.99",
                           "--depth", "3", "--width", "1000", "--networks", "50"],
                          capsys)
        assert status == 0
        rows = parse_csv(out)
        assert math.isclose(float(rows[0]["c_ab_theory"]), 0.90625, rel_tol=1e-14)
        for row in rows:
            for hat, stderr, theory in (("q_aa_hat", "q_aa_stderr", "q_aa_theory"),
                                        ("c_ab_hat", "c_ab_stderr", "c_ab_theory")):
                assert abs(float(row[hat]) - float(row[theory])) <= 5 * float(row[stderr])

    def test_zero_chi1_gives_an_infinite_slope(self, capsys):
        # On the 2-node rule hard_tanh' vanishes at both nodes sqrt(q*) * +/-1.
        status, out = run(["simulate", "gradients", "--activation", "hard_tanh",
                           "--quad-order", "2", "--sigma-w-sq", "4", "--depth", "2",
                           "--width", "10", "--networks", "2"], capsys)
        assert status == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        assert all(row["theory_slope"] == "inf" for row in rows)


class TestParserReuse:
    # An argparse error, defaults right after explicit values, and an order
    # changed between calls.
    SEQUENCE = [
        ["phase-diagram", "--sigma-w-sq", "0.5:1.5:3", "--rho", "1,0.9"],
        ["phase-diagram", "--sigma-w-sq", "1:2"],
        ["phase-diagram"],
        ["phase-diagram", "--format", "json", "--quad-order", "31"],
        ["simulate", "forward", "--depth", "2", "--width", "20", "--networks", "2"],
    ]

    def test_repeated_calls_match_fresh_processes(self, monkeypatch, capsys):
        # The parser is built once per process; each call must still print
        # what a fresh interpreter prints, byte for byte.
        monkeypatch.setenv("COLUMNS", "80")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        fresh = []
        for argv in self.SEQUENCE:
            result = subprocess.run([sys.executable, "-m", "signalprop.cli", *argv],
                                    capture_output=True, env=dict(os.environ, PYTHONPATH=src))
            fresh.append((result.returncode, result.stdout.decode(),
                          result.stderr.decode()))
        for _ in range(2):
            for argv, expected in zip(self.SEQUENCE, fresh):
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
