"""Tests of the benchmark's own logic (not of the package)."""
import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

import bench
import checks
import counting
import oracle
import spans
import workloads
from signalprop import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    def argvs(seed):
        ctx = workloads.context(workload, seed)
        return [[cmd.argv for cmd in workloads.cycle(workload, seed, i, ctx)]
                for i in range(3)]

    first = argvs(7)
    assert first == argvs(7)
    assert first != argvs(8)
    assert first[0] != first[1]
    # every cycle has the same slots
    ctx = workloads.context(workload, 7)
    slots = [[cmd.slot for cmd in workloads.cycle(workload, 7, i, ctx)] for i in range(3)]
    assert slots[0] == slots[1] == slots[2]


def test_counts_derived_from_argv():
    readme = workloads.command("x", workloads.HARD_TANH_README)
    assert (readme.points, readme.rows, readme.net_layers) == (60, 64, 0)
    dropout = workloads.command("x", ["phase-diagram", "--sigma-w-sq", "1:2:3",
                                      "--rho", "0.9,1"])
    assert (dropout.points, dropout.rows) == (6, 6)  # no critical rows with rho < 1
    sim = workloads.command("x", ["simulate", "forward", "--depth", "3",
                                  "--networks", "2", "--sigma-w-sq", "1:2:2"])
    assert (sim.points, sim.rows, sim.net_layers) == (2, 6, 12)


def _largest_q(cmd) -> float:
    """Largest variance a command's points reach, from the oracle."""
    name = workloads.option(cmd.argv, "--activation", "tanh")
    if name == "linear":
        return 0.0
    m = oracle.Moments(name)
    sbs = workloads._option_values(cmd.argv, "--sigma-b-sq", "0.05")
    rhos = workloads._option_values(cmd.argv, "--rho", "1.0")
    largest = float(workloads.option(cmd.argv, "--q0", "0")) if cmd.argv[0] == "simulate" else 0.0
    if cmd.argv[0] == "critical-line" or (cmd.argv[0] == "phase-diagram" and rhos == [1.0]):
        for sb in sbs:
            largest = max(largest, oracle.q_star(m, oracle.critical_sigma_w(m, sb), sb, 1.0))
    if cmd.argv[0] != "critical-line":
        for sw in workloads._option_values(cmd.argv, "--sigma-w-sq", "1.0"):
            for sb in sbs:
                for rho in rhos:
                    largest = max(largest, oracle.q_star(m, sw, sb, rho))
    return largest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_points_stay_where_quadrature_is_accurate(workload):
    limits = {"tanh": workloads.Q_MAX, "hard_tanh": workloads.HARD_TANH_Q_MAX}
    for seed in (1, 2, 3):
        ctx = workloads.context(workload, seed)
        for cmd in workloads.cycle(workload, seed, 0, ctx):
            name = workloads.option(cmd.argv, "--activation", "tanh")
            if name in limits:
                assert _largest_q(cmd) <= limits[name], cmd.argv
    # the probe does reach beyond them
    probe = [workloads.command(slot, argv) for slot, argv in workloads.DEFECT_PROBE]
    assert max(_largest_q(cmd) for cmd in probe) > 1.0


def test_depth_scales_compared_through_their_rates():
    # 1/xi differs by 1.7e-10 although xi differs by 7.8e-5
    assert checks._same_depth(670.5389694925186, 670.5390477249891)
    assert not checks._same_depth(670.6, 670.5390477249891)
    assert checks._same_depth(-661.6071410567971, -661.6071400877782)
    assert not checks._same_depth(2.9026, 2.902553385184556)
    assert checks._same_depth(float("inf"), float("inf"))
    assert checks._same_depth(float("nan"), float("nan"))
    assert not checks._same_depth(1e6, float("inf"))


def test_percentile_needs_ten_samples_beyond():
    assert spans.percentile(list(range(99)), 0.9) is None
    assert spans.percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert spans.percentile(list(range(19)), 0.5) is None
    assert spans.percentile(list(range(20)), 0.5) == pytest.approx(9.5)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    tree = [spans.Span("cli.main", -1, 0, 0.0, 10.0),
            spans.Span("meanfield.fixed_point", 0, 0, 1.0, 6.0),
            spans.Span("meanfield.chi1", 1, 0, 2.0, 3.0, error="ConvergenceError"),
            spans.Span("analysis.residuals", 0, 0, 7.0, 9.0)]
    tree[1].error = "ConvergenceError"
    assert spans.self_times(tree) == [3.0, 4.0, 1.0, 2.0]
    assert sum(spans.self_times(tree)) == 10.0
    agg = spans.summarize(tree)
    # the exception is counted once, where it leaves meanfield
    assert dict(agg["meanfield.fixed_point"]["errors"]) == {"ConvergenceError": 1}
    assert dict(agg["meanfield.chi1"]["errors"]) == {}


def test_tracer_restores_wrapped_functions():
    originals = {name: getattr(mod, attr) for name, mod in bench._TRACED_MODULES.items()
                 for attr in spans.TARGETS[name]}
    tracer = spans.Tracer()
    with tracer.installed(bench._TRACED_MODULES):
        assert cli.main is not originals["cli"]
        bench._run(workloads.command("x", ["depth-scales", "--sigma-w-sq", "0.8"]))
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and "meanfield.iterate_trajectory" in names
    assert cli.main is originals["cli"]


def test_counting_activation_identity():
    cmd = workloads.command("x", ["phase-diagram", "--sigma-w-sq", "0.5:2.5:3",
                                  "--sigma-b-sq", "0.05", "--rho", "0.9,1"])
    plain, status, _ = bench._run(cmd)
    counts = []
    for _ in range(2):
        counter = counting.Counter()
        with counting.counting_cli(cli, counter):
            again, again_status, _ = bench._run(cmd)
        assert (again, again_status) == (plain, status)
        counts.append((counter.calls, counter.evals))
    assert counts[0] == counts[1] and counts[0][1] > counts[0][0] > 0
    assert cli.builtin("tanh").phi is np.tanh  # the patch is undone


@pytest.mark.parametrize("q", [0.3, 1.3, 3.0])
def test_oracle_matches_mpmath(q):
    pdf = mpmath.npdf
    inf = mpmath.inf

    def expect(f):
        return float(mpmath.quad(lambda z: f(z) * pdf(z), [-inf, 0, inf]))

    tanh = oracle.Moments("tanh")
    root = mpmath.sqrt(q)
    assert tanh.second(q) == pytest.approx(expect(lambda z: mpmath.tanh(root * z) ** 2),
                                           abs=1e-14)
    assert tanh.slope(q) == pytest.approx(expect(lambda z: mpmath.sech(root * z) ** 4),
                                          abs=1e-14)
    hard = oracle.Moments("hard_tanh")
    clip = lambda x: max(-1, min(1, x))
    a = 1 / root
    assert hard.second(q) == pytest.approx(
        float(mpmath.quad(lambda z: clip(root * z) ** 2 * pdf(z), [-inf, -a, 0, a, inf])),
        abs=1e-14)
    # c = 0 factorizes; c = 1 collapses to the single-input moment
    assert tanh.cross(q, q, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert tanh.cross(q, q, 1.0) == pytest.approx(tanh.second(q), abs=1e-14)


def test_checker_counts_failures_without_raising():
    checker = checks.Checker()
    readme = workloads.command("x", workloads.HARD_TANH_README)
    good = workloads.command("x", ["phase-diagram", "--activation", "linear",
                                   "--sigma-w-sq", "0.5", "--sigma-b-sq", "0.1",
                                   "--rho", "0.8"])
    text, status, _ = bench._run(good)
    checker.add(good, text, status)
    assert (checker.attempted, checker.failed, checker.malformed) == (1, 0, [])
    checker.add(good, text.replace("0.5,", "0.6,"), status)  # wrong sigma_w^2
    assert checker.failed == 1 and not checker.malformed
    checker.add(readme, text, status)  # one row where 64 are due
    assert len(checker.malformed) == 1
    checker.add(good, "", None)  # the command raised
    assert len(checker.malformed) == 2 and checker.failed == 2 + good.rows


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
