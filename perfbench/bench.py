"""Measurement passes of the benchmark; ``run.py`` is the entry point.

Importing this module imports numpy and ``signalprop``: ``run.py`` caps
BLAS threads and puts ``src/`` on ``sys.path`` first.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from signalprop import analysis, backprop, cli, meanfield, simulator

import checks
import counting
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "command_ms.p50": "ms",
    "command_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

_MEANFIELD_ERRORS = ("ConvergenceError", "NoFixedPointError", "DomainError",
                     "DegenerateVarianceError", "NumericError", "ConfigurationError")
_SIMULATOR = ("forward_pair", "backward_gradients", "backward_covariance")

PER_LAYER = {
    "import.scipy_s": "s",
    "import.signalprop_s": "s",
    "quadrature.rule.cold_ms": "ms",
    "quadrature.integrand_calls": "count",
    "quadrature.integrand_evals": "count",
    "meanfield.fixed_point.calls": "count",
    "meanfield.fixed_point.self_s": "s",
    "meanfield.fixed_point.ms.p50": "ms",
    "meanfield.fixed_point.ms.p90": "ms",
    "meanfield.fixed_point.iterations_q": "count",
    "meanfield.fixed_point.iterations_c": "count",
    "meanfield.critical_sigma_w.calls": "count",
    "meanfield.critical_sigma_w.self_s": "s",
    "meanfield.critical_sigma_w.ms.p50": "ms",
    "meanfield.chi1.self_s": "s",
    "meanfield.xi_c.self_s": "s",
    "meanfield.depth_scales.self_s": "s",
    "meanfield.iterate_trajectory.calls": "count",
    "meanfield.iterate_trajectory.self_s": "s",
    "meanfield.iterate_trajectory.layers": "count",
    "meanfield.iterate_trajectory.us_per_layer": "us",
    "meanfield.errors": "count",
    **{f"meanfield.errors.{name}": "count" for name in _MEANFIELD_ERRORS},
    "backprop.grad_covariance_factor.self_s": "s",
    "analysis.residuals.self_s": "s",
    "analysis.fit_exponential.self_s": "s",
    "analysis.fit_exponential.failed": "count",
    **{f"simulator.{fn}.{key}": unit for fn in _SIMULATOR
       for key, unit in (("self_s", "s"), ("us_per_net_layer", "us"))},
    "simulator.prepare_inputs.self_s": "s",
    "simulator.truncated": "count",
    "simulator.net_layers_per_s": "1/s",
    "cli.build_parser.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.emit.bytes": "bytes",
    "cli.main.self_s": "s",
    "failed_share": "ratio",
    "checks.error_rows": "count",
    "checks.mismatch_rows": "count",
    "probe.rows": "count",
    "probe.failed_rows": "count",
    "probe.error_rows": "count",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
    "trace.self_time_ok": "count",
    "trace.spans": "count",
}

#: p90 needs 10 samples beyond it, so every timed run has >= 100 commands.
MIN_COMMANDS = 100
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
#: Cycles in each pass of a traced run (about a third of --seconds each
#: at the time the benchmark was defined), and cycles in the counting pass.
TRACED_CYCLES = {"sweep": 6, "trajectory": 4, "montecarlo": 8}
COUNTED_CYCLES = {"sweep": 1, "trajectory": 1, "montecarlo": 0}

# What a fresh interpreter must do before it can run a command.
_SETUP = ("import sys, time\n"
          "sys.path.insert(0, sys.argv[1])\n"
          "import signalprop.cli as cli\n"
          "cli.build_parser()\n"
          "from signalprop import quadrature\n"
          "t = time.perf_counter()\n"
          "quadrature.rule()\n"
          "print(time.perf_counter() - t)\n")

_TRACED_MODULES = {"meanfield": meanfield, "analysis": analysis, "backprop": backprop,
                   "simulator": simulator, "cli": cli}

_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def _fresh_setup(importtime: bool) -> tuple[float, str, str]:
    """Wall time of one fresh interpreter doing the set-up, and its output."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           "-c", _SETUP, str(SRC)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
    return wall, proc.stdout, proc.stderr


def _import_times(stderr: str) -> tuple[float, float]:
    """(scipy self time, signalprop cumulative time) in seconds."""
    scipy_us = signalprop_us = 0
    for own, cumulative, indent, module in _IMPORTTIME.findall(stderr):
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += int(own)
        if not indent and module.split(".")[0] == "signalprop":
            signalprop_us += int(cumulative)
    return scipy_us * 1e-6, signalprop_us * 1e-6


def _run(cmd) -> tuple[str, int | None, float]:
    """One closed-loop command: (captured stdout, exit status, seconds)."""
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            status = cli.main(list(cmd.argv))
    except (Exception, SystemExit) as exc:  # recorded as a malformed command
        status = None
        print(f"perfbench: {' '.join(cmd.argv)} raised {exc!r}", file=sys.stderr)
    return buffer.getvalue(), status, time.perf_counter() - start


def _pass(commands, tracer=None) -> tuple[list, float]:
    """Run a fixed list of commands; return [(text, status, seconds)] and wall time."""
    results = []
    start = time.perf_counter()
    for index, cmd in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        results.append(_run(cmd))
    return results, time.perf_counter() - start


def _check(checker, commands, results) -> None:
    for cmd, (text, status, _) in zip(commands, results):
        checker.add(cmd, text, status)
    checker.finish()


def end_to_end(workload: str, seed: int, seconds: float, ctx: dict):
    """End-to-end metrics, their sample counts, and the output checker."""
    setups = [_fresh_setup(importtime=False)[0] for _ in range(SETUP_REPEATS)]
    for cmd in workloads.warmup_cycle(workload, seed, ctx):
        _run(cmd)
    commands, results, cycle_seconds = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < MIN_COMMANDS:
        batch = workloads.cycle(workload, seed, len(cycle_seconds), ctx)
        ran, wall = _pass(batch)
        commands += batch
        results += ran
        cycle_seconds.append(wall)
    checker = checks.Checker()
    _check(checker, commands, results)
    latencies = [dt * 1e3 for _, _, dt in results]
    metrics = {
        "setup_s": statistics.median(setups),
        "points_per_s": sum(cmd.points for cmd in commands) / sum(cycle_seconds),
        "command_ms.p50": spans.percentile(latencies, 0.5),
        "command_ms.p90": spans.percentile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setups), "points_per_s": sum(cmd.points for cmd in commands),
               "command_ms.p50": len(latencies), "command_ms.p90": len(latencies),
               "peak_rss_mb": 1}
    return metrics, samples, checker


def _defect_probe():
    """Run and check the known-defect commands, untimed and untraced.

    Their failures are reported as ``probe.*`` metrics, apart from the
    workload's own rows.
    """
    probe = checks.Checker()
    for slot, argv in workloads.DEFECT_PROBE:
        cmd = workloads.command(slot, argv)
        text, status, _ = _run(cmd)
        probe.add(cmd, text, status)
    probe.finish()
    for problem in probe.malformed:
        print(f"perfbench: defect probe: {problem}", file=sys.stderr)
    return probe


def per_layer(workload: str, seed: int, ctx: dict):
    """Per-layer metrics, their sample counts, and the output checker."""
    probes = [_fresh_setup(importtime=True) for _ in range(IMPORTTIME_REPEATS)]
    imports = [_import_times(stderr) for _, _, stderr in probes]
    for cmd in workloads.warmup_cycle(workload, seed, ctx):
        _run(cmd)
    commands = [cmd for index in range(TRACED_CYCLES[workload])
                for cmd in workloads.cycle(workload, seed, index, ctx)]
    checker = checks.Checker()
    plain, plain_wall = _pass(commands)

    # every cycle has the same slots, so the first cycles are a prefix
    n_counted = COUNTED_CYCLES[workload] * len(commands) // TRACED_CYCLES[workload]
    counted = list(zip(commands, plain))[:n_counted]
    counter = counting.Counter()
    with counting.counting_cli(cli, counter):
        recount, _ = _pass([cmd for cmd, _ in counted])
    for (cmd, (text, _, _)), (again, _, _) in zip(counted, recount):
        if again != text:
            checker.malformed.append(" ".join(cmd.argv) + ": counting activation changed output")
    counted_points = sum(cmd.points for cmd, _ in counted)

    tracer = spans.Tracer()
    with tracer.installed(_TRACED_MODULES):
        traced, traced_wall = _pass(commands, tracer)
    for cmd, (text, _, _), (again, _, _) in zip(commands, plain, traced):
        if again != text:
            checker.malformed.append(" ".join(cmd.argv) + ": tracing changed output")
    _check(checker, commands, plain)
    probe = _defect_probe()

    agg = spans.summarize(tracer.spans)
    own_total = sum(spans.self_times(tracer.spans))
    overhead = traced_wall - plain_wall
    unaccounted = traced_wall - own_total

    def ms_quantile(name, q):
        value = spans.percentile(agg[name]["durations"], q)
        return 0.0 if value is None else value * 1e3

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    fp = agg["meanfield.fixed_point"]
    traj = agg["meanfield.iterate_trajectory"]
    m = {
        "import.scipy_s": statistics.median(s for s, _ in imports),
        "import.signalprop_s": statistics.median(s for _, s in imports),
        "quadrature.rule.cold_ms": statistics.median(float(out) for _, out, _ in probes) * 1e3,
        "quadrature.integrand_calls": per(counter.calls, counted_points, 1),
        "quadrature.integrand_evals": per(counter.evals, counted_points, 1),
        "meanfield.fixed_point.ms.p50": ms_quantile("meanfield.fixed_point", 0.5),
        "meanfield.fixed_point.ms.p90": ms_quantile("meanfield.fixed_point", 0.9),
        "meanfield.fixed_point.iterations_q": fp["info"]["iterations_q"],
        "meanfield.fixed_point.iterations_c": fp["info"]["iterations_c"],
        "meanfield.critical_sigma_w.ms.p50": ms_quantile("meanfield.critical_sigma_w", 0.5),
        "meanfield.iterate_trajectory.layers": traj["info"]["layers"],
        "meanfield.iterate_trajectory.us_per_layer": per(traj["self_s"], traj["info"]["layers"],
                                                         1e6),
        "analysis.fit_exponential.failed": sum(agg["analysis.fit_exponential"]["errors"].values()),
        "simulator.net_layers_per_s": sum(cmd.net_layers for cmd in commands) / plain_wall,
        "cli.emit.bytes": sum(len(text) for text, _, _ in traced),
        "trace.overhead_s": overhead,
        "trace.unaccounted_s": unaccounted,
        "trace.self_time_ok": int(abs(unaccounted) <= abs(overhead)),
        "trace.spans": len(tracer.spans),
    }
    for name in PER_LAYER:
        layer_fn, _, key = name.rpartition(".")
        if key in ("calls", "self_s") and name not in m:
            m[name] = agg[layer_fn][key]
    m["simulator.truncated"] = 0
    for fn in _SIMULATOR:
        sim = agg[f"simulator.{fn}"]
        m[f"simulator.{fn}.us_per_net_layer"] = per(sim["self_s"], sim["info"]["net_layers"], 1e6)
        m["simulator.truncated"] += sim["info"]["truncated"]
    errors = defaultdict(int)
    for name, data in agg.items():
        if name.startswith("meanfield."):
            for cls, count in data["errors"].items():
                errors[cls] += count
    m["meanfield.errors"] = sum(errors.values())
    for cls in _MEANFIELD_ERRORS:
        m[f"meanfield.errors.{cls}"] = errors[cls]
    m["failed_share"] = checker.failed / checker.attempted if checker.attempted else 0.0
    m["checks.error_rows"] = checker.error_rows
    m["checks.mismatch_rows"] = checker.failed - checker.error_rows
    m["probe.rows"] = probe.attempted
    m["probe.failed_rows"] = probe.failed
    m["probe.error_rows"] = probe.error_rows

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}-{seed}.jsonl", "w") as handle:
        for record in spans.to_records(tracer.spans):
            handle.write(json.dumps(record) + "\n")
    samples = {"meanfield.fixed_point.ms.p50": fp["calls"],
               "meanfield.fixed_point.ms.p90": fp["calls"],
               "meanfield.critical_sigma_w.ms.p50": agg["meanfield.critical_sigma_w"]["calls"]}
    return m, samples, checker


def report(metrics: dict, samples: dict, units: dict, checker) -> dict:
    """Print a table of the metrics with sample counts; return the result object."""
    for problem in checker.malformed:
        print(f"perfbench: malformed: {problem}", file=sys.stderr)
    for name, unit in units.items():
        count = f"n={samples[name]}" if name in samples else ""
        print(f"{name:45s} {metrics[name]:>16.6g} {unit:6s} {count}")
    print(f"{'rows attempted / failed':45s} {checker.attempted:>8d} / {checker.failed}")
    return {
        "correct": not checker.malformed,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
