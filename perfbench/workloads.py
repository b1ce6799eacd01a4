"""Seeded generation of the CLI argument lists each workload sends.

A workload is an endless sequence of *cycles*; a cycle is a fixed list of
command *slots*, each slot one ``signalprop`` command whose grid values
are drawn from the seed. Every cycle holds the same slots with the same
grid sizes, so a run that completes whole cycles always has the same
regime mix and the same number of points per cycle, whatever the seed.
Cycle ``i`` of seed ``s`` depends only on ``(s, i)``.

Grids are placed relative to the critical line, which the generator takes
from the independent oracle, so that a jittered grid never moves a point
across the order-to-chaos boundary: each slot keeps its cost.

Every timed point lies where the package's default 61-node quadrature
meets its documented accuracy: for ``tanh`` every variance the point
reaches stays at or below ``Q_MAX``, for ``hard_tanh`` at or below
``HARD_TANH_Q_MAX`` (beyond that the kinks cost up to 1e-3). The regimes
and code paths are the same as at larger variances, so is the cost per
point. The points where the package is known to be wrong are in
``DEFECT_PROBE``; the traced run checks them every time and reports what
fails, so those defects stay measured without failing a timed run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import oracle

WORKLOADS = ("sweep", "trajectory", "montecarlo")

#: Largest variance a timed tanh point reaches. At 0.45 the 61-node rule
#: is off by 2e-13 in E[tanh^2] and 1e-11 in E[tanh'^2]; at 1.3 by 6e-8
#: and 2e-6.
Q_MAX = 0.45
#: The same for hard_tanh, whose kinks sit at +-1/sqrt(q) standard
#: deviations: at 0.015 the error is below 1e-15, at 0.05 it is 5e-6.
HARD_TANH_Q_MAX = 0.015

#: The README-style hard_tanh grid; 6 of its 64 rows are error rows at the
#: time the benchmark was defined.
HARD_TANH_README = ("phase-diagram", "--activation", "hard_tanh",
                    "--sigma-w-sq", "0.5:4.0:15", "--sigma-b-sq", "0.01:0.3:4")

#: Known defects, run unchanged by every traced run and never timed: the
#: README hard_tanh grid (error rows, and values off by ~1e-3), the
#: hard_tanh critical line, and tanh at variances from 0.6 to 2.3, where
#: the default quadrature misses its documented 1e-12 by up to 1e-4 in
#: chi1. A fix of the quadrature shows as fewer ``probe.failed_rows``.
DEFECT_PROBE = (
    ("readme_hard_tanh", HARD_TANH_README),
    ("hard_tanh_line", ("critical-line", "--activation", "hard_tanh",
                        "--sigma-b-sq", "0.01:0.3:4")),
    ("tanh_large_q", ("phase-diagram", "--sigma-w-sq", "2.5:4.0:4",
                      "--sigma-b-sq", "0.05:0.3:2")),
    ("tanh_line_large_q", ("critical-line", "--sigma-b-sq", "0.05:0.3:4")),
    ("tanh_depth_large_q", ("trainable-depth", "--sigma-w-sq", "1.0:3.0:5",
                            "--sigma-b-sq", "0.2", "--rho", "0.95")),
)

_WARMUP_CYCLE = 1 << 30
_CONTEXT_KEY = (1 << 30) + 1


@dataclass(frozen=True)
class Command:
    slot: str
    argv: tuple[str, ...]
    points: int        # (sigma_w^2, sigma_b^2, rho) grid points requested
    rows: int          # rows the command must emit
    net_layers: int    # networks x layers simulated (0 for analytic commands)


def _num(x: float) -> str:
    return format(float(x), ".6g")


def _span(lo: float, hi: float, steps: int) -> str:
    return f"{_num(lo)}:{_num(hi)}:{steps}"


def option(argv, flag: str, default: str) -> str:
    """The value following ``flag`` in an argument list, or ``default``."""
    return argv[argv.index(flag) + 1] if flag in argv else default


def _option_values(argv, flag: str, default: str) -> list[float]:
    text = option(argv, flag, default)
    if flag == "--rho":
        return [float(v) for v in text.split(",")]
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    return list(np.linspace(float(parts[0]), float(parts[1]), int(parts[2])))


def command(slot: str, argv) -> Command:
    """Derive point, row and network-layer counts from an argument list."""
    argv = tuple(argv)
    sb = _option_values(argv, "--sigma-b-sq", "0.05")
    if argv[0] == "critical-line":
        return Command(slot, argv, len(sb), len(sb), 0)
    sw = _option_values(argv, "--sigma-w-sq", "1.0")
    rho = _option_values(argv, "--rho", "1.0")
    points = len(sw) * len(sb) * len(rho)
    if argv[0] == "simulate":
        depth = int(option(argv, "--depth", "60"))
        nets = int(option(argv, "--networks", "50"))
        return Command(slot, argv, points, points * depth, points * depth * nets)
    rows = points
    if argv[0] == "phase-diagram" and all(r == 1.0 for r in rho):
        rows += len(sb)  # one critical-line row per sigma_b^2
    return Command(slot, argv, points, rows, 0)


def context(workload: str, seed: int) -> dict:
    """Per-run constants: bias variances, critical lines, dropout rates."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, _CONTEXT_KEY])
    u = rng.uniform
    if workload == "montecarlo":
        return {"sw_f": u(1.1, 1.4), "sb_f": u(0.005, 0.01), "rho_f": u(0.9, 0.95),
                "sw_g": u(1.1, 1.6), "sb_g": u(0.005, 0.01),
                "sw_c": u(0.4, 0.8), "sb_c": u(0.05, 0.2)}
    # critical sigma_w^2 about 1.25-1.30 (q* 0.13-0.18) and 1.36-1.42 (q* 0.22-0.27)
    ctx = {"sb_a": u(0.002, 0.004), "sb_b": u(0.006, 0.01),
           "rho_d": u(0.9, 0.95), "rho_l": u(0.9, 0.97)}
    tanh = oracle.Moments("tanh")
    ctx["crit_a"] = oracle.critical_sigma_w(tanh, ctx["sb_a"])
    ctx["crit_b"] = oracle.critical_sigma_w(tanh, ctx["sb_b"])
    return ctx


def _sweep(ctx, rng) -> list[Command]:
    u = rng.uniform
    sb_a, sb_b, crit_a, crit_b = ctx["sb_a"], ctx["sb_b"], ctx["crit_a"], ctx["crit_b"]
    sb_pair = _span(sb_a, sb_b, 2)
    d = u(0.01, 0.03)
    rho_d = ctx["rho_d"]
    return [
        # ordered: sigma_w^2 < 1 <= critical sigma_w^2 for every sigma_b^2
        command("ordered", ["phase-diagram", "--sigma-w-sq",
                            _span(u(0.3, 0.4), u(0.8, 0.9), 10),
                            "--sigma-b-sq", sb_pair]),
        command("chaotic", ["phase-diagram", "--sigma-w-sq",
                            _span(1.1 * crit_b + u(0, 0.02), u(1.6, 1.65), 6),
                            "--sigma-b-sq", sb_pair]),
        # two points on each side of the critical line, within 3%
        command("near_critical", ["phase-diagram", "--sigma-w-sq",
                                  _span(crit_a * (1 - d), crit_a * (1 + d), 4),
                                  "--sigma-b-sq", _num(sb_a)]),
        command("dropout", ["phase-diagram", "--sigma-w-sq",
                            _span(u(0.8, 1.0), u(1.35, 1.4), 6),
                            "--sigma-b-sq", _num(sb_a),
                            "--rho", f"{_num(rho_d)},{_num(rho_d + 0.04)}"]),
        # degenerate ordered points (q* = 0) up to sigma_w^2 = 1, chaotic ones above
        command("zero_bias", ["phase-diagram", "--sigma-w-sq",
                              _span(u(0.6, 0.7), u(1.6, 1.65), 6),
                              "--sigma-b-sq", "0"]),
        command("critical_line", ["critical-line", "--sigma-b-sq",
                                  _span(u(0.001, 0.003), u(0.015, 0.02), 6)]),
        command("depth_dropout", ["trainable-depth", "--sigma-w-sq",
                                  _span(u(0.8, 1.0), u(1.35, 1.4), 6),
                                  "--sigma-b-sq", _num(sb_b), "--rho", _num(rho_d)]),
        command("depth_both_phases", ["trainable-depth", "--sigma-w-sq",
                                      _span(crit_b * u(0.49, 0.51), crit_b * u(1.14, 1.16), 6),
                                      "--sigma-b-sq", _num(sb_b), "--format", "json"]),
        # linear needs sigma_w^2 / rho < 1
        command("linear_phase", ["phase-diagram", "--activation", "linear",
                                 "--sigma-w-sq", _span(u(0.2, 0.3), u(0.75, 0.8), 5),
                                 "--sigma-b-sq", sb_pair,
                                 "--rho", f"{_num(ctx['rho_l'])},1", "--format", "json"]),
        command("linear_depth", ["trainable-depth", "--activation", "linear",
                                 "--sigma-w-sq", _span(u(0.2, 0.3), u(0.8, 0.9), 5),
                                 "--sigma-b-sq", _num(sb_a)]),
        # q* = sigma_b^2 / (1 - sigma_w^2 / rho) <= 0.012 keeps hard_tanh exact
        command("hard_tanh_dropout", ["phase-diagram", "--activation", "hard_tanh",
                                      "--sigma-w-sq", _span(u(0.2, 0.3), u(0.55, 0.6), 5),
                                      "--sigma-b-sq", _num(u(0.002, 0.004)),
                                      "--rho", f"{_num(rho_d)},1"]),
    ]


def _trajectory(ctx, rng) -> list[Command]:
    u = rng.uniform
    sb_a, sb_b, crit_a, crit_b = ctx["sb_a"], ctx["sb_b"], ctx["crit_a"], ctx["crit_b"]

    def ds(slot, sw, sb, *extra):
        return command(slot, ["depth-scales", "--sigma-w-sq", sw,
                              "--sigma-b-sq", _num(sb), *extra])

    return [
        # within 1% of the critical line the automatic depth hits its cap
        ds("near_ordered", _num(crit_a * (1 - u(0.006, 0.01))), sb_a),
        ds("near_chaotic", _num(crit_b * (1 + u(0.006, 0.01))), sb_b),
        ds("mid_ordered", _num(crit_a * (1 - u(0.045, 0.055))), sb_a),
        ds("mid_chaotic", _num(crit_b * (1 + u(0.098, 0.102))), sb_b, "--format", "json"),
        ds("dropout", _num(crit_a * u(0.95, 1.05)), sb_a, "--rho", _num(u(0.97, 0.99))),
        ds("zero_bias", _num(u(1.45, 1.55)), 0.0),
        ds("deep_ordered", _span(u(0.5, 0.55), u(0.85, 0.9), 3), sb_a),
        ds("far_chaotic", _num(u(1.6, 1.65)), sb_b, "--format", "json"),
        ds("linear", _num(u(0.5, 0.8)), sb_a, "--activation", "linear",
           "--rho", _num(u(0.9, 0.95))),
    ]


def _montecarlo(ctx, rng) -> list[Command]:
    def sim(slot, mode, sw, sb, depth, width, *extra):
        seed = str(int(rng.integers(0, 2**31)))
        return command(slot, ["simulate", mode, "--sigma-w-sq", _num(sw),
                              "--sigma-b-sq", _num(sb), "--depth", str(depth),
                              "--width", str(width), "--networks", "2",
                              "--q0", "0.3", "--seed", seed, *extra])

    return [
        # N=1000: the 8 MB weight matrix exceeds L2; N=300 (0.7 MB) fits
        sim("forward", "forward", ctx["sw_f"], ctx["sb_f"], 3, 1000),
        sim("forward_dropout", "forward", ctx["sw_f"], ctx["sb_f"], 3, 1000,
            "--rho", _num(ctx["rho_f"])),
        sim("gradients", "gradients", ctx["sw_g"], ctx["sb_g"], 8, 300),
        sim("grad_cov_tied", "grad-covariance", ctx["sw_c"], ctx["sb_c"], 6, 300,
            "--activation", "linear"),
        sim("grad_cov_independent", "grad-covariance", ctx["sw_c"], ctx["sb_c"], 6, 300,
            "--activation", "linear", "--backprop-weights", "independent"),
    ]


_CYCLES = {"sweep": _sweep, "trajectory": _trajectory, "montecarlo": _montecarlo}


def cycle(workload: str, seed: int, index: int, ctx: dict) -> list[Command]:
    """The commands of cycle ``index``; the same (seed, index) gives the same list."""
    return _CYCLES[workload](ctx, np.random.default_rng([seed, index]))


def warmup_cycle(workload: str, seed: int, ctx: dict) -> list[Command]:
    return cycle(workload, seed, _WARMUP_CYCLE, ctx)
