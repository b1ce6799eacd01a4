"""Command-line front end: hyperparameter sweeps emitting CSV/JSON tables.

Subcommands
-----------
phase-diagram     q*, c*, chi1, and phase over a (sigma_w^2, sigma_b^2, rho)
                  grid, plus the critical line when rho = 1 and the
                  activation is bounded.
critical-line     sigma_w^2(sigma_b^2) on the order-to-chaos boundary.
depth-scales      theoretical and measured (residual-fit) depth scales.
simulate          Monte Carlo on finite networks: forward moments, gradient
                  norms, or gradient covariances, with theory columns.
trainable-depth   the 6 * xi_c maximum-trainable-depth overlay data.

Numeric cells use 17 significant digits in CSV so emitted tables parse
back to the same values. Infinities are the strings ``inf``/``-inf`` in
CSV; in JSON the value is null and a companion ``<column>_flag`` key
carries ``"inf"``, ``"-inf"``, or ``"nan"``.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import analysis, backprop, meanfield, quadrature, simulator
from .activations import builtin, supported_names
from .errors import SignalPropError

EXIT_OK = 0
EXIT_PARTIAL = 2


# ---------------------------------------------------------------------------
# argument parsing helpers

def _parse_range(text: str) -> list[float]:
    """Parse '1.7' into [1.7] and '0.1:3.0:30' into a linspace."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected VALUE or MIN:MAX:STEPS, got {text!r}"
        )
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if steps < 1:
        raise argparse.ArgumentTypeError(f"steps must be >= 1 in {text!r}")
    if steps == 1:
        return [lo]
    if hi < lo:
        raise argparse.ArgumentTypeError(f"range must be ordered in {text!r}")
    return list(np.linspace(lo, hi, steps))


def _parse_rho_list(text: str) -> list[float]:
    values = [float(v) for v in text.split(",")]
    for v in values:
        if not 0 < v <= 1:
            raise argparse.ArgumentTypeError(f"rho values must lie in (0, 1]: {v}")
    return values


def _add_common(parser: argparse.ArgumentParser, *, simulate: bool = False) -> None:
    # String defaults go through ``type`` on every parse, so no parsed
    # namespace shares a list with the (cached) parser.
    parser.add_argument("--sigma-w-sq", type=_parse_range, default="1.0",
                        metavar="V|MIN:MAX:STEPS",
                        help="weight variance value or sweep range")
    parser.add_argument("--sigma-b-sq", type=_parse_range, default="0.05",
                        metavar="V|MIN:MAX:STEPS",
                        help="bias variance value or sweep range")
    parser.add_argument("--rho", type=_parse_rho_list, default="1.0",
                        metavar="R[,R...]",
                        help="comma-separated dropout keep-probabilities")
    parser.add_argument("--activation", default="tanh",
                        choices=supported_names(), help="activation function")
    parser.add_argument("--format", dest="fmt", default="csv",
                        choices=("csv", "json"), help="output format")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: stdout)")
    parser.add_argument("--quad-order", type=int, default=None,
                        help="Gauss-Hermite quadrature order (None: env "
                             f"{quadrature._ORDER_ENV_VAR}, else {quadrature.DEFAULT_ORDER})")
    parser.add_argument("--fit-floor", type=float, default=analysis.DEFAULT_FLOOR,
                        help="residual fit window lower bound")
    parser.add_argument("--fit-ceiling", type=float, default=analysis.DEFAULT_CEILING,
                        help="residual fit window upper bound")
    parser.add_argument("--q0", type=float, default=meanfield.DEFAULT_Q0,
                        help="initial pre-activation variance of trajectories "
                             "and simulate inputs")
    parser.add_argument("--c0", type=float, default=meanfield.DEFAULT_C0,
                        help="initial pre-activation correlation")
    if simulate:
        parser.add_argument("--depth", type=int, default=60, help="number of layers")
        parser.add_argument("--width", type=int, default=300, help="layer width")
        parser.add_argument("--networks", type=int, default=50,
                            help="ensemble size (number of sampled networks)")
        parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
        parser.add_argument("--backprop-weights", default="tied",
                            choices=simulator.BACKPROP_MODES,
                            help="backward-pass weight sampling mode")
        parser.add_argument("--classes", type=int, default=simulator.DEFAULT_N_CLASSES,
                            help="softmax readout width")
        parser.add_argument("--input-file", default=None, metavar="PATH",
                            help="raw little-endian float32 rows (length = width) "
                                 "to use as inputs instead of synthetic vectors")
    else:
        parser.add_argument("--depth", type=int, default=0,
                            help="trajectory length for residual fits "
                                 "(0 = choose from the theoretical scales)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it holds no state
    between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="signalprop",
        description="Mean-field signal propagation in wide random networks.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("phase-diagram", "critical-line", "depth-scales",
                 "trainable-depth"):
        p = sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        _add_common(p)

    p = sub.add_parser("simulate", formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("mode", choices=("forward", "gradients", "grad-covariance"))
    _add_common(p, simulate=True)
    return parser


# ---------------------------------------------------------------------------
# table emission

def _csv_cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return "" if value is None else str(value)


def _json_row(row: dict) -> dict:
    out = {}
    for key, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            out[key] = None
            if math.isnan(value):
                out[f"{key}_flag"] = "nan"
            else:
                out[f"{key}_flag"] = "inf" if value > 0 else "-inf"
        else:
            out[key] = value
    return out


def emit(rows: list[dict], columns: list[str], fmt: str, out_path: str | None) -> None:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(col)) for col in columns])
        text = buffer.getvalue()
    else:
        text = json.dumps([_json_row(row) for row in rows], indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# subcommands

_POINT_COLUMNS = ["sigma_w_sq", "sigma_b_sq", "rho"]


def _grid(args):
    for sw2 in args.sigma_w_sq:
        for sb2 in args.sigma_b_sq:
            for rho in args.rho:
                yield {"sigma_w_sq": sw2, "sigma_b_sq": sb2, "rho": rho}


def _hyper_params(base: dict) -> meanfield.HyperParams:
    return meanfield.HyperParams(base["sigma_w_sq"], base["sigma_b_sq"], base["rho"])


def _sweep(points, columns: list[str]) -> tuple[list[dict], list[str], int]:
    """Rows, columns and exit status of a sweep.

    ``points`` yields (base row, compute) pairs; ``compute(base)`` returns
    a list of value dicts, each emitted as one row after the base columns.
    A point whose compute raises a SignalPropError becomes a single row
    with an ``error`` cell, and the error column appears only then.
    """
    rows, status = [], EXIT_OK
    for base, compute in points:
        try:
            rows.extend(dict(base, **values) for values in compute(base))
        except SignalPropError as exc:
            rows.append(dict(base, error=str(exc)))
            status = EXIT_PARTIAL
    if status != EXIT_OK:
        columns = columns + ["error"]
    return rows, columns, status


def cmd_phase_diagram(args) -> tuple[list[dict], list[str], int]:
    act = builtin(args.activation)
    quad = quadrature.rule(args.quad_order)

    def grid_point(base):
        hp = _hyper_params(base)
        fp = meanfield.fixed_point(hp, act, quad)
        chi = meanfield.chi1(hp, act, fp.q_star, quad)
        return [dict(q_star=fp.q_star, c_star=fp.c_star, chi1=chi,
                     phase=meanfield.phase_of(chi) if hp.rho == 1.0 else
                     ("ordered" if chi < 1.0 else "chaotic"))]

    def critical_point(base):
        sb2 = base["sigma_b_sq"]
        crit = meanfield.critical_sigma_w(sb2, act, quad)
        hp = meanfield.HyperParams(crit, sb2, 1.0)
        fp = meanfield.fixed_point(hp, act, quad)
        return [dict(sigma_w_sq=crit, q_star=fp.q_star, c_star=fp.c_star,
                     chi1=meanfield.chi1(hp, act, fp.q_star, quad))]

    points = [(base, grid_point) for base in _grid(args)]
    # Only bounded activations have an order-to-chaos line.
    if act.bounded and all(rho == 1.0 for rho in args.rho):
        points += [({"sigma_b_sq": sb2, "rho": 1.0, "phase": "critical"}, critical_point)
                   for sb2 in args.sigma_b_sq]
    return _sweep(points, _POINT_COLUMNS + ["q_star", "c_star", "chi1", "phase"])


def cmd_critical_line(args) -> tuple[list[dict], list[str], int]:
    act = builtin(args.activation)
    quad = quadrature.rule(args.quad_order)

    def point(base):
        return [{"sigma_w_sq_critical":
                 meanfield.critical_sigma_w(base["sigma_b_sq"], act, quad)}]

    return _sweep((({"sigma_b_sq": sb2}, point) for sb2 in args.sigma_b_sq),
                  ["sigma_b_sq", "sigma_w_sq_critical"])


def _auto_depth(scales: meanfield.DepthScales) -> int:
    finite = [s for s in (scales.xi_q, scales.xi_c) if math.isfinite(s) and s > 0]
    if not finite:
        return 200
    return int(min(5000, max(60, math.ceil(30 * max(finite)) + 40)))


def measured_depth_scales(hp, act, quad, fp: meanfield.FixedPoint, depth: int,
                          q0: float, c0: float, floor: float,
                          ceiling: float) -> tuple[float, float]:
    """Depth scales from exponential fits to the residuals, against ``fp``,
    of a trajectory started at (q0, q0, c0)."""
    traj = meanfield.iterate_trajectory(hp, act, q0_a=q0, q0_b=q0, c0=c0,
                                        layers=depth, quad=quad)
    q_res, c_res = analysis.residuals(traj, fp)
    try:
        xi_q_meas = analysis.fit_exponential(q_res, floor, ceiling).xi
    except SignalPropError:
        xi_q_meas = math.nan
    try:
        xi_c_meas = analysis.fit_exponential(c_res, floor, ceiling).xi
    except SignalPropError:
        xi_c_meas = math.nan
    return xi_q_meas, xi_c_meas


def cmd_depth_scales(args) -> tuple[list[dict], list[str], int]:
    act = builtin(args.activation)
    quad = quadrature.rule(args.quad_order)

    def point(base):
        hp = _hyper_params(base)
        fp = meanfield.fixed_point(hp, act, quad)
        scales = meanfield.depth_scales(hp, act, quad, fp=fp)
        depth = args.depth if args.depth > 0 else _auto_depth(scales)
        xi_q_meas, xi_c_meas = measured_depth_scales(
            hp, act, quad, fp, depth, args.q0, args.c0,
            args.fit_floor, args.fit_ceiling)
        return [dict(xi_q_theory=scales.xi_q, xi_q_measured=xi_q_meas,
                     xi_c_theory=scales.xi_c, xi_c_measured=xi_c_meas,
                     xi_grad=scales.xi_grad)]

    return _sweep(((base, point) for base in _grid(args)),
                  _POINT_COLUMNS + ["xi_q_theory", "xi_q_measured",
                                    "xi_c_theory", "xi_c_measured", "xi_grad"])


def cmd_trainable_depth(args) -> tuple[list[dict], list[str], int]:
    act = builtin(args.activation)
    quad = quadrature.rule(args.quad_order)

    def point(base):
        hp = _hyper_params(base)
        fp = meanfield.fixed_point(hp, act, quad)
        xi_c = meanfield.xi_c(hp, act, fp.q_star, fp.c_star, quad)
        return [dict(xi_c=xi_c, max_trainable_depth=6.0 * xi_c)]

    return _sweep(((base, point) for base in _grid(args)),
                  _POINT_COLUMNS + ["xi_c", "max_trainable_depth"])


def _simulate_inputs(args, cfg):
    if args.input_file is not None:
        vectors = simulator.load_input_vectors(args.input_file, args.width)
        x_a = vectors[0]
        x_b = vectors[1] if len(vectors) > 1 else vectors[0]
        return x_a, x_b
    return simulator.prepare_inputs(cfg, args.q0, args.q0, args.c0)


_SIMULATE_COLUMNS = {
    "forward": ["layer", "q_aa_hat", "q_aa_stderr", "c_ab_hat", "c_ab_stderr",
                "q_aa_theory", "c_ab_theory"],
    "gradients": ["layer", "log_grad_norm_sq", "log_grad_norm_stderr",
                  "theory_slope"],
    "grad-covariance": ["layer", "grad_dot", "grad_dot_stderr", "theory_factor"],
}


def cmd_simulate(args) -> tuple[list[dict], list[str], int]:
    act = builtin(args.activation)
    quad = quadrature.rule(args.quad_order)

    def point(base):
        hp = _hyper_params(base)
        cfg = simulator.NetworkConfig(
            depth=args.depth, width=args.width, hp=hp,
            activation=args.activation, seed=args.seed,
            backprop_weights=args.backprop_weights)
        x_a, x_b = _simulate_inputs(args, cfg)
        if args.mode == "forward":
            emp = simulator.forward_pair(cfg, x_a, x_b, args.networks)
            traj = meanfield.iterate_trajectory(
                hp, act, q0_a=args.q0, q0_b=args.q0, c0=args.c0,
                layers=args.depth, quad=quad)
            return [dict(layer=l,
                         q_aa_hat=float(emp.q_aa_hat[l]),
                         q_aa_stderr=float(emp.q_aa_stderr[l]),
                         c_ab_hat=float(emp.c_ab_hat[l]),
                         c_ab_stderr=float(emp.c_ab_stderr[l]),
                         q_aa_theory=float(traj.q_aa[l]),
                         c_ab_theory=float(traj.c_ab[l]))
                    for l in range(len(emp.q_aa_hat))]
        target = np.zeros(args.classes)
        target[0] = 1.0
        if args.mode == "gradients":
            norms = simulator.backward_gradients(cfg, x_a, target, args.networks)
            fp = meanfield.fixed_point(hp, act, quad)
            slope = -math.log(meanfield.chi1(hp, act, fp.q_star, quad))
            return [dict(layer=l,
                         log_grad_norm_sq=float(norms.mean_log_norm_sq[l]),
                         log_grad_norm_stderr=float(norms.stderr_log_norm_sq[l]),
                         theory_slope=slope)
                    for l in range(len(norms.mean_log_norm_sq))]
        cov = simulator.backward_covariance(cfg, x_a, x_b, (target, target),
                                            args.networks)
        fp = meanfield.fixed_point(hp, act, quad)
        factor = backprop.grad_covariance_factor(hp, act, fp.q_star, fp.c_star, quad)
        return [dict(layer=l,
                     grad_dot=float(cov.mean_dot[l]),
                     grad_dot_stderr=float(cov.stderr_dot[l]),
                     theory_factor=factor)
                for l in range(len(cov.mean_dot))]

    return _sweep(((base, point) for base in _grid(args)),
                  _POINT_COLUMNS + _SIMULATE_COLUMNS[args.mode])


_COMMANDS = {
    "phase-diagram": cmd_phase_diagram,
    "critical-line": cmd_critical_line,
    "depth-scales": cmd_depth_scales,
    "trainable-depth": cmd_trainable_depth,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows, columns, status = _COMMANDS[args.command](args)
    except SignalPropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    emit(rows, columns, args.fmt, args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
