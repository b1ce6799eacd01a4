"""Command-line front end: hyperparameter sweeps emitting CSV/JSON tables.

Subcommands
-----------
phase-diagram     q*, c*, chi1, and phase over a (sigma_w^2, sigma_b^2, rho)
                  grid, plus the critical line when rho = 1 and the
                  activation is bounded.
critical-line     sigma_w^2(sigma_b^2) on the order-to-chaos boundary.
depth-scales      theoretical and measured (residual-fit) depth scales.
simulate MODE     Monte Carlo on finite networks with theory columns: forward
                  moments (``forward``), gradient norms (``gradients``) or
                  gradient covariances (``grad-covariance``).
trainable-depth   the 6 * xi_c maximum-trainable-depth overlay data.

Each command, and each simulate mode, takes only the flags it reads; a
mode's flags follow the mode. All take --activation, --format, --out and
--quad-order, and the grid flags: --sigma-b-sq, and also --sigma-w-sq and
--rho except for critical-line, since dropout (rho < 1) has no critical
line. depth-scales adds --q0, --c0, --depth, --fit-floor and
--fit-ceiling. The simulate modes add --q0 and the network flags --depth,
--width, --networks, --seed and --input-file; ``forward`` and
``grad-covariance`` add --c0 (``gradients`` runs one input), and
``gradients`` and ``grad-covariance`` the readout flags --backprop-weights
and --classes. --input-file excludes --q0 and --c0: the file fixes the
inputs.

One table, ``_COMMANDS``, has a row per command and simulate mode: its
flags, its columns and one point function ``(args, act, quad, base) ->
rows``, where ``base`` holds one grid point's values. ``build_parser``
makes one parser per row, which reports any flag the row does not read,
and ``main`` runs every row through one sweep driver.

Numeric cells use 17 significant digits in CSV so emitted tables parse
back to the same values. Infinities are the strings ``inf``/``-inf`` in
CSV; in JSON the value is null and a companion ``<column>_flag`` key
carries ``"inf"``, ``"-inf"``, or ``"nan"``.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import sys
from typing import TextIO

import numpy as np

from . import analysis, backprop, meanfield, quadrature, simulator
from .activations import builtin, supported_names
from .errors import DomainError, InsufficientDataError, NumericError, SignalPropError

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


def _flag(*names, **options):
    """One ``add_argument`` call: its names and its keyword options."""
    return names, options


class _StoreStart(argparse.Action):
    """Store --q0 or --c0 and note in ``start_given`` that it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.start_given = self.option_strings[0]


# String defaults go through ``type`` on every parse, so no parsed
# namespace shares a list with the (cached) parser.
_SIGMA_W = _flag("--sigma-w-sq", type=_parse_range, default="1.0",
                 metavar="V|MIN:MAX:STEPS", help="weight variance value or sweep range")
_SIGMA_B = _flag("--sigma-b-sq", type=_parse_range, default="0.05",
                 metavar="V|MIN:MAX:STEPS", help="bias variance value or sweep range")
_RHO = _flag("--rho", type=_parse_rho_list, default="1.0", metavar="R[,R...]",
             help="comma-separated dropout keep-probabilities")
_OUTPUT = (
    _flag("--activation", default="tanh", choices=supported_names(),
          help="activation function"),
    _flag("--format", dest="fmt", default="csv", choices=("csv", "json"),
          help="output format"),
    _flag("--out", default=None, metavar="PATH", help="output file (default: stdout)"),
    _flag("--quad-order", type=int, default=quadrature.DEFAULT_ORDER,
          help=f"Gauss-Hermite quadrature order ({quadrature.MIN_ORDER} to "
               f"{quadrature.MAX_ORDER})"),
)
_Q0 = _flag("--q0", type=float, default=meanfield.DEFAULT_Q0, action=_StoreStart,
            help="initial pre-activation variance of trajectories and simulate inputs")
_C0 = _flag("--c0", type=float, default=meanfield.DEFAULT_C0, action=_StoreStart,
            help="initial pre-activation correlation")
_FIT = (
    _flag("--depth", type=int, default=0,
          help="trajectory length for residual fits (0 = choose from the "
               "theoretical scales)"),
    _flag("--fit-floor", type=float, default=analysis.DEFAULT_FLOOR,
          help="residual fit window lower bound"),
    _flag("--fit-ceiling", type=float, default=analysis.DEFAULT_CEILING,
          help="residual fit window upper bound"),
)
_NETWORK = (
    _flag("--depth", type=int, default=60, help="number of layers"),
    _flag("--width", type=int, default=300, help="layer width"),
    _flag("--networks", type=int, default=50,
          help="ensemble size (number of sampled networks)"),
    _flag("--seed", type=int, default=0, help="master RNG seed"),
    _flag("--input-file", default=None, metavar="PATH",
          help="raw little-endian float32 rows (length = width) to use as "
               "inputs instead of synthetic vectors; excludes --q0 and --c0"),
)
_READOUT = (
    _flag("--backprop-weights", default="tied", choices=("tied", "independent"),
          help="backward-pass weight sampling mode"),
    _flag("--classes", type=int, default=simulator.DEFAULT_N_CLASSES,
          help="softmax readout width"),
)
_GRID_FLAGS = (_SIGMA_W, _SIGMA_B, _RHO)

#: Grid columns, in the order their values nest (the last varies fastest).
_GRID = ("sigma_w_sq", "sigma_b_sq", "rho")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it holds no state
    between ``parse_args`` calls.

    A row of ``_COMMANDS`` named "command mode" is the parser of ``mode``
    under the parser of ``command``. Each row's parser holds the row and
    itself in the defaults ``row`` and ``leaf``.
    """
    def add(subparsers, name):
        return subparsers.add_parser(
            name, formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    parser = argparse.ArgumentParser(
        prog="signalprop",
        description="Mean-field signal propagation in wide random networks.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    # "" holds the commands; a command with modes holds its modes.
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, row in _COMMANDS.items():
        command, _, mode = name.partition(" ")
        if mode and command not in subparsers:
            subparsers[command] = add(subparsers[""], command).add_subparsers(
                dest="mode", required=True)
        leaf = add(subparsers[command if mode else ""], mode or command)
        for names, options in row[0]:
            leaf.add_argument(*names, **options)
        leaf.set_defaults(row=row, leaf=leaf)
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


def emit(rows: list[dict], columns: list[str], fmt: str, out: TextIO) -> None:
    """Write the table to the text stream ``out``."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(row.get(col)) for col in columns])
        text = buffer.getvalue()
    else:
        text = json.dumps([_json_row(row) for row in rows], indent=2) + "\n"
    out.write(text)


# ---------------------------------------------------------------------------
# the sweep driver and the point functions

def _sweep(points, columns: list[str]) -> tuple[list[dict], list[str], int]:
    """Rows, columns and exit status of a sweep.

    ``points`` yields (base row, compute) pairs; ``compute(base)`` returns
    a list of value dicts, each emitted as one row after the base columns.
    A point whose compute raises a SignalPropError, or a MemoryError for a
    size that cannot be allocated, becomes a single row with an ``error``
    cell, and the error column appears only then.
    """
    rows, status = [], EXIT_OK
    for base, compute in points:
        try:
            rows.extend(dict(base, **values) for values in compute(base))
        except (SignalPropError, MemoryError) as exc:
            rows.append(dict(base, error=str(exc)))
            status = EXIT_PARTIAL
    if status != EXIT_OK:
        columns = columns + ["error"]
    return rows, columns, status


def _phase_point(args, act, quad, base):
    hp = meanfield.HyperParams(**base)
    fp = meanfield.fixed_point(hp, act, quad)
    chi = meanfield.chi1(hp, act, fp.q_star, quad)
    return [dict(q_star=fp.q_star, c_star=fp.c_star, chi1=chi,
                 phase=meanfield.phase_of(chi, hp.rho))]


def _critical_row(args, act, quad, base):
    """A phase-diagram row on the critical line at ``base``'s sigma_b^2."""
    crit = meanfield.critical_sigma_w(base["sigma_b_sq"], act, quad)
    hp = meanfield.HyperParams(crit, base["sigma_b_sq"])
    fp = meanfield.fixed_point(hp, act, quad)
    return [dict(sigma_w_sq=crit, q_star=fp.q_star, c_star=fp.c_star,
                 chi1=meanfield.chi1(hp, act, fp.q_star, quad))]


def _critical_point(args, act, quad, base):
    return [{"sigma_w_sq_critical":
             meanfield.critical_sigma_w(base["sigma_b_sq"], act, quad)}]


def _auto_depth(scales: meanfield.DepthScales) -> int:
    finite = [s for s in (scales.xi_q, scales.xi_c) if math.isfinite(s) and s > 0]
    if not finite:
        return 200
    return int(min(5000, max(60, math.ceil(30 * max(finite)) + 40)))


def _depth_point(args, act, quad, base):
    """Theoretical depth scales, and the measured ones from exponential fits
    to the residuals of a trajectory started at (q0, q0, c0)."""
    hp = meanfield.HyperParams(**base)
    fp = meanfield.fixed_point(hp, act, quad)
    scales = meanfield.depth_scales(hp, act, quad, fp=fp)
    traj = meanfield.iterate_trajectory(hp, act, q0_a=args.q0, q0_b=args.q0, c0=args.c0,
                                        layers=args.depth or _auto_depth(scales),
                                        quad=quad)
    measured = []
    for res in analysis.residuals(traj, fp):
        try:
            measured.append(analysis.fit_exponential(res, args.fit_floor,
                                                     args.fit_ceiling).xi)
        except InsufficientDataError:
            measured.append(math.nan)
    return [dict(xi_q_theory=scales.xi_q, xi_q_measured=measured[0],
                 xi_c_theory=scales.xi_c, xi_c_measured=measured[1],
                 xi_grad=scales.xi_grad)]


def _trainable_point(args, act, quad, base):
    hp = meanfield.HyperParams(**base)
    fp = meanfield.fixed_point(hp, act, quad)
    xi_c = meanfield.xi_c(hp, act, fp.q_star, fp.c_star, quad)
    return [dict(xi_c=xi_c, max_trainable_depth=6.0 * xi_c)]


def _config(args, act, base, **options) -> simulator.NetworkConfig:
    """The network of one grid point, running the theory's activation
    object; ``options`` are the readout's."""
    return simulator.NetworkConfig(
        depth=args.depth, width=args.width, hp=meanfield.HyperParams(**base),
        activation=act, seed=args.seed, **options)


def _inputs(args, cfg, c0: float) -> tuple[np.ndarray, np.ndarray]:
    """The first two rows of --input-file (its first row twice if it holds
    one), else synthetic vectors with layer-0 moments (q0, q0, c0)."""
    if args.input_file is None:
        return simulator.prepare_inputs(cfg, args.q0, args.q0, c0)
    vectors = simulator.load_input_vectors(args.input_file, args.width)
    return vectors[0], vectors[min(1, len(vectors) - 1)]


def _target(args) -> np.ndarray:
    """One-hot softmax target on the first of --classes classes."""
    if args.classes < 2:
        raise DomainError(f"a softmax readout needs at least 2 classes, got {args.classes}")
    target = np.zeros(args.classes)
    target[0] = 1.0
    return target


def _layer_rows(**columns) -> list[dict]:
    """One row per layer of the first column, the layers a Monte Carlo
    kept; a scalar column repeats on every row. A Monte Carlo truncated
    at layer 0 kept none, which is an error."""
    layers = len(next(iter(columns.values())))
    if layers == 0:
        raise NumericError("Monte Carlo truncated at layer 0: no layer is left to report")
    return [dict(layer=l, **{name: float(value if np.ndim(value) == 0 else value[l])
                             for name, value in columns.items()})
            for l in range(layers)]


def _forward_point(args, act, quad, base):
    """Pre-activation moments of an input pair, and the theory trajectory
    started at the moments the pair realizes at layer 0."""
    cfg = _config(args, act, base)
    x_a, x_b = _inputs(args, cfg, args.c0)
    emp = simulator.forward_pair(cfg, x_a, x_b, args.networks)
    q_a, q_b, c = simulator.input_moments(cfg, x_a, x_b)
    traj = meanfield.iterate_trajectory(cfg.hp, act, q0_a=q_a, q0_b=q_b, c0=c,
                                        layers=args.depth, quad=quad)
    return _layer_rows(q_aa_hat=emp.q_aa_hat, q_aa_stderr=emp.q_aa_stderr,
                       c_ab_hat=emp.c_ab_hat, c_ab_stderr=emp.c_ab_stderr,
                       q_aa_theory=traj.q_aa, c_ab_theory=traj.c_ab)


def _gradients_point(args, act, quad, base):
    """Log squared gradient norms of one input, and the theory slope
    -log chi1 per layer."""
    cfg = _config(args, act, base, tied=args.backprop_weights == "tied")
    # One input: the correlation passed on is never realized.
    x, _ = _inputs(args, cfg, meanfield.DEFAULT_C0)
    norms = simulator.backward_gradients(cfg, x, _target(args), args.networks)
    fp = meanfield.fixed_point(cfg.hp, act, quad)
    chi = meanfield.chi1(cfg.hp, act, fp.q_star, quad)
    # chi1 = 0: the gradients vanish within one layer.
    return _layer_rows(log_grad_norm_sq=norms.mean_log_norm_sq,
                       log_grad_norm_stderr=norms.stderr_log_norm_sq,
                       theory_slope=-math.log(chi) if chi > 0 else math.inf)


def _grad_covariance_point(args, act, quad, base):
    """Gradient dot products of an input pair, and the theory factor per
    layer at the fixed point."""
    cfg = _config(args, act, base, tied=args.backprop_weights == "tied")
    x_a, x_b = _inputs(args, cfg, args.c0)
    target = _target(args)
    cov = simulator.backward_covariance(cfg, x_a, x_b, (target, target), args.networks)
    fp = meanfield.fixed_point(cfg.hp, act, quad)
    return _layer_rows(grad_dot=cov.mean_dot, grad_dot_stderr=cov.stderr_dot,
                       theory_factor=backprop.grad_covariance_factor(
                           cfg.hp, act, fp.q_star, fp.c_star, quad))


_SIMULATE = _GRID_FLAGS + _OUTPUT + (_Q0,)

#: Command or "command mode" -> (the flags it reads, the columns after its
#: grid columns, its point function).
_COMMANDS = {
    "phase-diagram": (_GRID_FLAGS + _OUTPUT,
                      ["q_star", "c_star", "chi1", "phase"], _phase_point),
    "critical-line": ((_SIGMA_B, *_OUTPUT), ["sigma_w_sq_critical"], _critical_point),
    "depth-scales": (_GRID_FLAGS + _OUTPUT + (_Q0, _C0) + _FIT,
                     ["xi_q_theory", "xi_q_measured", "xi_c_theory",
                      "xi_c_measured", "xi_grad"], _depth_point),
    "trainable-depth": (_GRID_FLAGS + _OUTPUT, ["xi_c", "max_trainable_depth"],
                        _trainable_point),
    "simulate forward": (_SIMULATE + (_C0,) + _NETWORK,
                         ["layer", "q_aa_hat", "q_aa_stderr", "c_ab_hat",
                          "c_ab_stderr", "q_aa_theory", "c_ab_theory"],
                         _forward_point),
    "simulate gradients": (_SIMULATE + _NETWORK + _READOUT,
                           ["layer", "log_grad_norm_sq", "log_grad_norm_stderr",
                            "theory_slope"], _gradients_point),
    "simulate grad-covariance": (_SIMULATE + (_C0,) + _NETWORK + _READOUT,
                                 ["layer", "grad_dot", "grad_dot_stderr",
                                  "theory_factor"], _grad_covariance_point),
}


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    # Reported by the command's own parser, so its usage is the one shown.
    if unread:
        args.leaf.error(f"unrecognized arguments: {' '.join(unread)}")
    if getattr(args, "input_file", None) is not None and hasattr(args, "start_given"):
        args.leaf.error(f"argument {args.start_given}: not allowed with argument "
                        "--input-file: the file fixes the inputs")
    _, columns, point = args.row
    act = builtin(args.activation)
    try:
        quad = quadrature.rule(args.quad_order)
    except SignalPropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    # Opened before the sweep, so a path that cannot be written costs none.
    try:
        out = (contextlib.nullcontext(sys.stdout) if args.out is None
               else open(args.out, "w", encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARTIAL
    names = [name for name in _GRID if name in args]
    compute = functools.partial(point, args, act, quad)
    points = [(dict(zip(names, values)), compute)
              for values in itertools.product(*(getattr(args, name) for name in names))]
    # Only bounded activations have an order-to-chaos line, and only
    # without dropout.
    if args.command == "phase-diagram" and act.bounded and all(
            rho == 1.0 for rho in args.rho):
        critical = functools.partial(_critical_row, args, act, quad)
        points += [({"sigma_b_sq": sb2, "rho": 1.0, "phase": "critical"}, critical)
                   for sb2 in args.sigma_b_sq]
    with out as stream:
        rows, columns, status = _sweep(points, names + columns)
        emit(rows, columns, args.fmt, stream)
    return status


if __name__ == "__main__":
    sys.exit(main())
