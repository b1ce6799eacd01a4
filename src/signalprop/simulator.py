"""Monte Carlo validation on finite-width random networks.

Instantiates actual random networks (weights N(0, sigma_w^2/N), biases
N(0, sigma_b^2), optional per-input Bernoulli dropout masks), propagates
single inputs and correlated pairs forward, and backpropagates a
cross-entropy loss through a softmax readout, producing empirical
layer-by-layer statistics to compare against the mean-field theory.

Randomness comes from a counter-based generator (Philox) with a dedicated
substream per (network, layer, role), so results are bit-reproducible and
realizations can be evaluated independently in any order. In particular
weight matrices are re-drawn from their substream during the backward
pass instead of being stored, keeping memory at O(L * N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, builtin
from .errors import ConfigurationError, DomainError
from .meanfield import HyperParams

_ROLE_WEIGHTS = 0
_ROLE_BIASES = 1
_ROLE_MASK_A = 2
_ROLE_MASK_B = 3
_ROLE_BACKWARD = 4
_ROLE_INPUT = 5
_ROLE_READOUT = 6

BACKPROP_MODES = ("tied", "independent")

DEFAULT_N_CLASSES = 10


@dataclass(frozen=True)
class NetworkConfig:
    depth: int
    width: int
    hp: HyperParams
    activation: str = "tanh"
    seed: int = 0
    backprop_weights: str = "tied"

    def __post_init__(self):
        if self.depth < 1:
            raise DomainError(f"depth must be >= 1, got {self.depth}")
        if self.width < 1:
            raise DomainError(f"width must be >= 1, got {self.width}")
        if self.backprop_weights not in BACKPROP_MODES:
            raise ConfigurationError(
                f"backprop_weights must be one of {BACKPROP_MODES}, "
                f"got {self.backprop_weights!r}"
            )

    def resolve_activation(self) -> Activation:
        return builtin(self.activation)


@dataclass
class EmpiricalTrajectory:
    """Unit- and ensemble-averaged pre-activation moments per layer."""

    q_aa_hat: np.ndarray
    q_aa_stderr: np.ndarray
    q_bb_hat: np.ndarray
    c_ab_hat: np.ndarray
    c_ab_stderr: np.ndarray
    n_networks: int
    truncated_at: int | None = None


@dataclass
class GradientNorms:
    """Per-layer squared 2-norms of the weight gradients, per network."""

    log_norm_sq: np.ndarray  # (n_networks, depth)
    mean_log_norm_sq: np.ndarray = field(init=False)
    stderr_log_norm_sq: np.ndarray = field(init=False)
    truncated_at: int | None = None

    def __post_init__(self):
        self.mean_log_norm_sq = self.log_norm_sq.mean(axis=0)
        n = self.log_norm_sq.shape[0]
        ddof = 1 if n > 1 else 0
        self.stderr_log_norm_sq = self.log_norm_sq.std(axis=0, ddof=ddof) / math.sqrt(n)


@dataclass
class GradientCovariance:
    """Per-layer dot products between the weight gradients of two inputs."""

    dot: np.ndarray  # (n_networks, depth)
    mean_dot: np.ndarray = field(init=False)
    stderr_dot: np.ndarray = field(init=False)
    truncated_at: int | None = None

    def __post_init__(self):
        self.mean_dot = self.dot.mean(axis=0)
        n = self.dot.shape[0]
        ddof = 1 if n > 1 else 0
        self.stderr_dot = self.dot.std(axis=0, ddof=ddof) / math.sqrt(n)


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _weights(cfg: NetworkConfig, network: int, layer: int,
             role: int = _ROLE_WEIGHTS, shape=None) -> np.ndarray:
    n = cfg.width
    scale = math.sqrt(cfg.hp.sigma_w_sq / n)
    rng = _substream(cfg.seed, network, layer, role)
    return rng.normal(0.0, scale, size=shape if shape is not None else (n, n))

def _biases(cfg: NetworkConfig, network: int, layer: int, size=None) -> np.ndarray:
    rng = _substream(cfg.seed, network, layer, _ROLE_BIASES)
    scale = math.sqrt(cfg.hp.sigma_b_sq)
    return rng.normal(0.0, scale, size=cfg.width if size is None else size)

def _mask(cfg: NetworkConfig, network: int, layer: int, role: int) -> np.ndarray:
    rng = _substream(cfg.seed, network, layer, role)
    return (rng.random(cfg.width) < cfg.hp.rho).astype(float)


def _dropout_input(cfg: NetworkConfig, y: np.ndarray, network: int, layer: int,
                   role: int) -> np.ndarray:
    """The effective input to a weight layer: (mask * y) / rho."""
    if cfg.hp.rho == 1.0:
        return y
    return _mask(cfg, network, layer, role) * y / cfg.hp.rho


def prepare_inputs(cfg: NetworkConfig, q0_a: float, q0_b: float,
                   c0: float) -> tuple[np.ndarray, np.ndarray]:
    """Construct input vectors whose first pre-activation moments are
    (q0_a, q0_b, c0) on average over the weight ensemble.

    With dropout and c0 close to 1 the requested correlation may be
    unrealizable (independent masks strictly decorrelate identical
    inputs); the geometric overlap is then clamped to its maximum, which
    reproduces the theoretical correlation drop at the first layer.
    """
    hp = cfg.hp
    for name, q0 in (("q0_a", q0_a), ("q0_b", q0_b)):
        if q0 <= hp.sigma_b_sq:
            raise DomainError(
                f"{name}={q0} must exceed sigma_b_sq={hp.sigma_b_sq} to be "
                "realizable by scaling the input"
            )
    if abs(c0) > 1:
        raise DomainError(f"|c0| must be <= 1, got {c0}")
    n = cfg.width
    norm_a_sq = n * hp.rho * (q0_a - hp.sigma_b_sq) / hp.sigma_w_sq
    norm_b_sq = n * hp.rho * (q0_b - hp.sigma_b_sq) / hp.sigma_w_sq
    dot_target = n * (c0 * math.sqrt(q0_a * q0_b) - hp.sigma_b_sq) / hp.sigma_w_sq
    cos_theta = dot_target / math.sqrt(norm_a_sq * norm_b_sq)
    cos_theta = min(1.0, max(-1.0, cos_theta))
    sin_theta = math.sqrt(1.0 - cos_theta * cos_theta)

    rng = _substream(cfg.seed, 0, 0, _ROLE_INPUT)
    v1 = rng.standard_normal(n)
    v2 = rng.standard_normal(n)
    e1 = v1 / np.linalg.norm(v1)
    v2 -= (v2 @ e1) * e1
    e2 = v2 / np.linalg.norm(v2)

    x_a = math.sqrt(norm_a_sq) * e1
    x_b = math.sqrt(norm_b_sq) * (cos_theta * e1 + sin_theta * e2)
    return x_a, x_b


def forward_pair(cfg: NetworkConfig, x_a: np.ndarray, x_b: np.ndarray,
                 n_networks: int) -> EmpiricalTrajectory:
    """Propagate a pair of inputs through sampled realizations.

    Dropout masks are drawn independently per input and layer. Layer l of
    the result holds the moments of the l-th pre-activation, aligned with
    index l of the theoretical trajectory started at the inputs' moments.
    """
    if n_networks < 1:
        raise DomainError(f"n_networks must be >= 1, got {n_networks}")
    if len(x_a) != cfg.width or len(x_b) != cfg.width:
        raise DomainError("input vectors must have length equal to the width")
    act = cfg.resolve_activation()
    depth = cfg.depth
    q_a = np.full((n_networks, depth), np.nan)
    q_b = np.full((n_networks, depth), np.nan)
    q_ab = np.full((n_networks, depth), np.nan)
    finite_up_to = depth

    for net in range(n_networks):
        y_a, y_b = x_a, x_b
        for l in range(depth):
            w = _weights(cfg, net, l)
            b = _biases(cfg, net, l)
            z_a = w @ _dropout_input(cfg, y_a, net, l, _ROLE_MASK_A) + b
            z_b = w @ _dropout_input(cfg, y_b, net, l, _ROLE_MASK_B) + b
            qa = float(np.mean(z_a * z_a))
            qb = float(np.mean(z_b * z_b))
            if not (math.isfinite(qa) and math.isfinite(qb)):
                finite_up_to = min(finite_up_to, l)
                break
            q_a[net, l] = qa
            q_b[net, l] = qb
            q_ab[net, l] = float(np.mean(z_a * z_b))
            y_a, y_b = act.phi(z_a), act.phi(z_b)

    depth_kept = finite_up_to
    q_a, q_b, q_ab = q_a[:, :depth_kept], q_b[:, :depth_kept], q_ab[:, :depth_kept]
    c = q_ab / np.sqrt(q_a * q_b)
    sqrt_n = math.sqrt(n_networks)
    ddof = 1 if n_networks > 1 else 0
    return EmpiricalTrajectory(
        q_aa_hat=q_a.mean(axis=0),
        q_aa_stderr=q_a.std(axis=0, ddof=ddof) / sqrt_n,
        q_bb_hat=q_b.mean(axis=0),
        c_ab_hat=c.mean(axis=0),
        c_ab_stderr=c.std(axis=0, ddof=ddof) / sqrt_n,
        n_networks=n_networks,
        truncated_at=None if depth_kept == cfg.depth else depth_kept,
    )


def _forward_single(cfg: NetworkConfig, act: Activation, net: int,
                    x: np.ndarray, mask_role: int):
    """Forward pass storing pre-activations and effective layer inputs."""
    depth = cfg.depth
    zs = []
    fs = [_dropout_input(cfg, x, net, 0, mask_role)]
    y = x
    for l in range(depth):
        f = fs[-1]
        z = _weights(cfg, net, l) @ f + _biases(cfg, net, l)
        if not np.all(np.isfinite(z)):
            return zs, fs[:-1], l
        zs.append(z)
        y = act.phi(z)
        fs.append(_dropout_input(cfg, y, net, l + 1, mask_role))
    return zs, fs, depth


def _readout(cfg: NetworkConfig, net: int, f_top: np.ndarray,
             n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    w_out = _weights(cfg, net, cfg.depth, _ROLE_READOUT,
                     shape=(n_classes, cfg.width))
    b_out = _biases(cfg, net, cfg.depth, size=n_classes)
    logits = w_out @ f_top + b_out
    shifted = logits - logits.max()
    p = np.exp(shifted)
    p /= p.sum()
    return p, w_out


def _backprop_deltas(cfg: NetworkConfig, act: Activation, net: int,
                     zs: list, delta_top: np.ndarray, w_out: np.ndarray,
                     mask_role: int) -> list:
    """Per-layer errors delta^l = dE/dz^l, from the readout downwards.

    In ``independent`` mode every backward matrix is a fresh i.i.d. draw
    with the forward statistics; in ``tied`` mode the forward matrices
    are re-drawn from their substreams (bit-identical to the forward pass).
    """
    tied = cfg.backprop_weights == "tied"
    depth = len(zs)
    deltas = [None] * depth
    upstream = delta_top
    if tied:
        w_up = w_out
    else:
        w_up = _weights(cfg, net, depth, _ROLE_BACKWARD, shape=w_out.shape)
    for l in range(depth - 1, -1, -1):
        grad_y = w_up.T @ upstream
        if cfg.hp.rho < 1.0:
            grad_y *= _mask(cfg, net, l + 1, mask_role) / cfg.hp.rho
        deltas[l] = act.d_phi(zs[l]) * grad_y
        upstream = deltas[l]
        if l > 0:
            w_up = _weights(cfg, net, l) if tied else _weights(cfg, net, l, _ROLE_BACKWARD)
    return deltas


def backward_gradients(cfg: NetworkConfig, input_vec: np.ndarray,
                       target: np.ndarray, n_networks: int) -> GradientNorms:
    """Exact per-layer squared gradient 2-norms of a cross-entropy loss.

    The loss is cross-entropy of a softmax readout (width = len(target))
    drawn with the same weight statistics. The gradient with respect to
    W^l factorizes as delta^l outer f^l, so its squared norm is
    ||delta^l||^2 ||f^l||^2 without forming the outer product.
    """
    if n_networks < 1:
        raise DomainError(f"n_networks must be >= 1, got {n_networks}")
    act = cfg.resolve_activation()
    depth = cfg.depth
    log_norms = np.full((n_networks, depth), np.nan)
    finite_up_to = depth

    for net in range(n_networks):
        zs, fs, reached = _forward_single(cfg, act, net, input_vec, _ROLE_MASK_A)
        if reached < depth:
            finite_up_to = min(finite_up_to, reached)
            continue
        p, w_out = _readout(cfg, net, fs[depth], len(target))
        deltas = _backprop_deltas(cfg, act, net, zs, p - target, w_out,
                                  _ROLE_MASK_A)
        for l in range(depth):
            norm_sq = float(np.dot(deltas[l], deltas[l])) * float(np.dot(fs[l], fs[l]))
            if norm_sq <= 0 or not math.isfinite(norm_sq):
                finite_up_to = min(finite_up_to, l)
                break
            log_norms[net, l] = math.log(norm_sq)

    kept = finite_up_to
    return GradientNorms(
        log_norm_sq=log_norms[:, :kept] if kept < depth else log_norms,
        truncated_at=None if kept == depth else kept,
    )


def backward_covariance(cfg: NetworkConfig, x_a: np.ndarray, x_b: np.ndarray,
                        targets: tuple[np.ndarray, np.ndarray],
                        n_networks: int) -> GradientCovariance:
    """Per-layer dot products between the weight gradients of two inputs.

    Both inputs traverse the same sampled network (independent dropout
    masks); the backward pass shares one set of backward matrices per the
    configured mode. The gradient dot factorizes as
    (delta_a . delta_b)(f_a . f_b).
    """
    if n_networks < 1:
        raise DomainError(f"n_networks must be >= 1, got {n_networks}")
    act = cfg.resolve_activation()
    depth = cfg.depth
    target_a, target_b = targets
    if len(target_a) != len(target_b):
        raise DomainError("both targets must have the same number of classes")
    dots = np.full((n_networks, depth), np.nan)
    finite_up_to = depth

    for net in range(n_networks):
        zs_a, fs_a, reached_a = _forward_single(cfg, act, net, x_a, _ROLE_MASK_A)
        zs_b, fs_b, reached_b = _forward_single(cfg, act, net, x_b, _ROLE_MASK_B)
        if min(reached_a, reached_b) < depth:
            finite_up_to = min(finite_up_to, reached_a, reached_b)
            continue
        p_a, w_out = _readout(cfg, net, fs_a[depth], len(target_a))
        p_b, _ = _readout(cfg, net, fs_b[depth], len(target_b))
        deltas_a = _backprop_deltas(cfg, act, net, zs_a, p_a - target_a,
                                    w_out, _ROLE_MASK_A)
        deltas_b = _backprop_deltas(cfg, act, net, zs_b, p_b - target_b,
                                    w_out, _ROLE_MASK_B)
        for l in range(depth):
            value = float(np.dot(deltas_a[l], deltas_b[l])) * float(np.dot(fs_a[l], fs_b[l]))
            if not math.isfinite(value):
                finite_up_to = min(finite_up_to, l)
                break
            dots[net, l] = value

    kept = finite_up_to
    return GradientCovariance(
        dot=dots[:, :kept] if kept < depth else dots,
        truncated_at=None if kept == depth else kept,
    )


def load_input_vectors(path, width: int) -> np.ndarray:
    """Read input vectors from a raw file of little-endian float32 rows.

    One vector per row, row length ``width``, no header. Lets users feed
    real dataset vectors (e.g. flattened images) into the simulator.
    """
    raw = np.fromfile(path, dtype="<f4")
    if raw.size == 0 or raw.size % width != 0:
        raise ConfigurationError(
            f"input file {path} holds {raw.size} float32 values, not a "
            f"multiple of the width {width}"
        )
    return raw.astype(np.float64).reshape(-1, width)
