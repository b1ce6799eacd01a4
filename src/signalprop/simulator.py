"""Monte Carlo validation on finite-width random networks.

Samples actual random networks (weights N(0, sigma_w^2/N), biases
N(0, sigma_b^2), optional per-input Bernoulli dropout masks), propagates
inputs forward, and backpropagates a cross-entropy loss through a softmax
readout, producing empirical layer-by-layer statistics to compare against
the mean-field theory.

One kernel serves every entry point: k inputs (one for gradient norms, a
pair for moments and gradient covariances) share each sampled network,
each input with its own dropout masks. Per layer it returns the k x k Gram
matrix of the pre-activations and, given targets, of the weight gradients.

No N x N weight matrix is drawn. A layer only multiplies k vectors by W,
and by Gaussian conditioning (Bolthausen; Yang, Tensor Programs, arXiv
1902.04760) those products are sampled exactly, at any width, from N k
normals. With F the k x N effective inputs, F = L Q (L L^T = F F^T, Q with
orthonormal rows) and g k x N standard normals, the forward pass is
z = sqrt(sigma_w^2/N) L g + b. Given that draw, W = sqrt(sigma_w^2/N) g^T Q
+ W~ (I - Q^T Q) with W~ independent, so the ``tied`` backward pass is
delta W = sqrt(sigma_w^2/N) (delta g^T) Q + delta W~ (I - Q^T Q), and the
``independent`` one is the fresh term delta W~ alone, drawn like the
forward pass from delta's Gram matrix. Only the softmax readout (C x N,
C = 10 classes) is a dense draw.

Randomness comes from a counter-based generator (Philox) with a dedicated
substream per (network, layer, role), so results are bit-reproducible and
realizations can be evaluated independently in any order. Memory is
O(L * N * k).
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
_MASK_ROLES = (_ROLE_MASK_A, _ROLE_MASK_B)

#: A residual below this fraction of its row's norm is dropped: its square
#: is below the rounding of a float64 Gram entry.
_RANK_RTOL = math.sqrt(np.finfo(float).eps)

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
        self.mean_log_norm_sq, self.stderr_log_norm_sq = _mean_stderr(self.log_norm_sq)


@dataclass
class GradientCovariance:
    """Per-layer dot products between the weight gradients of two inputs."""

    dot: np.ndarray  # (n_networks, depth)
    mean_dot: np.ndarray = field(init=False)
    stderr_dot: np.ndarray = field(init=False)
    truncated_at: int | None = None

    def __post_init__(self):
        self.mean_dot, self.stderr_dot = _mean_stderr(self.dot)


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over networks (axis 0) and its standard error."""
    n = samples.shape[0]
    ddof = 1 if n > 1 else 0
    return samples.mean(axis=0), samples.std(axis=0, ddof=ddof) / math.sqrt(n)


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def _normals(cfg: NetworkConfig, network: int, layer: int, role: int,
             shape: tuple[int, int]) -> np.ndarray:
    """Standard normals of one (network, layer, role) substream.

    Row i of a k x N block is the same for every k >= i + 1.
    """
    return _substream(cfg.seed, network, layer, role).standard_normal(shape)


def _biases(cfg: NetworkConfig, network: int, layer: int, size=None) -> np.ndarray:
    rng = _substream(cfg.seed, network, layer, _ROLE_BIASES)
    scale = math.sqrt(cfg.hp.sigma_b_sq)
    return rng.normal(0.0, scale, size=cfg.width if size is None else size)

def _masks(cfg: NetworkConfig, network: int, layer: int, k: int) -> np.ndarray:
    """Dropout keep-masks of the first k inputs at one layer, k x N."""
    return np.stack([
        _substream(cfg.seed, network, layer, role).random(cfg.width) < cfg.hp.rho
        for role in _MASK_ROLES[:k]
    ]).astype(float)


def _matvecs(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``w @ row`` for each row of ``rows``.

    One matrix-vector product per input keeps each input's arithmetic
    bit-identical to a run with that input alone, whatever k is.
    """
    return np.stack([w @ row for row in rows])


def _gram(rows: np.ndarray) -> np.ndarray:
    """Dot products of every pair of rows, k x k.

    Each entry is numpy's pairwise sum of the products, so it does not
    depend on k the way a blocked BLAS product (``rows @ rows.T``) does.
    """
    return (rows[:, None, :] * rows[None, :, :]).sum(axis=2)


def _factor(rows: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split k <= 2 rows with Gram matrix ``gram`` as ``low @ basis``.

    ``low`` is lower triangular (``low @ low.T == gram`` to rounding) and
    ``basis`` has orthonormal rows, except that a row which is zero, or whose
    residual against the row above is below ``_RANK_RTOL`` of its norm, gets
    a zero diagonal and a zero basis row. The coefficient on the row above
    is a ratio of Gram entries, so identical rows get identical rows of
    ``low``; row 0 of ``low`` does not depend on k.
    """
    low = np.zeros((len(rows), len(rows)))
    basis = np.zeros_like(rows)
    low[0, 0] = math.sqrt(gram[0, 0])
    if low[0, 0] > 0:
        basis[0] = rows[0] / low[0, 0]
    if len(rows) == 2:
        ratio = gram[1, 0] / gram[0, 0] if low[0, 0] > 0 else 0.0
        resid = rows[1] - ratio * rows[0]
        norm_sq = float(resid @ resid)
        low[1, 0] = ratio * low[0, 0]
        if norm_sq > _RANK_RTOL ** 2 * gram[1, 1]:
            low[1, 1] = math.sqrt(norm_sq)
            basis[1] = resid / low[1, 1]
    return low, basis


def _gaussian_rows(cfg: NetworkConfig, rows: np.ndarray, gram: np.ndarray,
                   network: int, layer: int, role: int):
    """Draw ``rows @ W.T`` (or ``rows @ W``, the same law) for W with i.i.d.
    N(0, sigma_w^2/N) entries, from the k x N normals g of one substream.

    Its columns are i.i.d. N(0, sigma_w^2/N gram), so the draw is
    sqrt(sigma_w^2/N) low @ g (:func:`_factor`). Returns it with g and
    ``basis``, since W @ basis.T = sqrt(sigma_w^2/N) g.T is what the tied
    backward pass conditions on. The scale multiplies ``low``, not
    ``gram``, so a large sigma_w^2 overflows no earlier than the draw.
    """
    low, basis = _factor(rows, gram)
    normals = _normals(cfg, network, layer, role, (len(rows), cfg.width))
    return math.sqrt(cfg.hp.sigma_w_sq / cfg.width) * low @ normals, normals, basis


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


def _propagate(cfg: NetworkConfig, inputs: np.ndarray, n_networks: int,
               targets: np.ndarray | None = None):
    """Run the k rows of ``inputs`` (k x N) through sampled networks.

    Row i uses the dropout masks of role ``_MASK_ROLES[i]``; all rows share
    each layer's weights and biases. Returns ``(gram, grad)``, both
    (n_networks, depth, k, k): ``gram[net, l]`` is the Gram matrix of the
    layer-l pre-activations divided by N. A network stops at the first
    layer whose input or pre-activation Gram matrix is not finite and
    leaves NaN from there on.

    With ``targets`` (k x n_classes), each network that reaches the top
    feeds a softmax readout; ``grad[net, l]`` then holds the dot products
    (delta_i . delta_j)(f_i . f_j) of the weight gradients of the
    cross-entropy losses, since the gradient with respect to W^l
    factorizes as delta^l outer f^l. In ``independent`` mode every
    backward matrix is a fresh i.i.d. draw with the forward statistics; in
    ``tied`` mode it is the forward matrix, sampled given the forward draw
    (see the module docstring). Without targets ``grad`` is None.
    """
    if n_networks < 1:
        raise DomainError(f"n_networks must be >= 1, got {n_networks}")
    act = cfg.resolve_activation()
    depth, rho, k = cfg.depth, cfg.hp.rho, len(inputs)
    tied = cfg.backprop_weights == "tied"
    scale = math.sqrt(cfg.hp.sigma_w_sq / cfg.width)
    gram = np.full((n_networks, depth, k, k), np.nan)
    grad = None if targets is None else np.full_like(gram, np.nan)

    for net in range(n_networks):
        # fs[l] is the effective input to weight layer l, masks[l] * y / rho
        # (masks[l] = 1.0 at rho = 1); f_grams[l] is its Gram matrix and
        # drawn[l] the normals and basis of W^l.
        masks = [_masks(cfg, net, 0, k) if rho < 1.0 else 1.0]
        fs = [masks[0] * inputs / rho]
        f_grams, drawn, zs = [], [], []
        for l in range(depth):
            f_gram = _gram(fs[l])
            if not np.all(np.isfinite(f_gram)):
                break
            u, normals, basis = _gaussian_rows(cfg, fs[l], f_gram, net, l, _ROLE_WEIGHTS)
            z = u + _biases(cfg, net, l)
            moments = _gram(z) / cfg.width
            if not np.all(np.isfinite(moments)):
                break
            gram[net, l] = moments
            f_grams.append(f_gram)
            drawn.append((normals, basis))
            zs.append(z)
            y = act.phi(z)
            masks.append(_masks(cfg, net, l + 1, k) if rho < 1.0 else 1.0)
            fs.append(masks[l + 1] * y / rho)
        if targets is None or len(zs) < depth:
            continue

        n_classes = targets.shape[1]
        w_up = scale * _normals(cfg, net, depth, _ROLE_READOUT, (n_classes, cfg.width))
        logits = _matvecs(w_up, fs[depth]) + _biases(cfg, net, depth, size=n_classes)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        delta = p - targets
        if tied:
            grad_y = _matvecs(w_up.T, delta)
        else:
            grad_y, _, _ = _gaussian_rows(cfg, delta, _gram(delta), net, depth,
                                          _ROLE_BACKWARD)
        for l in range(depth - 1, -1, -1):
            grad_y *= masks[l + 1] / rho
            delta = act.d_phi(zs[l]) * grad_y
            delta_gram = _gram(delta)
            grad[net, l] = delta_gram * f_grams[l]
            if l == 0:
                break
            grad_y, _, _ = _gaussian_rows(cfg, delta, delta_gram, net, l, _ROLE_BACKWARD)
            if tied:
                normals, basis = drawn[l]
                grad_y += (scale * (delta @ normals.T) - grad_y @ basis.T) @ basis
    return gram, grad


def _truncation(valid: np.ndarray) -> int | None:
    """First layer at which some network's value is not valid, else None.

    ``valid`` is (n_networks, depth); results keep the layers before it.
    """
    every = valid.all(axis=0)
    return None if every.all() else int(np.argmin(every))


def forward_pair(cfg: NetworkConfig, x_a: np.ndarray, x_b: np.ndarray,
                 n_networks: int) -> EmpiricalTrajectory:
    """Propagate a pair of inputs through sampled realizations.

    Dropout masks are drawn independently per input and layer. Layer l of
    the result holds the moments of the l-th pre-activation, aligned with
    index l of the theoretical trajectory started at the inputs' moments.
    """
    if len(x_a) != cfg.width or len(x_b) != cfg.width:
        raise DomainError("input vectors must have length equal to the width")
    gram, _ = _propagate(cfg, np.stack([x_a, x_b]), n_networks)
    cut = _truncation(np.isfinite(gram).all(axis=(2, 3)))
    q_a, q_b, q_ab = (gram[:, :cut, i, j] for i, j in ((0, 0), (1, 1), (0, 1)))
    q_aa_hat, q_aa_stderr = _mean_stderr(q_a)
    c_ab_hat, c_ab_stderr = _mean_stderr(q_ab / np.sqrt(q_a * q_b))
    return EmpiricalTrajectory(
        q_aa_hat=q_aa_hat,
        q_aa_stderr=q_aa_stderr,
        q_bb_hat=q_b.mean(axis=0),
        c_ab_hat=c_ab_hat,
        c_ab_stderr=c_ab_stderr,
        n_networks=n_networks,
        truncated_at=cut,
    )


def backward_gradients(cfg: NetworkConfig, input_vec: np.ndarray,
                       target: np.ndarray, n_networks: int) -> GradientNorms:
    """Exact per-layer squared gradient 2-norms of a cross-entropy loss.

    The loss is cross-entropy of a softmax readout (width = len(target))
    drawn with the same weight statistics. The gradient with respect to
    W^l factorizes as delta^l outer f^l, so its squared norm is
    ||delta^l||^2 ||f^l||^2 without forming the outer product.
    """
    _, grad = _propagate(cfg, np.stack([input_vec]), n_networks, np.stack([target]))
    norm_sq = grad[:, :, 0, 0]
    cut = _truncation(np.isfinite(norm_sq) & (norm_sq > 0))
    return GradientNorms(log_norm_sq=np.log(norm_sq[:, :cut]), truncated_at=cut)


def backward_covariance(cfg: NetworkConfig, x_a: np.ndarray, x_b: np.ndarray,
                        targets: tuple[np.ndarray, np.ndarray],
                        n_networks: int) -> GradientCovariance:
    """Per-layer dot products between the weight gradients of two inputs.

    Both inputs traverse the same sampled network (independent dropout
    masks); the backward pass shares one set of backward matrices per the
    configured mode. The gradient dot factorizes as
    (delta_a . delta_b)(f_a . f_b).
    """
    if len(targets[0]) != len(targets[1]):
        raise DomainError("both targets must have the same number of classes")
    _, grad = _propagate(cfg, np.stack([x_a, x_b]), n_networks, np.stack(targets))
    dot = grad[:, :, 0, 1]
    cut = _truncation(np.isfinite(dot))
    return GradientCovariance(dot=dot[:, :cut], truncated_at=cut)


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
