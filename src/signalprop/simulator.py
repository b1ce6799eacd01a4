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
normals. The biases are one more column of W, on an input coordinate
sigma_b / sqrt(sigma_w^2/N) shared by every input. With F the k x (N + 1)
effective inputs so extended, F = L Q (L L^T = F F^T, Q with orthonormal
rows) and g k x N standard normals, the forward pass is
z = sqrt(sigma_w^2/N) L g. Given that draw, W = sqrt(sigma_w^2/N) g^T Q
+ W~ (I - Q^T Q) with W~ independent, so the ``tied`` backward pass is
delta W = sqrt(sigma_w^2/N) (delta g^T) Q + delta W~ (I - Q^T Q) without
its bias coordinate, and the ``independent`` one is the fresh term
delta W~ alone, drawn like the forward pass from delta's Gram matrix. Only
the softmax readout (C x N, C = 10 classes, and its C biases) is a dense
draw.

Networks run in blocks: every array of a block is (k, B, N), one slice per
network, and each network's arithmetic is its own (a network is never
summed with another), so results depend neither on the block size nor on
how many networks run.

Randomness comes from a counter-based generator (Philox; Salmon et al.,
SC 2011) with one stream per (layer, role, input row), keyed by that
position and independent of the network. Each block draws its B networks'
values from the stream in turn, so network i always gets the i-th chunk
of every stream: a run of n networks reproduces the first n networks of
any longer run, and row 0 of a pair gets the draws it would get alone.
The streams are set up once per run, not per network, and a network that
stops early still consumes its draws. Memory is bounded by a fixed byte
budget per block (``_BLOCK_BYTES``), not by the depth times the number of
networks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation, builtin
from .errors import ConfigurationError, DomainError, NumericError
from .meanfield import HyperParams

# Stream roles. The inputs' stream is seeded from the spawn key
# (0, 0, _ROLE_INPUT); the network streams are keyed by position.
_ROLE_WEIGHTS = 1
_ROLE_BIASES = 2
_ROLE_MASK = 3
_ROLE_BACKWARD = 4
_ROLE_INPUT = 5
_ROLE_READOUT = 6

#: A residual below this fraction of its row's norm is dropped: its square
#: is below the rounding of a float64 Gram entry.
_RANK_RTOL = math.sqrt(np.finfo(float).eps)

#: Bytes a block may keep for the backward pass: per network and layer, up
#: to four k x N float64 arrays (pre-activations, forward normals, basis,
#: dropout masks).
_BLOCK_BYTES = 32 * 2 ** 20

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


class _Streams:
    """Philox streams keyed by position (Salmon et al., SC 2011).

    Stream (layer, role, row) is Philox4x64 whose key is a word of the seed
    and the packed (layer, role, row), with its counter starting at 0. One
    bit generator serves every stream: a draw loads the stream's saved
    state and saves it back, about a third of the cost of building one.
    """

    def __init__(self, seed: int):
        self._word = np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
        self._bits = np.random.Philox(counter=0, key=0)
        self._generator = np.random.Generator(self._bits)
        self._states = {}

    def _start(self, layer: int, role: int, row: int) -> dict:
        position = np.uint64((layer << 16) | (role << 8) | row)
        zeros = np.zeros(4, np.uint64)
        return {"bit_generator": "Philox",
                "state": {"counter": zeros, "key": np.array([self._word, position])},
                "buffer": zeros.copy(), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def draw(self, key: tuple[int, int, int], method: str, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the next values of stream ``key`` from the
        generator method ``method`` (``standard_normal`` or ``random``)."""
        state = self._states.get(key)
        self._bits.state = self._start(*key) if state is None else state
        getattr(self._generator, method)(out=out)
        self._states[key] = self._bits.state
        return out


def _normals(streams: _Streams, layer: int, role: int, row: int,
             out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the next standard normals of stream (layer, role, row).

    ``out.shape[0]`` is the number of networks in the block; each takes
    the next ``out.shape[1:]`` values of the stream.
    """
    return streams.draw((layer, role, row), "standard_normal", out)


def _masks(streams: _Streams, layer: int, row: int, shape: tuple[int, int],
           rho: float) -> np.ndarray:
    """Dropout keep-masks over rho (0 or 1/rho) of one input row at one
    layer, ``shape`` = (networks in the block, N)."""
    uniforms = streams.draw((layer, _ROLE_MASK, row), "random", np.empty(shape))
    return (uniforms < rho) / rho


def _block_size(cfg: NetworkConfig, k: int, n_networks: int) -> int:
    """Networks per block: as many as keep the backward pass's stored
    arrays within ``_BLOCK_BYTES``, at least one.

    Forward-only runs store nothing across layers but use the same size:
    for 200 networks of depth 60 at N = 1000 and k = 2 it gives 8 networks
    per block, which ran faster than 2, 4, 6, 12 or 200 on a 2-core VM.
    """
    per_network = 4 * k * cfg.width * cfg.depth * np.dtype(float).itemsize
    return max(1, min(n_networks, _BLOCK_BYTES // per_network))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-network dot products of every row of ``a`` with every row of
    ``b``, both (k, B, N): (k, k, B).

    Each entry is numpy's pairwise sum of the products, so it does not
    depend on k or B the way a blocked BLAS product does.
    """
    return (a[:, None] * b[None, :]).sum(axis=-1)


def _gram(rows: np.ndarray) -> np.ndarray:
    """Per-network Gram matrices of (k, B, N) rows: (k, k, B)."""
    return _dots(rows, rows)


def _combine(coef: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row i of the result is sum_j coef[i, j] rows[j], per network:
    (k, k, B) and (k, B, N) to (k, B, N)."""
    out = coef[:, 0, :, None] * rows[0]
    for j in range(1, len(rows)):
        out += coef[:, j, :, None] * rows[j]
    return out


def _matvecs(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``w[b] @ rows[i, b]`` for w (B, R, N) and rows (k, B, N): (k, B, R).

    One matrix-vector product per row keeps each row's arithmetic
    bit-identical to a run with that row alone, whatever k is.
    """
    return np.stack([(w @ row[..., None])[..., 0] for row in rows])


def _reciprocal(values: np.ndarray) -> np.ndarray:
    """1 / values where values > 0, else 0."""
    return np.divide(1.0, values, out=np.zeros_like(values), where=values > 0)


def _factor(rows: np.ndarray, gram: np.ndarray, const: float = 0.0,
            with_basis: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Split each network's k <= 2 rows (k, B, L), each extended by one more
    coordinate ``const``, as ``low @ basis``, in closed form. ``gram``
    (k, k, B) is the Gram matrix of the rows without that coordinate;
    ``basis`` is None unless ``with_basis``.

    ``low`` (k, k, B) is lower triangular (``low @ low.T`` is the extended
    rows' Gram matrix to rounding) and ``basis`` (k, B, L + 1) has
    orthonormal rows, except that a row which is zero, or whose residual
    against the row above is below ``_RANK_RTOL`` of its norm, gets a zero
    diagonal and a zero basis row. The coefficient on the row above is a
    ratio of Gram entries, so identical rows get identical rows of ``low``;
    row 0 of ``low`` does not depend on k.
    """
    length = rows.shape[-1]
    gram = gram + const * const
    low = np.zeros(gram.shape)
    basis = np.empty(rows.shape[:-1] + (length + 1,)) if with_basis else None
    low[0, 0] = np.sqrt(gram[0, 0])
    if with_basis:
        inverse = _reciprocal(low[0, 0])
        np.multiply(rows[0], inverse[:, None], out=basis[0, :, :length])
        basis[0, :, length] = const * inverse
    if len(rows) == 2:
        ratio = np.divide(gram[1, 0], gram[0, 0], out=np.zeros_like(low[0, 0]),
                          where=low[0, 0] > 0)
        resid = rows[1] - ratio[:, None] * rows[0]
        resid_const = const * (1.0 - ratio)
        norm_sq = (resid * resid).sum(axis=-1) + resid_const * resid_const
        low[1, 0] = ratio * low[0, 0]
        low[1, 1] = np.where(norm_sq > _RANK_RTOL ** 2 * gram[1, 1], np.sqrt(norm_sq), 0.0)
        if with_basis:
            inverse = _reciprocal(low[1, 1])
            np.multiply(resid, inverse[:, None], out=basis[1, :, :length])
            basis[1, :, length] = resid_const * inverse
    return low, basis


def _gaussian_rows(streams: _Streams, rows: np.ndarray, gram: np.ndarray,
                   layer: int, role: int, scale: float, width: int,
                   const: float = 0.0, with_basis: bool = False):
    """Draw each network's ``rows @ W.T + const * w`` (or ``rows @ W``, the
    same law at ``const`` = 0) for W (width x L) and w (width) with i.i.d.
    N(0, scale^2) entries, from k x width normals g per network.

    Its columns are i.i.d. N(0, scale^2 (gram + const^2)), the law of the
    rows extended by the coordinate ``const`` times W extended by the
    column w, so the draw is scale low @ g (:func:`_factor`). Returns it
    with g and, if ``with_basis``, the extended rows' ``basis``, since
    [W, w] @ basis.T = scale g.T is what the tied backward pass conditions
    on. The scale multiplies ``low``, not ``gram``, so a large sigma_w^2
    overflows no earlier than the draw.
    """
    low, basis = _factor(rows, gram, const, with_basis)
    normals = np.empty((len(rows), rows.shape[1], width))
    for row, out in enumerate(normals):
        _normals(streams, layer, role, row, out)
    return _combine(scale * low, normals), normals, basis


def _tied_products(fresh: np.ndarray, delta: np.ndarray, normals: np.ndarray,
                   basis: np.ndarray, scale: float) -> np.ndarray:
    """``delta @ [W, w]`` for the layer whose forward draw gave ``normals``
    and the extended ``basis`` (:func:`_gaussian_rows`), with [W, w]
    sampled given that draw: scale (delta g^T) Q + fresh (I - Q^T Q), where
    ``fresh`` is ``delta @ W~`` for an independent W~ of the extended shape.

    So for every delta, ``result . (f_i, const) == delta . z_i``. The last
    coordinate is the bias column's; the backward pass drops it.
    """
    return fresh + _combine(scale * _dots(delta, normals) - _dots(fresh, basis), basis)


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
    if not (math.isfinite(norm_a_sq * norm_b_sq) and math.isfinite(dot_target)):
        raise NumericError(
            "input scale N rho (q0 - sigma_b^2) / sigma_w^2 or its dot target "
            f"is not finite at sigma_w_sq={hp.sigma_w_sq}, width={n}"
        )
    cos_theta = dot_target / math.sqrt(norm_a_sq * norm_b_sq)
    cos_theta = min(1.0, max(-1.0, cos_theta))
    sin_theta = math.sqrt(1.0 - cos_theta * cos_theta)

    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0, 0, _ROLE_INPUT))))
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
    """Run the k <= 2 rows of ``inputs`` (k x N) through sampled networks.

    Each row has its own dropout masks; all rows share each layer's
    weights and biases. Returns ``(gram, grad)``, both
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
    streams = _Streams(cfg.seed)
    k = len(inputs)
    gram = np.full((n_networks, cfg.depth, k, k), np.nan)
    grad = None if targets is None else np.full_like(gram, np.nan)
    size = _block_size(cfg, k, n_networks)
    for start in range(0, n_networks, size):
        block = slice(start, start + size)
        _run_block(cfg, streams, inputs, targets, gram[block],
                   None if grad is None else grad[block])
    return gram, grad


def _run_block(cfg: NetworkConfig, streams: _Streams, inputs: np.ndarray,
               targets: np.ndarray | None, gram: np.ndarray,
               grad: np.ndarray | None) -> None:
    """Fill ``gram`` and ``grad`` (B, depth, k, k) for the next B networks.

    Every array is (k, B, N). A network that stops keeps consuming its
    draws, with its rows zeroed, so every stream stays aligned.
    """
    act = cfg.resolve_activation()
    depth, rho, n = cfg.depth, cfg.hp.rho, cfg.width
    b, k = len(gram), len(inputs)
    tied = cfg.backprop_weights == "tied"
    keep_basis = tied and targets is not None
    scale = math.sqrt(cfg.hp.sigma_w_sq / n)
    bias_scale = math.sqrt(cfg.hp.sigma_b_sq)
    # A hidden layer's biases are one more column of W, on an input
    # coordinate bias_scale / scale that every row shares.
    const = bias_scale / scale

    def masks(layer):
        return np.stack([_masks(streams, layer, row, (b, n), rho) for row in range(k)])

    # f is the effective input to weight layer l, masks[l] * y (no masks at
    # rho = 1). The backward pass reads f_grams[l], its Gram matrix, and
    # kept[l]: the pre-activations of W^l, the masks of layer l + 1 (None at
    # rho = 1), and in tied mode the normals and the extended basis of W^l.
    dropout = rho < 1.0
    alive = np.ones(b, dtype=bool)
    f = np.broadcast_to(inputs[:, None, :], (k, b, n)) * (masks(0) if dropout else 1.0)
    keep = None
    f_grams, kept = [], []
    for l in range(depth):
        f_gram = _gram(f)
        alive &= np.isfinite(f_gram).all(axis=(0, 1))
        if not alive.all():
            f[:, ~alive] = 0.0
            f_gram[..., ~alive] = 0.0
        z, normals, basis = _gaussian_rows(streams, f, f_gram, l, _ROLE_WEIGHTS, scale, n,
                                           const, keep_basis)
        moments = _gram(z) / n
        alive &= np.isfinite(moments).all(axis=(0, 1))
        gram[:, l] = np.where(alive, moments, np.nan).transpose(2, 0, 1)
        if not alive.all():
            z[:, ~alive] = 0.0
        f = act.phi(z)
        if dropout:
            keep = masks(l + 1)
            f = f * keep  # not in place: linear's phi returns z itself
        if targets is not None:
            f_grams.append(f_gram)
            kept.append((z, keep, normals if tied else None, basis))
    if targets is None:
        return

    n_classes = targets.shape[1]
    w_up = scale * _normals(streams, depth, _ROLE_READOUT, 0, np.empty((b, n_classes, n)))
    logits = _matvecs(w_up, f) + bias_scale * _normals(
        streams, depth, _ROLE_BIASES, 0, np.empty((b, n_classes)))
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    delta = p - targets[:, None, :]
    if tied:
        grad_y = _matvecs(w_up.transpose(0, 2, 1), delta)
    else:
        grad_y, _, _ = _gaussian_rows(streams, delta, _gram(delta), depth,
                                      _ROLE_BACKWARD, scale, n)
    for l in range(depth - 1, -1, -1):
        z, keep, normals, basis = kept[l]
        if keep is not None:
            grad_y *= keep
        delta = act.d_phi(z) * grad_y
        delta_gram = _gram(delta)
        grad[:, l] = (delta_gram * f_grams[l]).transpose(2, 0, 1)
        if l == 0:
            break
        if not tied:
            grad_y, _, _ = _gaussian_rows(streams, delta, delta_gram, l, _ROLE_BACKWARD,
                                          scale, n)
            continue
        fresh, _, _ = _gaussian_rows(streams, delta, delta_gram, l, _ROLE_BACKWARD,
                                     scale, n + 1)
        grad_y = _tied_products(fresh, delta, normals, basis, scale)[..., :n]
    grad[~alive] = np.nan


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
