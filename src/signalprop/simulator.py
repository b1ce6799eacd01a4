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
It calls the ``Activation`` object of its ``NetworkConfig`` and resolves
no names, so any activation the theory takes runs here too.

No weight matrix is drawn. A layer only multiplies k vectors by W, and by
Gaussian conditioning (Bolthausen; Yang, Tensor Programs, arXiv
1902.04760) those products are sampled exactly, at any width, from k
normals per output unit. The biases are one more column of W, on an input
coordinate sigma_b / sqrt(sigma_w^2/N) shared by every input. With F the
k x (N + 1) effective inputs so extended, F = L Q (L L^T = F F^T, Q with
orthonormal rows) and g k x M standard normals for M output units, the
forward pass is z = sqrt(sigma_w^2/N) L g. Given that draw,
W = sqrt(sigma_w^2/N) g^T Q + W~ (I - Q^T Q) with W~ independent, so the
tied backward pass (``tied=True``) is delta W = sqrt(sigma_w^2/N)
(delta g^T) Q + delta W~ (I - Q^T Q) without its bias coordinate, and the
independent one is the fresh term delta W~ alone, drawn like the forward
pass from delta's Gram matrix. The softmax readout (C = 10 classes by
default) is weight layer ``depth``, sampled like the hidden layers at
M = C: its pre-activations are the logits.

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
The streams are set up once per run, not per network. A block stops at
the first layer where any of its networks overflows, and every entry
point cuts its results there, so the draws a stopped block leaves to the
next one are of layers no result reports. Memory is bounded by a fixed byte
budget per block (``_BLOCK_BYTES``), not by the depth times the number of
networks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activations import Activation
from .errors import ConfigurationError, DegenerateVarianceError, DomainError, NumericError
from .meanfield import HyperParams, _root_product

# Stream roles. The inputs' stream is seeded from the spawn key
# (0, 0, _ROLE_INPUT); the network streams are keyed by position.
_ROLE_WEIGHTS = 1
_ROLE_MASK = 3
_ROLE_BACKWARD = 4
_ROLE_INPUT = 5

#: A residual below this fraction of its row's norm is dropped: its square
#: is below the rounding of a float64 Gram entry.
_RANK_RTOL = math.sqrt(np.finfo(float).eps)

#: Bytes a block may keep for the backward pass: per network and layer, up
#: to four k x N float64 arrays (pre-activations, forward normals, basis,
#: dropout masks).
_BLOCK_BYTES = 32 * 2 ** 20

DEFAULT_N_CLASSES = 10


@dataclass(frozen=True)
class NetworkConfig:
    """A sampled network's shape, law and seed.

    ``activation`` is the object the kernel calls, built-in or not.
    ``tied`` selects the backward pass's weights: the forward matrices,
    sampled given the forward draw (True), or fresh i.i.d. draws with the
    forward statistics (False).
    """

    depth: int
    width: int
    hp: HyperParams
    activation: Activation
    seed: int = 0
    tied: bool = True

    def __post_init__(self):
        if self.depth < 1:
            raise DomainError(f"depth must be >= 1, got {self.depth}")
        if self.width < 1:
            raise DomainError(f"width must be >= 1, got {self.width}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EmpiricalTrajectory:
    """Unit- and ensemble-averaged pre-activation moments per layer."""

    q_aa_hat: np.ndarray
    q_aa_stderr: np.ndarray
    c_ab_hat: np.ndarray
    c_ab_stderr: np.ndarray
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
    """Mean over networks (axis 0) and its standard error.

    Both are taken of the samples over ``_binade`` of their largest
    magnitude and scaled back, so neither the sum nor the squares
    overflow.
    """
    n = samples.shape[0]
    ddof = 1 if n > 1 else 0
    scale = _binade(np.abs(samples).max(axis=0))
    scaled = samples / scale
    return (scaled.mean(axis=0) * scale,
            scaled.std(axis=0, ddof=ddof) * scale / math.sqrt(n))


def _binade(x: np.ndarray) -> np.ndarray:
    """The power of two at the bottom of each |x|'s binade (0.5 at x = 0).

    Dividing by it is exact short of the subnormals and leaves values of
    magnitude below 2, so a computation scaled by it and scaled back
    gives the same doubles as unscaled, and its squares cannot overflow.
    """
    return np.ldexp(0.5, np.frexp(x)[1])


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

    def draw(self, layer: int, role: int, method: str, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (k, B, ...) with the next values of the streams
        (layer, role, row) for rows 0 ... k - 1, from the generator method
        ``method`` (``standard_normal`` or ``random``). B is the number of
        networks in the block; each takes the next ``out.shape[2:]`` values
        of every row's stream."""
        for row, values in enumerate(out):
            key = (layer, role, row)
            state = self._states.get(key)
            self._bits.state = self._start(*key) if state is None else state
            getattr(self._generator, method)(out=values)
            self._states[key] = self._bits.state
        return out


def _block_size(cfg: NetworkConfig, k: int, n_networks: int) -> int:
    """Networks per block: as many as keep the backward pass's stored
    arrays within ``_BLOCK_BYTES``, at least one. The readout, weight layer
    ``depth``, is not counted: its pre-activations and normals are only C
    wide.

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
    normals = streams.draw(layer, role, "standard_normal",
                           np.empty((len(rows), rows.shape[1], width)))
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
    (q0_a, q0_b, c0) on average over the weights, biases and masks.

    The inputs realize only correlations c with |c sqrt(q0_a q0_b) -
    sigma_b^2| <= rho sqrt((q0_a - sigma_b^2)(q0_b - sigma_b^2)):
    independent dropout masks decorrelate even identical inputs, and the
    shared bias correlates even opposite ones. A c0 outside that range is
    clamped to its nearer end (the cosine of the inputs' angle is clamped
    to +/-1); :func:`input_moments` gives the moments realized. The two
    inputs span a plane, so the width must be at least 2. sqrt(q0_a q0_b)
    and the norm of the two input scales N rho (q0 - sigma_b^2) /
    sigma_w^2 come from ``meanfield._root_product``, so products that
    overflow (q0 = 1e200) or underflow (sigma_w^2 = 1e250) are no error;
    a scale that is itself 0 or inf, or a dot target that is not finite,
    raises NumericError.
    """
    hp = cfg.hp
    if cfg.width < 2:
        raise DomainError(f"synthetic inputs need width >= 2, got width={cfg.width}")
    for name, q0 in (("q0_a", q0_a), ("q0_b", q0_b)):
        if not hp.sigma_b_sq < q0 < math.inf:
            raise DomainError(
                f"{name}={q0} must be finite and exceed sigma_b_sq={hp.sigma_b_sq} "
                "to be realizable by scaling the input"
            )
    if not abs(c0) <= 1:
        raise DomainError(f"c0 must lie in [-1, 1], got {c0}")
    n = cfg.width
    norm_a_sq = n * hp.rho * (q0_a - hp.sigma_b_sq) / hp.sigma_w_sq
    norm_b_sq = n * hp.rho * (q0_b - hp.sigma_b_sq) / hp.sigma_w_sq
    dot_target = n * (c0 * _root_product(q0_a, q0_b) - hp.sigma_b_sq) / hp.sigma_w_sq
    if not (0.0 < norm_a_sq < math.inf and 0.0 < norm_b_sq < math.inf
            and math.isfinite(dot_target)):
        raise NumericError(
            "input scale N rho (q0 - sigma_b^2) / sigma_w^2 or its dot target is "
            f"not finite, or the scale underflows, at sigma_w_sq={hp.sigma_w_sq}, width={n}"
        )
    cos_theta = dot_target / _root_product(norm_a_sq, norm_b_sq)
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


def input_moments(cfg: NetworkConfig, x_a: np.ndarray,
                  x_b: np.ndarray) -> tuple[float, float, float]:
    """The layer-0 pre-activation moments (q_a, q_b, c) that the inputs
    realize on average over the weights, biases and masks: the inverse of
    :func:`prepare_inputs`.

    E[z_a z_b] = sigma_w^2 (x_a . x_b) / N + sigma_b^2 for two inputs with
    independent masks, and a mask scales its own input's squared norm by
    1 / rho on average. The correlation is divided by
    ``meanfield._root_product``, so it needs no finite product q_a q_b; a
    variance that is 0 or not finite raises DegenerateVarianceError.
    """
    hp, n = cfg.hp, cfg.width
    q_a = hp.sigma_w_sq * float(x_a @ x_a) / (hp.rho * n) + hp.sigma_b_sq
    q_b = hp.sigma_w_sq * float(x_b @ x_b) / (hp.rho * n) + hp.sigma_b_sq
    q_ab = hp.sigma_w_sq * float(x_a @ x_b) / n + hp.sigma_b_sq
    if not (q_a < math.inf and q_b < math.inf):
        raise DegenerateVarianceError(f"input correlation undefined for q_a={q_a}, q_b={q_b}")
    return q_a, q_b, min(1.0, max(-1.0, q_ab / _root_product(q_a, q_b)))


def _propagate(cfg: NetworkConfig, inputs: np.ndarray, n_networks: int,
               targets: np.ndarray | None = None):
    """Run the k <= 2 rows of ``inputs`` (k x N) through sampled networks.

    Each row has its own dropout masks; all rows share each layer's
    weights and biases. Returns ``(gram, grad)``, both
    (n_networks, depth, k, k): ``gram[net, l]`` is the Gram matrix of the
    layer-l pre-activations divided by N. A block of networks stops at the
    first layer where the input or pre-activation Gram matrix of any of
    them is not finite: from there on its ``gram``, and all of its
    ``grad``, are NaN. The entry points cut every network at that layer
    (gradients at layer 0), so no reported value depends on the block.

    With ``targets`` (k x n_classes), each block that reaches the top
    feeds a softmax readout, weight layer ``depth`` with n_classes units,
    sampled like the hidden layers; ``grad[net, l]`` then holds the dot
    products (delta_i . delta_j)(f_i . f_j) of the weight gradients of the
    cross-entropy losses, since the gradient with respect to W^l
    factorizes as delta^l outer f^l. Without ``cfg.tied`` every backward
    matrix, the readout's included, is a fresh i.i.d. draw with the
    forward statistics; with it, it is the forward matrix, sampled given
    the forward draw (see the module docstring). Without targets ``grad``
    is None.
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
    """Fill ``gram`` and ``grad`` (B, depth, k, k), pre-filled with NaN,
    for the next B networks.

    Every array is (k, B, N), or (k, B, C) for the readout. Weight layer l
    multiplies f_l = masks(l) y_l, where y_0 is the inputs and y_l =
    phi(z_{l-1}), phi and phi' being ``cfg.activation``'s; without targets
    the loop ends at z_{depth-1}. Given targets it runs one more weight
    layer, the readout (layer ``depth``, C = ``targets.shape[1]`` units, no
    activation and no Gram row), whose pre-activations are the logits, and
    the backward pass draws each weight layer from ``depth`` down to 1 once
    more, tied or not as ``cfg.tied`` says. At the first Gram matrix that
    is not finite the block stops and draws nothing more.
    """
    act, tied = cfg.activation, cfg.tied
    depth, rho, n = cfg.depth, cfg.hp.rho, cfg.width
    b, k = len(gram), len(inputs)
    keep_basis = tied and targets is not None
    scale = math.sqrt(cfg.hp.sigma_w_sq / n)
    # Biases are one more column of W, on an input coordinate
    # sigma_b / scale that every row shares.
    const = math.sqrt(cfg.hp.sigma_b_sq) / scale

    # The backward pass reads, per weight layer l, the Gram matrix of f_l,
    # the pre-activations z_l, masks(l) (None at rho = 1) and in tied mode
    # the normals and the extended basis of W^l.
    stored = []
    for l in range(depth if targets is None else depth + 1):
        f = np.broadcast_to(inputs[:, None, :], (k, b, n)) if l == 0 else act.phi(z)
        keep = None
        if rho < 1.0:
            keep = (streams.draw(l, _ROLE_MASK, "random", np.empty((k, b, n))) < rho) / rho
            f = f * keep  # not in place: linear's phi returns z itself
        f_gram = _gram(f)
        if not np.isfinite(f_gram).all():
            return
        width = n if l < depth else targets.shape[1]
        z, normals, basis = _gaussian_rows(streams, f, f_gram, l, _ROLE_WEIGHTS, scale,
                                           width, const, keep_basis)
        if targets is not None:
            stored.append((f_gram, z, keep, normals if tied else None, basis))
        if l < depth:
            moments = _gram(z) / n
            if not np.isfinite(moments).all():
                return
            gram[:, l] = moments.transpose(2, 0, 1)
    if targets is None:
        return

    # z is the readout's pre-activations: the logits.
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    delta = p - targets[:, None, :]
    delta_gram = _gram(delta)
    for l in range(depth, 0, -1):
        _, _, keep, normals, basis = stored[l]
        f_gram, z, _, _, _ = stored[l - 1]
        grad_f, _, _ = _gaussian_rows(streams, delta, delta_gram, l, _ROLE_BACKWARD,
                                      scale, n + 1)
        if tied:
            grad_f = _tied_products(grad_f, delta, normals, basis, scale)
        # The last coordinate is the bias column's, not an input's.
        grad_y = grad_f[..., :n]
        if keep is not None:
            grad_y *= keep
        delta = act.d_phi(z) * grad_y
        delta_gram = _gram(delta)
        grad[:, l - 1] = (delta_gram * f_gram).transpose(2, 0, 1)


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
    # q_a * q_b overflows where each variance is still finite.
    scale = _binade(np.maximum(q_a, q_b))
    c_ab_hat, c_ab_stderr = _mean_stderr(
        (q_ab / scale) / np.sqrt((q_a / scale) * (q_b / scale)))
    return EmpiricalTrajectory(
        q_aa_hat=q_aa_hat,
        q_aa_stderr=q_aa_stderr,
        c_ab_hat=c_ab_hat,
        c_ab_stderr=c_ab_stderr,
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
    try:
        raw = np.fromfile(path, dtype="<f4")
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read input file {path}: {exc.strerror or exc}") from exc
    if raw.size == 0 or raw.size % width != 0:
        raise ConfigurationError(
            f"input file {path} holds {raw.size} float32 values, not a "
            f"multiple of the width {width}"
        )
    return raw.astype(np.float64).reshape(-1, width)
