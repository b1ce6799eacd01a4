"""Mean-field recurrences for gradient variance and gradient covariance.

Backpropagated errors obey the same kind of layer-to-layer multiplicative
recurrences as forward signals: the error variance picks up a factor of
chi1 per layer (times a width ratio for non-constant widths), and the
error covariance between two inputs picks up exactly the linearization
factor of the forward correlation map. Gradients therefore vanish in the
ordered phase, explode in the chaotic phase, and are marginal on the
critical line.
"""
from __future__ import annotations

import math

import numpy as np

from .activations import Activation
from .errors import DomainError
from .meanfield import HyperParams, chi1, correlation_slope, _scale_from_factor
from .quadrature import QuadratureRule


def xi_grad(chi1_value: float) -> float:
    """Signed gradient depth scale -1/log(chi1).

    Positive in the ordered phase (vanishing gradients), negative in the
    chaotic phase (exploding gradients), +-inf at criticality.
    """
    if chi1_value <= 0:
        raise DomainError(f"chi1 must be > 0, got {chi1_value}")
    return _scale_from_factor(chi1_value, allow_growth=True)


def _backward_fill(factor: float, widths, seed: float) -> np.ndarray:
    widths = list(widths)
    if not widths or any(n <= 0 for n in widths):
        raise DomainError(f"widths must be a nonempty list of positive ints, got {widths}")
    if seed <= 0:
        raise DomainError(f"seed value must be > 0, got {seed}")
    n_layers = len(widths)
    out = np.empty(n_layers)
    out[-1] = seed
    for l in range(n_layers - 2, -1, -1):
        # Width ratio N_{l+1}/N_{l+2}; the index past the last layer refers
        # to the readout, treated as equal to the final width.
        ratio = widths[l + 1] / widths[min(l + 2, n_layers - 1)]
        out[l] = out[l + 1] * ratio * factor
    return out


def grad_variance_trajectory(hp: HyperParams, act: Activation, q_star: float,
                             widths, q_tilde_L: float = 1.0,
                             quad: QuadratureRule | None = None) -> np.ndarray:
    """Per-layer error variance, filled backwards from the output layer.

    For constant widths this is q_tilde_L * chi1 ** (L - l).
    """
    factor = chi1(hp, act, q_star, quad)
    return _backward_fill(factor, widths, q_tilde_L)


def grad_covariance_factor(hp: HyperParams, act: Activation, q_star: float,
                           c_star: float,
                           quad: QuadratureRule | None = None) -> float:
    """Per-layer factor of the error-covariance recurrence.

    Identical to the forward correlation-map slope at (q*, c*): the
    covariance between gradients decays over exactly the forward
    correlation depth scale.
    """
    return correlation_slope(hp, act, q_star, c_star, quad)


def grad_covariance_trajectory(hp: HyperParams, act: Activation, q_star: float,
                               c_star: float, widths,
                               q_tilde_ab_L: float = 1.0,
                               quad: QuadratureRule | None = None) -> np.ndarray:
    """Per-layer error covariance between two inputs, filled backwards."""
    if abs(c_star) > 1:
        raise DomainError(f"|c_star| must be <= 1, got {c_star}")
    factor = grad_covariance_factor(hp, act, q_star, c_star, quad)
    return _backward_fill(factor, widths, q_tilde_ab_L)
