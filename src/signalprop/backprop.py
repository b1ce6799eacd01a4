"""Mean-field factor of gradient covariance.

Backpropagated errors obey the same kind of layer-to-layer multiplicative
recurrences as forward signals: the error variance picks up a factor of
chi1 per layer (its depth scale is ``meanfield.DepthScales.xi_grad``),
and the error covariance between two inputs picks up exactly the
linearization factor of the forward correlation map. Gradients therefore
vanish in the ordered phase, explode in the chaotic phase, and are
marginal on the critical line.
"""
from __future__ import annotations

from .activations import Activation
from .meanfield import HyperParams, correlation_slope
from .quadrature import QuadratureRule


def grad_covariance_factor(hp: HyperParams, act: Activation, q_star: float,
                           c_star: float,
                           quad: QuadratureRule | None = None) -> float:
    """Per-layer factor of the error-covariance recurrence.

    Identical to the forward correlation-map slope at (q*, c*): the
    covariance between gradients decays over exactly the forward
    correlation depth scale.
    """
    return correlation_slope(hp, act, q_star, c_star, quad)
