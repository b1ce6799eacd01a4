"""Mean-field factors of gradient variance and gradient covariance.

Backpropagated errors obey the same kind of layer-to-layer multiplicative
recurrences as forward signals: the error variance picks up a factor of
chi1 per layer, and the error covariance between two inputs picks up
exactly the linearization factor of the forward correlation map.
Gradients therefore vanish in the ordered phase, explode in the chaotic
phase, and are marginal on the critical line.
"""
from __future__ import annotations

from .activations import Activation
from .errors import DomainError
from .meanfield import HyperParams, correlation_slope, _scale_from_factor
from .quadrature import QuadratureRule


def xi_grad(chi1_value: float) -> float:
    """Signed gradient depth scale -1/log(chi1).

    Positive in the ordered phase (vanishing gradients), negative in the
    chaotic phase (exploding gradients), +-inf at criticality.
    """
    if chi1_value <= 0:
        raise DomainError(f"chi1 must be > 0, got {chi1_value}")
    return _scale_from_factor(chi1_value, allow_growth=True)


def grad_covariance_factor(hp: HyperParams, act: Activation, q_star: float,
                           c_star: float,
                           quad: QuadratureRule | None = None) -> float:
    """Per-layer factor of the error-covariance recurrence.

    Identical to the forward correlation-map slope at (q*, c*): the
    covariance between gradients decays over exactly the forward
    correlation depth scale.
    """
    return correlation_slope(hp, act, q_star, c_star, quad)
