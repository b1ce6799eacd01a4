"""Mean-field factor of gradient covariance.

Backpropagated errors obey the same kind of layer-to-layer multiplicative
recurrences as forward signals: the error variance picks up a factor of
chi1 per layer (its depth scale is ``meanfield.DepthScales.xi_grad``),
and the error covariance between two inputs picks up exactly the
linearization factor of the forward correlation map. Gradients therefore
vanish in the ordered phase, explode in the chaotic phase, and are
marginal on the critical line.
"""
from .meanfield import correlation_slope

#: Per-layer factor of the error-covariance recurrence at (q*, c*): the
#: forward correlation-map slope itself, so the covariance between
#: gradients decays over exactly the forward correlation depth scale.
grad_covariance_factor = correlation_slope
