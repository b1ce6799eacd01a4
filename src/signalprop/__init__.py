"""Mean-field signal propagation in wide random neural networks."""

from .activations import Activation, builtin
from .analysis import ExpFit, fit_exponential, residuals
from .backprop import grad_covariance_factor
from .meanfield import (
    DepthScales,
    FixedPoint,
    HyperParams,
    Trajectory,
    chi1,
    correlation_map,
    critical_sigma_w,
    depth_scales,
    fixed_point,
    iterate_trajectory,
    solve_c_star,
    solve_q_star,
    variance_map,
    xi_c,
    xi_q,
)
from .quadrature import QuadratureRule, rule
from .simulator import (
    EmpiricalTrajectory,
    NetworkConfig,
    backward_covariance,
    backward_gradients,
    forward_pair,
    input_moments,
    load_input_vectors,
    prepare_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "DepthScales",
    "EmpiricalTrajectory",
    "ExpFit",
    "FixedPoint",
    "HyperParams",
    "NetworkConfig",
    "QuadratureRule",
    "Trajectory",
    "backward_covariance",
    "backward_gradients",
    "builtin",
    "chi1",
    "correlation_map",
    "critical_sigma_w",
    "depth_scales",
    "fit_exponential",
    "fixed_point",
    "forward_pair",
    "grad_covariance_factor",
    "input_moments",
    "iterate_trajectory",
    "load_input_vectors",
    "prepare_inputs",
    "residuals",
    "rule",
    "solve_c_star",
    "solve_q_star",
    "variance_map",
    "xi_c",
    "xi_q",
]
