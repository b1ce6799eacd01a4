"""Gradient depth scale and covariance factor against closed forms."""
import math

import pytest

from signalprop import backprop
from signalprop.activations import builtin
from signalprop import meanfield as mf

TANH = builtin("tanh")
LINEAR = builtin("linear")


def xi_grad(chi1_value):
    """The signed gradient depth scale of ``meanfield.DepthScales``."""
    return mf._scale_from_factor(chi1_value, allow_growth=True)


class TestXiGrad:
    def test_signs(self):
        assert xi_grad(0.9) > 0
        assert xi_grad(1.1) < 0
        assert xi_grad(1.0) == math.inf

    def test_matches_log_formula(self):
        assert math.isclose(xi_grad(0.5), -1.0 / math.log(0.5), rel_tol=1e-15)


class TestGradCovariance:
    def test_linear_factor_is_sigma_w_sq(self):
        hp = mf.HyperParams(0.5, 0.1)
        fp = mf.fixed_point(hp, LINEAR)
        factor = backprop.grad_covariance_factor(hp, LINEAR, fp.q_star,
                                                 fp.c_star)
        assert math.isclose(factor, 0.5, abs_tol=1e-10)

    def test_factor_equals_correlation_slope(self):
        hp = mf.HyperParams(2.5, 0.05)
        fp = mf.fixed_point(hp, TANH)
        factor = backprop.grad_covariance_factor(hp, TANH, fp.q_star, fp.c_star)
        slope = mf.correlation_slope(hp, TANH, fp.q_star, fp.c_star)
        assert factor == slope

    @pytest.mark.parametrize("name", ["tanh", "hard_tanh"])
    def test_ordered_factor_is_chi1(self, name):
        # At c* = 1 gradient covariances decay like gradient variances.
        act = builtin(name)
        hp = mf.HyperParams(0.9, 0.1)
        fp = mf.fixed_point(hp, act)
        assert fp.c_star == 1.0
        factor = backprop.grad_covariance_factor(hp, act, fp.q_star, fp.c_star)
        assert math.isclose(factor, mf.chi1(hp, act, fp.q_star), rel_tol=1e-14)
