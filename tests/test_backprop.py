"""Gradient variance/covariance recurrences against closed forms."""
import math

import numpy as np
import pytest

from signalprop import backprop
from signalprop.activations import builtin
from signalprop.errors import DomainError
from signalprop import meanfield as mf

TANH = builtin("tanh")
LINEAR = builtin("linear")


class TestXiGrad:
    def test_signs(self):
        assert backprop.xi_grad(0.9) > 0
        assert backprop.xi_grad(1.1) < 0
        assert backprop.xi_grad(1.0) == math.inf

    def test_matches_log_formula(self):
        assert math.isclose(backprop.xi_grad(0.5), -1.0 / math.log(0.5),
                            rel_tol=1e-15)

    def test_invalid(self):
        with pytest.raises(DomainError):
            backprop.xi_grad(0.0)


class TestGradVariance:
    def test_constant_width_geometric(self):
        hp = mf.HyperParams(1.7, 0.05)
        q_star, _ = mf.solve_q_star(hp, TANH)
        chi = mf.chi1(hp, TANH, q_star)
        widths = [300] * 10
        traj = backprop.grad_variance_trajectory(hp, TANH, q_star, widths,
                                                 q_tilde_L=2.0)
        expected = 2.0 * chi ** (len(widths) - 1 - np.arange(len(widths)))
        np.testing.assert_allclose(traj, expected, rtol=1e-12)

    def test_varying_widths_hand_computed(self):
        hp = mf.HyperParams(0.5, 0.1)
        q_star, _ = mf.solve_q_star(hp, LINEAR)
        widths = [100, 200, 400]
        # factor = chi1 = sigma_w_sq for linear; derivation ratio is
        # N_{l+1}/N_{l+2} with out-of-range indices clamped to the last.
        traj = backprop.grad_variance_trajectory(hp, LINEAR, q_star, widths)
        assert math.isclose(traj[2], 1.0)
        assert math.isclose(traj[1], 1.0 * (400 / 400) * 0.5, rel_tol=1e-14)
        assert math.isclose(traj[0], traj[1] * (200 / 400) * 0.5, rel_tol=1e-14)

    @pytest.mark.parametrize("widths,seed", [([], 1.0), ([10, -5], 1.0),
                                             ([10, 10], 0.0)])
    def test_validation(self, widths, seed):
        hp = mf.HyperParams(0.5, 0.1)
        with pytest.raises(DomainError):
            backprop.grad_variance_trajectory(hp, LINEAR, 0.2, widths,
                                              q_tilde_L=seed)


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

    def test_trajectory_geometric(self):
        hp = mf.HyperParams(0.5, 0.1)
        fp = mf.fixed_point(hp, LINEAR)
        widths = [64] * 7
        traj = backprop.grad_covariance_trajectory(hp, LINEAR, fp.q_star,
                                                   fp.c_star, widths)
        expected = 0.5 ** (len(widths) - 1 - np.arange(len(widths)))
        np.testing.assert_allclose(traj, expected, rtol=1e-10)

    def test_c_star_out_of_range(self):
        hp = mf.HyperParams(0.5, 0.1)
        with pytest.raises(DomainError):
            backprop.grad_covariance_trajectory(hp, LINEAR, 0.2, 1.5, [8, 8])
