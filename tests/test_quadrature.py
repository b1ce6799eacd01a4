"""Gauss-Hermite quadrature against closed forms and Monte Carlo oracles.

Pair expectations E[f(u1) f(u2)] are Mehler series in the Hermite
coefficients; they are tested through ``meanfield.covariance_map`` at
sigma_w^2 = 1, sigma_b^2 = 0, where the map is the bare pair moment. The
coefficients themselves are tested with ``meanfield.Spectrum``.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalprop import meanfield as mf
from signalprop.activations import builtin
from signalprop.errors import DomainError, NumericError
from signalprop.quadrature import MAX_ORDER, QuadratureRule, node_values, rule

# Monte Carlo oracles, 1e8 standard-normal samples each (standard error
# about 3e-5). E[tanh^2(sqrt(0.8) z)] and E[tanh(u1) tanh(u2)] with
# q_a = q_b = 0.8, c = 0.6.
MC_TANH_SQ_Q08 = 0.3540733865930443
MC_TANH_PAIR_Q08_C06 = 0.20413129813535238
MC_TOL = 1.5e-4

TANH = builtin("tanh")
LINEAR = builtin("linear")
HARD_TANH = builtin("hard_tanh")
#: covariance_map with these parameters is E[phi(u1) phi(u2)].
BARE = mf.HyperParams(sigma_w_sq=1.0, sigma_b_sq=0.0)


class TestRule:
    def test_weights_normalized(self):
        quad = rule(61)
        assert math.isclose(float(np.sum(quad.weights)), 1.0, abs_tol=1e-14)

    def test_cached(self):
        assert rule(41) is rule(41)

    @pytest.mark.parametrize("order", [1, 0, -3, 400])
    def test_invalid_order(self, order):
        with pytest.raises(DomainError):
            rule(order)

    def test_largest_order_builds(self):
        # The bound is the largest order whose weights are finite and not
        # all 0.
        quad = rule(MAX_ORDER)
        assert np.isfinite(quad.nodes).all() and np.isfinite(quad.weights).all()
        assert math.isclose(float(np.sum(quad.weights)), 1.0, abs_tol=1e-12)
        with pytest.raises(DomainError, match="too large"):
            rule(MAX_ORDER + 1)

    def test_frozen(self):
        quad = rule(21)
        with pytest.raises(AttributeError):
            quad.order = 5


def expect(f, quad):
    """E[f(z)] for z ~ N(0, 1) on the rule ``quad``."""
    return float(quad.weights @ node_values(f, quad))


class TestExpect1d:
    @pytest.mark.parametrize("moment,expected", [(2, 1.0), (4, 3.0), (6, 15.0)])
    def test_gaussian_moments(self, moment, expected):
        value = expect(lambda z: z ** moment, rule(31))
        assert math.isclose(value, expected, rel_tol=1e-12)

    def test_exponential_mgf(self):
        # E[e^z] = e^{1/2} for standard normal z.
        value = expect(np.exp, rule(61))
        assert math.isclose(value, math.exp(0.5), rel_tol=1e-12)

    def test_tanh_sq_against_monte_carlo(self):
        sq = math.sqrt(0.8)
        value = expect(lambda z: np.tanh(sq * z) ** 2, rule())
        assert abs(value - MC_TANH_SQ_Q08) < MC_TOL

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(NumericError):
            expect(lambda z: np.full_like(z, np.nan), rule(21))


class TestPairExpectation:
    def test_bilinear_moment(self):
        # E[u1 u2] = c sqrt(q_a q_b) by construction of the pair.
        value = mf.covariance_map(0.35, 0.7, 1.3, BARE, LINEAR, rule(31))
        assert math.isclose(value, 0.35 * math.sqrt(0.7 * 1.3), rel_tol=1e-12)

    def test_tanh_pair_against_monte_carlo(self):
        value = mf.covariance_map(0.6, 0.8, 0.8, BARE, TANH)
        assert abs(value - MC_TANH_PAIR_Q08_C06) < MC_TOL

    def test_perfect_correlation_collapses_to_1d(self):
        # At c = 1 the series sums the squared coefficients, which equals
        # the variance map's second moment (discrete Parseval).
        two_d = mf.covariance_map(1.0, 0.8, 0.8, BARE, TANH)
        one_d = mf.variance_map(0.8, BARE, TANH)
        assert math.isclose(two_d, one_d, rel_tol=1e-14)

    @pytest.mark.parametrize("c,q_a,q_b", [
        (0.0, -0.1, 1.0),
        (0.0, 1.0, -0.1),
        (1.5, 1.0, 1.0),
        (-1.5, 1.0, 1.0),
    ])
    def test_invalid_pair(self, c, q_a, q_b):
        with pytest.raises(DomainError):
            mf.covariance_map(c, q_a, q_b, BARE, TANH)


@given(c=st.floats(-0.999, 0.999), q=st.floats(0.05, 4.0))
@settings(max_examples=40, deadline=None)
def test_pair_correlation_preserved(c, q):
    cov = mf.covariance_map(c, q, q, BARE, LINEAR, rule(21))
    assert math.isclose(cov, c * q, rel_tol=1e-10, abs_tol=1e-12)
