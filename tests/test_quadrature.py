"""Gauss-Hermite quadrature against closed forms and Monte Carlo oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalprop.errors import DomainError, NumericError
from signalprop.quadrature import (
    CorrelatedPair,
    QuadratureRule,
    gauss_expect_1d,
    gauss_expect_2d,
    rule,
)

# Monte Carlo oracles, 1e8 standard-normal samples each (standard error
# about 3e-5). E[tanh^2(sqrt(0.8) z)] and E[tanh(u1) tanh(u2)] with
# q_a = q_b = 0.8, c = 0.6.
MC_TANH_SQ_Q08 = 0.3540733865930443
MC_TANH_PAIR_Q08_C06 = 0.20413129813535238
MC_TOL = 1.5e-4


class TestRule:
    def test_weights_normalized(self):
        quad = rule(61)
        assert math.isclose(float(np.sum(quad.weights)), 1.0, abs_tol=1e-14)

    def test_cached(self):
        assert rule(41) is rule(41)

    @pytest.mark.parametrize("order", [1, 0, -3])
    def test_invalid_order(self, order):
        with pytest.raises(DomainError):
            rule(order)

    def test_frozen(self):
        quad = rule(21)
        with pytest.raises(AttributeError):
            quad.order = 5


class TestExpect1d:
    @pytest.mark.parametrize("moment,expected", [(2, 1.0), (4, 3.0), (6, 15.0)])
    def test_gaussian_moments(self, moment, expected):
        value = gauss_expect_1d(lambda z: z ** moment, rule(31))
        assert math.isclose(value, expected, rel_tol=1e-12)

    def test_exponential_mgf(self):
        # E[e^z] = e^{1/2} for standard normal z.
        value = gauss_expect_1d(np.exp, rule(61))
        assert math.isclose(value, math.exp(0.5), rel_tol=1e-12)

    def test_tanh_sq_against_monte_carlo(self):
        sq = math.sqrt(0.8)
        value = gauss_expect_1d(lambda z: np.tanh(sq * z) ** 2)
        assert abs(value - MC_TANH_SQ_Q08) < MC_TOL

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(NumericError):
            gauss_expect_1d(lambda z: np.full_like(z, np.nan), rule(21))


class TestExpect2d:
    def test_bilinear_moment(self):
        # E[u1 u2] = c sqrt(q_a q_b) by construction of the pair.
        pair = CorrelatedPair(q_a=0.7, q_b=1.3, c=0.35)
        value = gauss_expect_2d(lambda u1, u2: u1 * u2, pair, rule(31))
        assert math.isclose(value, 0.35 * math.sqrt(0.7 * 1.3), rel_tol=1e-12)

    def test_tanh_pair_against_monte_carlo(self):
        pair = CorrelatedPair(q_a=0.8, q_b=0.8, c=0.6)
        value = gauss_expect_2d(lambda u1, u2: np.tanh(u1) * np.tanh(u2), pair)
        assert abs(value - MC_TANH_PAIR_Q08_C06) < MC_TOL

    def test_perfect_correlation_collapses_to_1d(self):
        # At c = 1 the two arguments coincide exactly (no sqrt(1 - c^2)
        # cancellation), so the 2d integral equals the 1d second moment.
        pair = CorrelatedPair(q_a=0.8, q_b=0.8, c=1.0)
        two_d = gauss_expect_2d(lambda u1, u2: np.tanh(u1) * np.tanh(u2), pair)
        sq = math.sqrt(0.8)
        one_d = gauss_expect_1d(lambda z: np.tanh(sq * z) ** 2)
        assert math.isclose(two_d, one_d, rel_tol=1e-14)

    @pytest.mark.parametrize("kwargs", [
        dict(q_a=-0.1, q_b=1.0, c=0.0),
        dict(q_a=1.0, q_b=1.0, c=1.5),
        dict(q_a=1.0, q_b=1.0, c=-1.5),
    ])
    def test_invalid_pair(self, kwargs):
        with pytest.raises(DomainError):
            CorrelatedPair(**kwargs)


@given(c=st.floats(-0.999, 0.999), q=st.floats(0.05, 4.0))
@settings(max_examples=40, deadline=None)
def test_pair_correlation_preserved(c, q):
    pair = CorrelatedPair(q_a=q, q_b=q, c=c)
    cov = gauss_expect_2d(lambda u1, u2: u1 * u2, pair, rule(21))
    assert math.isclose(cov, c * q, rel_tol=1e-10, abs_tol=1e-12)
