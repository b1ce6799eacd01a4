"""Mean-field maps, fixed points, and depth scales.

Frozen oracle values come from two independent routes: order-201
Gauss-Hermite quadrature with plain fixed-point iteration to a 1e-15
displacement, cross-checked against 1e8-sample Monte Carlo estimates of
the underlying Gaussian integrals (the Monte Carlo comparisons live in
test_quadrature).
"""
import dataclasses
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signalprop.activations import Activation, builtin
from signalprop.errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateVarianceError,
    DomainError,
    NoFixedPointError,
    NumericError,
)
from signalprop import meanfield as mf
from signalprop.quadrature import rule

TANH = builtin("tanh")
LINEAR = builtin("linear")
HARD_TANH = builtin("hard_tanh")

# Order-201 oracles at (sigma_w_sq=1.7, sigma_b_sq=0.05), tanh.
ORACLE_VMAP_Q08 = 0.6519480159299463      # variance_map(0.8)
ORACLE_Q_STAR_17 = 0.5330756279466412     # variance fixed point
ORACLE_CMAP_C06 = 0.6234236389230409      # correlation_map(0.6) at q*
ORACLE_CHI1_17 = 0.9867408090258745
# Order-201 oracles at (2.5, 0.05): chaotic phase.
ORACLE_Q_STAR_25 = 1.0639583774168109
ORACLE_C_STAR_25 = 0.44680423234438266

HIGH = rule(201)

#: Unbounded and defined here: E[relu(sqrt(q) z)^2] = q / 2.
RELU = Activation(name="relu", phi=lambda x: np.maximum(x, 0.0),
                  d_phi=lambda x: np.where(np.asarray(x) > 0.0, 1.0, 0.0),
                  dd_phi=None, bounded=False)


class TestHyperParams:
    @pytest.mark.parametrize("kwargs", [
        dict(sigma_w_sq=0.0),
        dict(sigma_w_sq=-1.0),
        dict(sigma_w_sq=1.0, sigma_b_sq=-0.1),
        dict(sigma_w_sq=1.0, rho=0.0),
        dict(sigma_w_sq=1.0, rho=1.2),
        dict(sigma_w_sq=math.inf),
        dict(sigma_w_sq=math.nan),
        dict(sigma_w_sq=1.0, sigma_b_sq=math.inf),
        dict(sigma_w_sq=1.0, sigma_b_sq=math.nan),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            mf.HyperParams(**kwargs)

    def test_effective_variance(self):
        hp = mf.HyperParams(1.5, 0.05, rho=0.5)
        assert hp.effective_sigma_w_sq == 3.0


class TestMaps:
    def test_variance_map_oracle(self):
        hp = mf.HyperParams(1.7, 0.05)
        value = mf.variance_map(0.8, hp, TANH, HIGH)
        assert math.isclose(value, ORACLE_VMAP_Q08, abs_tol=1e-13)

    def test_variance_map_default_order(self):
        hp = mf.HyperParams(1.7, 0.05)
        value = mf.variance_map(0.8, hp, TANH)
        assert math.isclose(value, ORACLE_VMAP_Q08, abs_tol=1e-7)

    def test_correlation_map_oracle(self):
        hp = mf.HyperParams(1.7, 0.05)
        q_star, _ = mf.solve_q_star(hp, TANH, quad=HIGH)
        value = mf.correlation_map(0.6, q_star, q_star, hp, TANH, HIGH)
        assert math.isclose(value, ORACLE_CMAP_C06, abs_tol=1e-10)

    def test_variance_map_rejects_negative_q(self):
        hp = mf.HyperParams(1.7, 0.05)
        with pytest.raises(DomainError):
            mf.variance_map(-0.1, hp, TANH)

    def test_correlation_map_degenerate_variance(self):
        hp = mf.HyperParams(1.7, 0.05)
        with pytest.raises(DegenerateVarianceError):
            mf.correlation_map(0.5, 0.0, 1.0, hp, TANH)

    def test_correlation_map_at_variances_whose_product_overflows(self):
        # 1e200 * 1e200 overflows and 1e-200 * 1e-200 underflows; the norm
        # sqrt(q_a q_b) is 1e200 and 1e-200 all the same
        hp = mf.HyperParams(1.5, 0.1)
        linear = mf.correlation_map(0.5, 1e200, 1e200, hp, LINEAR)
        # sigma_w^2 c, up to the rule's E[z^2] = 1 + 4.4e-16: 0.7500000000000006
        assert math.isclose(linear, 0.75, rel_tol=1e-15)
        for q in (1e200, 1e-200):
            for act in (TANH, LINEAR):
                assert (mf.correlation_map(0.5, q, q, hp, act)
                        == mf.covariance_map(0.5, q, q, hp, act) / q)

    def test_covariance_map_bias_floor(self):
        # With c = 0 and an odd activation the Gaussian moment vanishes,
        # leaving exactly sigma_b_sq.
        hp = mf.HyperParams(1.7, 0.05)
        value = mf.covariance_map(0.0, 0.8, 0.8, hp, TANH)
        assert math.isclose(value, 0.05, abs_tol=1e-15)


@given(act=st.sampled_from([TANH, LINEAR]), log_q_a=st.floats(-300.0, 300.0),
       log_ratio=st.floats(-300.0, 300.0), c=st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_correlation_map_divides_by_the_root_of_each_variance(act, log_q_a, log_ratio, c):
    # q_a, q_b = 10^U(-300, 300) no more than 300 decades apart, so the
    # product q_a q_b leaves the double range on a large share of examples
    log_q_b = min(300.0, max(-300.0, log_q_a + log_ratio))
    q_a, q_b = 10.0 ** log_q_a, 10.0 ** log_q_b
    hp = mf.HyperParams(1.5, 0.1)
    reference = mf.covariance_map(c, q_a, q_b, hp, act) / (math.sqrt(q_a) * math.sqrt(q_b))
    assert abs(mf.correlation_map(c, q_a, q_b, hp, act) - reference) <= 4 * math.ulp(reference)


class TestFixedPoints:
    def test_q_star_oracle(self):
        hp = mf.HyperParams(1.7, 0.05)
        q_star, iterations = mf.solve_q_star(hp, TANH, quad=HIGH)
        assert math.isclose(q_star, ORACLE_Q_STAR_17, abs_tol=1e-9)
        assert iterations > 0

    def test_chi1_oracle(self):
        hp = mf.HyperParams(1.7, 0.05)
        q_star, _ = mf.solve_q_star(hp, TANH, quad=HIGH)
        assert math.isclose(mf.chi1(hp, TANH, q_star, HIGH),
                            ORACLE_CHI1_17, abs_tol=1e-10)

    def test_chaotic_fixed_point_oracle(self):
        hp = mf.HyperParams(2.5, 0.05)
        fp = mf.fixed_point(hp, TANH, quad=HIGH)
        assert math.isclose(fp.q_star, ORACLE_Q_STAR_25, abs_tol=1e-9)
        assert math.isclose(fp.c_star, ORACLE_C_STAR_25, abs_tol=1e-8)
        assert not fp.degenerate

    def test_ordered_c_star_is_one(self):
        hp = mf.HyperParams(1.7, 0.05)
        fp = mf.fixed_point(hp, TANH)
        assert fp.c_star == 1.0

    def test_degenerate_point(self):
        # Ordered phase with zero bias variance: signal dies, q* = 0.
        hp = mf.HyperParams(0.5, 0.0)
        fp = mf.fixed_point(hp, TANH)
        assert fp.q_star == 0.0
        assert fp.c_star == 1.0
        assert fp.degenerate

    def test_tiny_bias_on_the_critical_line(self):
        # The variance map's slope at q* tends to 1 here; q* =
        # sqrt(sigma_b^2 / 2) to leading order since E[tanh^2(sqrt(q) z)]
        # = q - 2 q^2 + O(q^3).
        fp = mf.fixed_point(mf.HyperParams(1.0, 1e-14), TANH)
        assert math.isclose(fp.q_star, math.sqrt(0.5e-14), rel_tol=1e-6)
        assert fp.c_star == 1.0

    def test_dropout_removes_perfect_correlation(self):
        fp_full = mf.fixed_point(mf.HyperParams(1.7, 0.05, rho=1.0), TANH)
        fp_drop = mf.fixed_point(mf.HyperParams(1.7, 0.05, rho=0.9), TANH)
        assert fp_full.c_star == 1.0
        assert fp_drop.c_star < 1.0

    @pytest.mark.parametrize("sw2,sb2,rel_tol", [
        (0.8, 0.5, 1e-12),
        # The root's condition number 1 / (1 - sigma_w^2) = 1e4 magnifies
        # the map's rounding and the 61-node rule's E[z^2] = 1 + 4.4e-16.
        (0.9999, 0.05, 1e-11),
        # roots far below the first solve's absolute tolerance of 1e-15
        (0.5, 1e-20, 1e-12),
        (0.99, 1e-200, 1e-12),
        (0.5, 1e-300, 1e-12),
    ])
    def test_linear_closed_form(self, sw2, sb2, rel_tol):
        # q* = 500 lies far above the bracket's first upper end, 2.05.
        fp = mf.fixed_point(mf.HyperParams(sw2, sb2), LINEAR)
        assert math.isclose(fp.q_star, sb2 / (1.0 - sw2), rel_tol=rel_tol)

    def test_unbounded_activation_rejected(self):
        hp = mf.HyperParams(1.5, 0.05)
        with pytest.raises(NoFixedPointError):
            mf.solve_q_star(hp, LINEAR)

    def test_unbounded_activation_defined_here(self):
        # V(q) - q = sigma_b^2 - (1 - sigma_w^2 / 2) q falls at 1.5 and
        # rises at 2.5, where one doubling of the upper end shows it.
        q_star, _ = mf.solve_q_star(mf.HyperParams(1.5, 0.05), RELU)
        assert math.isclose(q_star, 0.05 / (1.0 - 1.5 / 2.0), rel_tol=1e-12)
        with pytest.raises(NoFixedPointError, match=r"sigma_w_sq/rho=2\.5, sigma_b_sq=0\.05"):
            mf.solve_q_star(mf.HyperParams(2.5, 0.05), RELU)

    def test_bounded_activation_beyond_the_first_upper_end(self):
        # |10 tanh| <= 10: V(q) - q rises over the first doublings from
        # 2.05, and only the bound says that the doubling ends.
        tanh10 = Activation(name="tanh10", phi=lambda x: 10.0 * np.tanh(x),
                            d_phi=lambda x: 10.0 * TANH.d_phi(x), dd_phi=None,
                            bounded=True)
        hp = mf.HyperParams(1.0, 0.05)
        q_star, _ = mf.solve_q_star(hp, tanh10)
        assert q_star > 4.1
        assert abs(mf.variance_map(q_star, hp, tanh10) - q_star) <= 1e-12 * q_star

    def test_tanh_just_above_the_zero_bias_critical_point(self):
        # q* = (sigma_w^2 - 1) / 2 to leading order: a positive root, not
        # the degenerate point. The variance map's slope there is about
        # 1 - (sigma_w^2 - 1), and chi1 is 1 to rounding.
        hp = mf.HyperParams(1.0 + 1e-8, 0.0)
        fp = mf.fixed_point(hp, TANH)
        assert math.isclose(fp.q_star, 5.0e-9, rel_tol=1e-6)
        assert math.isclose(mf.variance_map(fp.q_star, hp, TANH), fp.q_star, rel_tol=1e-12)
        assert not fp.degenerate
        scales = mf.depth_scales(hp, TANH, fp=fp)
        assert 1e7 < scales.xi_q < math.inf
        assert scales.xi_c == math.inf


class TestBracketedRoot:
    @pytest.mark.parametrize("xtol", [1e-15, 1e-12, 1e-9])
    @pytest.mark.parametrize("f,a,b,root", [
        (lambda x: x * x - 2.0, 0.0, 2.0, math.sqrt(2.0)),
        (lambda x: math.exp(x) - 3.0, -1.0, 4.0, math.log(3.0)),
        (lambda x: 0.25 - x ** 3, 0.0, 1.0, 0.25 ** (1.0 / 3.0)),
    ])
    def test_closed_form_roots(self, f, a, b, root, xtol):
        x, evaluations = mf._bracketed_root(f, a, b, f(a), f(b), xtol)
        assert abs(x - root) <= xtol + 8.9e-16 * root
        # Superlinear: bisection would need log2((b - a) / xtol) >= 30.
        assert evaluations <= 15

    @pytest.mark.parametrize("f_a,f_b", [(1.0, 3.0), (-2.0, -0.5), (1.0, math.nan)])
    def test_bracket_without_sign_change_raises(self, f_a, f_b):
        calls = []
        with pytest.raises(NoFixedPointError):
            mf._bracketed_root(calls.append, 0.0, 1.0, f_a, f_b, 1e-12)
        assert calls == []

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(mf, "_ROOT_MAX_ITERATIONS", 3)
        f = lambda x: x * x - 2.0
        with pytest.raises(ConvergenceError) as excinfo:
            mf._bracketed_root(f, 0.0, 2.0, f(0.0), f(2.0), 1e-15)
        assert excinfo.value.iterations == 3
        assert 0.0 < excinfo.value.last_iterate < 2.0

    def test_open_end_neither_evaluated_nor_returned(self):
        # The root lies within xtol of the end b = 1, whose value is a
        # limit supplied by the caller.
        root = 1.0 - 1e-13
        calls = []

        def f(x):
            calls.append(x)
            return root - x

        x, _ = mf._bracketed_root(f, 0.0, 1.0, root, root - 1.0, 1e-12)
        assert all(c < 1.0 for c in calls)
        assert x < 1.0
        assert abs(x - root) <= 1e-12

    def test_chaotic_c_star_next_to_the_open_end(self):
        # README phase-diagram row: c = 1 is itself a root of the
        # displacement, and c* lies just below it.
        sw2 = float(np.linspace(0.5, 3.0, 26)[18])
        sb2 = float(np.linspace(0.01, 0.3, 4)[2])
        hp = mf.HyperParams(sw2, sb2)
        fp = mf.fixed_point(hp, TANH)
        assert math.isclose(fp.c_star, 0.9964031803037632, abs_tol=1e-12)
        assert mf.phase_of(mf.chi1(hp, TANH, fp.q_star)) == "chaotic"
        # Independent oracle (perfbench/oracle.py): 0.9964008131.
        fine = mf.fixed_point(hp, TANH, quad=rule(201))
        assert math.isclose(fine.c_star, 0.9964008131, abs_tol=1e-9)


def counting(act):
    """A copy of ``act`` and a Counter of its passes over node arrays."""
    passes = Counter()

    def counted(name, fn):
        def wrapper(x):
            passes[name] += np.size(x) > 1
            return fn(x)
        return wrapper

    return dataclasses.replace(act, phi=counted("phi", act.phi),
                               d_phi=counted("d_phi", act.d_phi)), passes


class TestCorrelationSolverCost:
    """c* is a root of a power series whose coefficients cost one pass of
    the activation over the quadrature nodes; Brent's steps cost none."""

    @staticmethod
    def solve(hp):
        """(c*, Brent evaluations, activation passes) of one c* solve."""
        q_star = mf.fixed_point(hp, TANH).q_star
        act, passes = counting(TANH)
        c_star, evaluations = mf.solve_c_star(hp, act, q_star)
        return c_star, evaluations, sum(passes.values())

    @pytest.mark.parametrize("sw2,sb2,rho", [
        (1.6, 0.005, 1.0),    # chaotic
        (1.3, 0.05, 0.95),    # dropout
    ])
    def test_at_most_two_activation_passes(self, sw2, sb2, rho):
        c_star, evaluations, passes = self.solve(mf.HyperParams(sw2, sb2, rho))
        assert 0 < c_star < 1
        assert evaluations >= 3
        assert passes <= 2

    def test_dropout_grid_cost(self):
        most_evaluations = most_passes = 0
        for rho in (0.9, 0.99):
            for sw2 in np.linspace(1.0, 3.0, 5):
                _, evaluations, passes = self.solve(mf.HyperParams(sw2, 0.05, rho))
                most_evaluations = max(most_evaluations, evaluations)
                most_passes = max(most_passes, passes)
        assert most_evaluations > 2
        assert most_passes <= 2


@given(act=st.sampled_from([TANH, HARD_TANH]), sw2=st.floats(0.2, 4.0),
       sb2=st.floats(0.0, 0.3),
       rho=st.one_of(st.just(1.0), st.floats(0.8, 1.0)))
# At sigma_w^2 = 1/phi'(0)^2 the root sqrt(sigma_b^2 / 2) = 7.7e-20 lies
# where V(q) - q is rounding noise; the solve still returns a q*.
@example(act=TANH, sw2=1.0, sb2=1.175494351e-38, rho=1.0)
@settings(max_examples=60, deadline=None)
def test_c_star_is_a_correlation_everywhere(act, sw2, sb2, rho):
    # The Mehler series is increasing and convex, so the solver needs no
    # boundary fallback and meets no unstable root.
    hp = mf.HyperParams(sw2, sb2, rho)
    fp = mf.fixed_point(hp, act)
    assert 0.0 <= fp.c_star <= 1.0
    if rho == 1.0 and not fp.degenerate:
        # Phase and c* rest on the same slope: c* = 1 exactly when ordered.
        chi = mf.chi1(hp, act, fp.q_star)
        assert (fp.c_star == 1.0) == (chi <= 1.0 + mf.CRITICALITY_TOL)


@st.composite
def zero_bias_neighbourhood(draw):
    """(activation, sigma_w^2, sigma_b^2) at rho = 1, half of them at
    sigma_b^2 = 0 and many within 1e-5 of sigma_w^2 = 1/phi'(0)^2."""
    act = draw(st.sampled_from([TANH, HARD_TANH, LINEAR]))
    near_one = st.builds(lambda sign, e: 1.0 + sign * 10.0 ** e,
                         st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -5.0))
    sw2 = draw(st.floats(0.1, 0.99) if act is LINEAR
               else st.one_of(near_one, st.floats(0.1, 4.0)))
    sb2 = draw(st.one_of(st.just(0.0), st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)))
    return act, sw2, sb2


@given(zero_bias_neighbourhood())
# q* = 2.4e-9: a positive root, which its row must not report as q* = 0
@example((TANH, 1.0000000048, 0.0))
@settings(max_examples=200, deadline=None)
def test_phase_c_star_and_degeneracy_agree(point):
    act, sw2, sb2 = point
    hp = mf.HyperParams(sw2, sb2)
    fp = mf.fixed_point(hp, act)
    phase = mf.phase_of(mf.chi1(hp, act, fp.q_star))
    if phase == "ordered":
        assert fp.c_star == 1.0
    if phase == "chaotic":
        assert fp.c_star < 1.0
    assert fp.degenerate == (fp.q_star == 0.0)


class TestDepthScales:
    @pytest.mark.parametrize("act,sw2,sb2", [
        (TANH, 1.5, 0.05),
        (HARD_TANH, 0.9, 0.1),
        (HARD_TANH, 1.0, 0.05),
    ])
    def test_ordered_xi_c_matches_xi_grad(self, act, sw2, sb2):
        # At c* = 1 the correlation slope equals chi1, also for an
        # activation whose phi' is a step.
        hp = mf.HyperParams(sw2, sb2)
        fp = mf.fixed_point(hp, act)
        scales = mf.depth_scales(hp, act, fp=fp)
        assert fp.c_star == 1.0
        assert math.isclose(scales.xi_c, scales.xi_grad, rel_tol=1e-9)
        slope = mf.correlation_slope(hp, act, fp.q_star, 1.0)
        assert math.isclose(slope, scales.chi1, rel_tol=1e-14)

    def test_chaotic_signs(self):
        scales = mf.depth_scales(mf.HyperParams(2.5, 0.05), TANH)
        assert scales.chi1 > 1.0
        assert scales.xi_grad < 0.0
        assert scales.xi_q > 0.0
        assert scales.xi_c > 0.0

    def test_xi_q_shorter_than_xi_c_in_ordered_phase(self):
        # The variance always relaxes faster than the correlation for
        # tanh (negative curvature term).
        scales = mf.depth_scales(mf.HyperParams(1.7, 0.05), TANH)
        assert scales.xi_q < scales.xi_c

    def test_scale_from_factor_edges(self):
        assert mf._scale_from_factor(1.0) == math.inf
        assert math.isnan(mf._scale_from_factor(1.2))
        assert mf._scale_from_factor(1.2, allow_growth=True) < 0
        assert math.isnan(mf._scale_from_factor(-0.5))


class TestXiQ:
    """xi_q = -1/log((sigma_w^2/rho) dE[phi^2]/dq) at q*, against oracles
    that share no arithmetic with the Stein form E[z phi phi'] / sqrt(q)."""

    @pytest.mark.parametrize("sw2,sb2,rho", [
        (1.1, 0.1, 1.0), (1.5, 0.005, 1.0), (1.3, 0.05, 0.95),
    ])
    def test_tanh_rate_against_mpmath_derivative(self, sw2, sb2, rho):
        hp = mf.HyperParams(sw2, sb2, rho)
        q_star = mf.fixed_point(hp, TANH).q_star
        assert q_star <= 0.45  # where the default rule is accurate

        def second(q):
            root = mpmath.sqrt(q)
            return mpmath.quad(lambda z: mpmath.tanh(root * z) ** 2 * mpmath.npdf(z),
                               [-mpmath.inf, 0, mpmath.inf])

        with mpmath.workdps(20):
            rate = -mpmath.log(hp.effective_sigma_w_sq * mpmath.diff(second, q_star))
        assert abs(1.0 / mf.xi_q(hp, TANH, q_star) - float(rate)) <= 1e-10

    @pytest.mark.parametrize("sw2,rho", [(0.3, 1.0), (0.5, 0.95), (0.8, 0.9)])
    def test_linear_factor_is_effective_weight_variance(self, sw2, rho):
        hp = mf.HyperParams(sw2, 0.05, rho)
        q_star = mf.fixed_point(hp, LINEAR).q_star
        factor = math.exp(-1.0 / mf.xi_q(hp, LINEAR, q_star))
        assert abs(factor - hp.effective_sigma_w_sq) <= 1e-15

    @pytest.mark.parametrize("sw2,sb2,without_kinks", [(0.9, 0.1, 3.61), (1.2, 0.05, math.nan)])
    def test_hard_tanh_nearer_closed_form(self, sw2, sb2, without_kinks):
        # E[phi'^2] + E[phi phi''] with hard_tanh's phi'' = 0 drops the
        # deltas at the kinks and gives ``without_kinks``. The closed form
        # is dE[phi^2]/dq = erf(a/sqrt(2)) - 2 a pdf(a), a = 1/sqrt(q*).
        hp = mf.HyperParams(sw2, sb2)
        q_star = mf.fixed_point(hp, HARD_TANH).q_star
        a = 1.0 / math.sqrt(q_star)
        pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
        exact = -1.0 / math.log(sw2 * (math.erf(a / math.sqrt(2.0)) - 2.0 * a * pdf))
        xi = mf.xi_q(hp, HARD_TANH, q_star)
        assert math.isfinite(xi)
        assert math.isnan(without_kinks) or abs(xi - exact) < abs(without_kinks - exact)

    def test_hard_tanh_finite_on_grid(self):
        for sw2 in np.linspace(0.5, 3.0, 11):
            for sb2 in (0.05, 0.2):
                scales = mf.depth_scales(mf.HyperParams(sw2, sb2), HARD_TANH)
                assert math.isfinite(scales.xi_q) and scales.xi_q > 0


@st.composite
def series_cases(draw):
    """Coefficient vectors of every parity, with tails below, at and above
    the trim floor, and a correlation in [-1, 1]."""
    length = draw(st.sampled_from([1, 2, 61, 201]))
    parity = draw(st.sampled_from(["mixed", "even", "odd"]))
    values = draw(st.lists(st.floats(-1.0, 1.0), min_size=length, max_size=length))
    ratio = draw(st.floats(0.0, 1.0))
    tail_start = draw(st.integers(0, length))
    tail_scale = draw(st.sampled_from([1.0, 2.0 ** -52, 2.0 ** -53, 2.0 ** -60, 1e-30]))
    coefficients = np.array([
        0.0 if (parity == "even" and n % 2) or (parity == "odd" and not n % 2)
        else value * ratio ** n * (tail_scale if n >= tail_start else 1.0)
        for n, value in enumerate(values)
    ])
    return coefficients, parity, draw(st.floats(-1.0, 1.0))


@given(series_cases())
@settings(max_examples=200, deadline=None)
def test_series_against_an_exact_sum(case):
    coefficients, parity, c = case
    series = mf._series(coefficients)
    exact, x = Fraction(0), Fraction(c)
    for p in reversed(coefficients.tolist()):
        exact = exact * x + Fraction(p)
    magnitude = sum(Fraction(abs(p)) for p in coefficients.tolist())
    unit, subnormal = Fraction(1, 2 ** 53), Fraction(1, 2 ** 1074)
    # Horner's rounding, a small multiple of len * 2^-53 sum |p_n| (and of
    # the subnormal spacing, where rounding is absolute), plus the
    # documented trim bound 2^-52 sum |p_n|
    bound = ((2 * len(coefficients) + 4) * (unit * magnitude + subnormal)
             + 2 * unit * magnitude)
    assert abs(Fraction(series(c)) - exact) <= bound
    if parity == "odd":
        assert series(-c) == -series(c)
    elif parity == "even":
        assert series(-c) == series(c)


@st.composite
def product_batches(draw):
    """Stacked rows of Mehler-series coefficients, as a trajectory trims
    them: zero rows, products of tanh's Hermite coefficients (an odd phi,
    whose even part sits below the floor) and of a mixed phi's on the
    2-, 61- and 370-node rules, and random rows of magnitude 1e-300 to 1
    with tails below, at and above the floor."""
    order = draw(st.sampled_from([2, 3, 61, 370]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "tanh", "mixed", "random"]))
        if kind == "zero":
            rows.append(np.zeros(order))
        elif kind in ("tanh", "mixed") and order != 3:
            act = TANH if kind == "tanh" else bare(lambda x: np.cos(x) + 0.3 * x ** 3)
            q_a, q_b = (draw(st.floats(1e-3, 10.0)) for _ in range(2))
            rows.append(mf.Spectrum(act, q_a, rule(order)).a
                        * mf.Spectrum(act, q_b, rule(order)).a)
        else:
            scale = 10.0 ** draw(st.floats(-300.0, 0.0))
            ratio = draw(st.floats(0.0, 1.0))
            tail_start = draw(st.integers(0, order))
            tail_scale = draw(st.sampled_from([1.0, 2.0 ** -52, 2.0 ** -53, 2.0 ** -60]))
            values = draw(st.lists(st.floats(-1.0, 1.0), min_size=order, max_size=order))
            rows.append(np.array([
                scale * value * ratio ** n * (tail_scale if n >= tail_start else 1.0)
                for n, value in enumerate(values)
            ]))
    return np.array(rows)


#: Even terms, highest power first, 2^-53, 1, and eleven 2^-53: summed in
#: order they total 1 and the floor is 2^-53, which the first term reaches.
#: The exact sum (Python 3.12's ``sum``) or a pairwise one is larger, and
#: its floor would drop that term.
ROUNDING_EDGE = np.array([2.0 ** -53 if n % 2 == 0 else 0.0 for n in range(25)])
ROUNDING_EDGE[22] = 1.0


@given(product_batches())
@settings(max_examples=200, deadline=None)
def test_batch_trim_keeps_the_terms_of_series(products):
    # a trajectory's trim, all rows at once with np.cumsum, and the trim of
    # _series, one row at a time with accumulate, keep the same terms
    evens, odds = mf._trimmed_rows(products)
    assert (evens, odds) == tuple(map(list, zip(*(
        mf._trimmed_parts(row) for row in products.tolist()))))


def test_trim_adds_in_order():
    evens, _ = mf._trimmed_rows(ROUNDING_EDGE[None])
    assert len(evens[0]) == len(mf._trimmed_parts(ROUNDING_EDGE.tolist())[0]) == 13


def bare(phi):
    """An activation with only phi, for the Hermite coefficients."""
    return Activation(name="bare", phi=phi, d_phi=None, dd_phi=None, bounded=False)


class TestSpectrum:
    """One record of phi per (activation object, q, rule) behind every map."""

    @pytest.mark.parametrize("order", [21, 61, 201])
    @pytest.mark.parametrize("act,q", [
        (TANH, 0.8),
        (HARD_TANH, 2.89),
        (bare(lambda x: np.cos(x) + 0.3 * x ** 3), 1.0),
    ])
    def test_discrete_parseval(self, act, q, order):
        spec = mf.Spectrum(act, q, rule(order))
        assert spec.a.shape == (order,)
        assert math.isclose(float(spec.a @ spec.a), spec.phi_sq, rel_tol=1e-14)

    def test_square_of_z(self):
        # z^2 = He_0 + He_2 and h_2 = He_2 / sqrt(2!).
        expected = np.zeros(31)
        expected[0], expected[2] = 1.0, math.sqrt(2.0)
        np.testing.assert_allclose(mf.Spectrum(bare(lambda x: x ** 2), 1.0, rule(31)).a,
                                   expected, rtol=0, atol=1e-13)

    def test_nonfinite_integrand_raises(self):
        # phi is evaluated on first read, so the error comes from the read.
        spec = mf.Spectrum(bare(lambda x: np.full_like(x, np.inf)), 1.0, rule(21))
        with pytest.raises(NumericError):
            spec.phi_sq
        with pytest.raises(NumericError):
            spec.a

    @pytest.mark.parametrize("sw2,sb2,rho", [
        (1.7, 0.05, 1.0), (2.5, 0.05, 1.0), (1.3, 0.05, 0.95),
    ])
    def test_depth_scales_cost_one_pass_of_phi_and_of_phi_prime(self, sw2, sb2, rho):
        act, passes = counting(TANH)
        hp = mf.HyperParams(sw2, sb2, rho)
        fp = mf.fixed_point(hp, act)
        mf.depth_scales(hp, act, fp=fp)
        # one pass of phi per q* iterate, one more at q*
        assert passes["phi"] <= fp.iterations_q + 1
        assert passes["d_phi"] <= 1

    @pytest.mark.parametrize("q0_b", [0.8, 0.3])
    def test_trajectory_passes_once_per_new_variance(self, q0_b):
        act, passes = counting(TANH)
        traj = mf.iterate_trajectory(mf.HyperParams(1.7, 0.05), act, q0_a=0.8,
                                     q0_b=q0_b, layers=300)
        # each input's variance converges bit-exactly well before layer 300
        assert len(set(traj.q_aa)) < 100 and len(set(traj.q_bb)) < 100
        assert passes["phi"] <= len(set(traj.q_aa[:-1]) | set(traj.q_bb[:-1]))
        assert passes["d_phi"] == 0

    @pytest.mark.parametrize("sw2,sb2,rho", [
        (1.5, 0.05, 1.0), (2.5, 0.05, 1.0), (1.3, 0.05, 0.95),
    ])
    def test_readers_of_a_solved_point_make_no_pass_of_phi(self, sw2, sb2, rho):
        # ordered, chaotic and dropout: chi1, xi_q and xi_c take the q*
        # solver's record at q*, and a second solve finds all its records
        act, passes = counting(TANH)
        hp = mf.HyperParams(sw2, sb2, rho)
        fp = mf.fixed_point(hp, act)
        solved = passes["phi"]
        mf.depth_scales(hp, act, fp=fp)
        assert mf.fixed_point(hp, act) == fp
        assert passes["phi"] == solved

    def test_activations_sharing_a_name_do_not_share_a_record(self):
        steeper = dataclasses.replace(TANH, d_phi=lambda x: 2.0 * TANH.d_phi(x))
        hp = mf.HyperParams(1.7, 0.05)
        assert mf.chi1(hp, steeper, 0.5) == 4.0 * mf.chi1(hp, TANH, 0.5)


class TestCriticalLine:
    def test_zero_bias_analytic(self):
        assert mf.critical_sigma_w(0.0, TANH) == 1.0

    def test_no_phi_pass_beyond_its_q_star_solves(self, monkeypatch):
        act, passes = counting(TANH)
        in_q_star = Counter()
        solve = mf.solve_q_star

        def counted_solve(*args):
            before = passes["phi"]
            result = solve(*args)
            in_q_star["phi"] += passes["phi"] - before
            in_q_star["solves"] += 1
            return result

        monkeypatch.setattr(mf, "solve_q_star", counted_solve)
        mf.critical_sigma_w(0.05, act)
        # chi1 at each Brent step reads phi' alone
        assert in_q_star["solves"] >= 3
        assert passes["phi"] == in_q_star["phi"]
        assert passes["d_phi"] >= in_q_star["solves"]

    def test_monotone_in_bias(self):
        values = [mf.critical_sigma_w(sb2, TANH) for sb2 in (0.01, 0.05, 0.1, 0.3)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_chi1_is_one_on_line(self):
        sw2 = mf.critical_sigma_w(0.05, TANH)
        hp = mf.HyperParams(sw2, 0.05)
        q_star, _ = mf.solve_q_star(hp, TANH)
        assert abs(mf.chi1(hp, TANH, q_star) - 1.0) < 1e-8

    def test_requires_bounded_activation(self):
        with pytest.raises(ConfigurationError):
            mf.critical_sigma_w(0.05, LINEAR)

    @pytest.mark.parametrize("sb2", [-0.1, math.inf, math.nan])
    def test_bias_variance_outside_the_domain(self, sb2):
        with pytest.raises(DomainError):
            mf.critical_sigma_w(sb2, TANH)


class TestPhase:
    @pytest.mark.parametrize("chi,expected", [
        (0.5, "ordered"), (1.0, "critical"), (1.0 + 5e-10, "critical"),
        (1.5, "chaotic"),
    ])
    def test_phase_of(self, chi, expected):
        assert mf.phase_of(chi) == expected

    @pytest.mark.parametrize("chi,expected", [
        (0.5, "ordered"), (1.0 - 5e-10, "ordered"), (1.0, "chaotic"),
        (1.0 + 5e-10, "chaotic"),
    ])
    def test_no_critical_phase_with_dropout(self, chi, expected):
        assert mf.phase_of(chi, rho=0.9) == expected


#: The variance at which the 61-node hard_tanh map at (1.7, 0.05) stops moving.
HARD_TANH_Q_FIXED = float(mf.iterate_trajectory(mf.HyperParams(1.7, 0.05), HARD_TANH,
                                                layers=100).q_aa[-1])


@pytest.fixture
def fresh_records():
    """An empty record cache, so that a count does not depend on the
    records that earlier tests left behind."""
    mf._cached_spectrum.cache_clear()


class TestTrajectory:
    def test_converges_to_fixed_point(self):
        hp = mf.HyperParams(1.7, 0.05)
        traj = mf.iterate_trajectory(hp, TANH, layers=400)
        fp = mf.fixed_point(hp, TANH)
        assert math.isclose(traj.q_aa[-1], fp.q_star, abs_tol=1e-10)
        assert math.isclose(traj.c_ab[-1], fp.c_star, abs_tol=1e-2)

    def test_symmetric_inputs_stay_symmetric(self):
        hp = mf.HyperParams(2.5, 0.05)
        traj = mf.iterate_trajectory(hp, TANH, layers=50)
        np.testing.assert_array_equal(traj.q_aa, traj.q_bb)

    def test_correlation_bounded(self):
        hp = mf.HyperParams(2.5, 0.05)
        traj = mf.iterate_trajectory(hp, TANH, c0=1.0, layers=50)
        assert np.all(np.abs(traj.c_ab) <= 1.0)

    @staticmethod
    def reference(hp, act, q0_a, q0_b, c0, layers, quad):
        """The joint iteration through the public maps, layer by layer."""
        q_aa, q_bb, c_ab = [q0_a], [q0_b], [c0]
        for l in range(layers):
            q_ab = mf.covariance_map(c_ab[l], q_aa[l], q_bb[l], hp, act, quad)
            q_aa.append(mf.variance_map(q_aa[l], hp, act, quad))
            q_bb.append(mf.variance_map(q_bb[l], hp, act, quad))
            c_ab.append(min(1.0, max(-1.0, q_ab / math.sqrt(q_aa[-1] * q_bb[-1]))))
        return q_aa, q_bb, c_ab

    @pytest.mark.parametrize("act,sw2,sb2,q0_a,q0_b,rho,c0,order,layers,held", [
        pytest.param(act, sw2, 0.05, 0.8, q0_b, rho, c0, order, 300, True,
                     id=f"{q0_b}-{rho}-{c0}-{order}-act{index}-{sw2}")
        for q0_b, rho, c0, order in [
            (0.3, 1.0, 0.6, 61),     # q0_a != q0_b
            (0.8, 0.95, 0.6, 61),
            (0.8, 1.0, -0.4, 61),
            (0.8, 1.0, 1.0, 61),
            (0.3, 1.0, 0.6, 21),
            (0.3, 1.0, 0.6, 201),
        ]
        for index, (act, sw2) in enumerate([(TANH, 1.7), (HARD_TANH, 1.7), (LINEAR, 0.7)])
    ] + [
        # 0.991 of the critical sigma_w^2 (1.76095): the variances settle by
        # layer 55 and c alone moves, every layer, for the other 4945 or so
        pytest.param(TANH, 1.745, 0.05, 0.8, 0.8, 1.0, 0.6, 61, 5000, True,
                     id="tanh-near-critical"),
        # q0_a is the map's own fixed point: input a's record is held from
        # the first layer while input b's variance moves for 38 layers
        pytest.param(HARD_TANH, 1.7, 0.05, HARD_TANH_Q_FIXED, 0.01, 1.0, -0.4, 61, 300, True,
                     id="hard_tanh-held"),
        # trajectories that end while both variances still move
        pytest.param(TANH, 1.7, 0.05, 0.8, 0.3, 1.0, 0.6, 61, 1, False, id="tanh-one-layer"),
        pytest.param(TANH, 1.7, 0.05, 0.8, 0.3, 1.0, 0.6, 61, 7, False, id="tanh-seven-layers"),
        # ordered with sigma_b^2 = 0: q decays toward 0 by about 1% a layer
        # and moves through three blocks of layers
        pytest.param(TANH, 0.99, 0.0, 0.8, 0.8, 1.0, 0.6, 61, 2 * mf._TRAJECTORY_BLOCK + 100,
                     False, id="tanh-zero-bias-ordered"),
        pytest.param(TANH, 1.7, 0.05, 0.8, 0.3, 1.0, 0.6, 2, 300, True, id="tanh-rule2"),
        pytest.param(LINEAR, 0.7, 0.05, 0.8, 0.3, 0.95, 0.6, 61, 300, True,
                     id="linear-dropout-unequal"),
    ])
    def test_bit_identical_to_the_public_maps(self, act, sw2, sb2, q0_a, q0_b, rho, c0,
                                              order, layers, held):
        hp, quad = mf.HyperParams(sw2, sb2, rho), rule(order)
        traj = mf.iterate_trajectory(hp, act, q0_a=q0_a, q0_b=q0_b, c0=c0,
                                     layers=layers, quad=quad)
        q_aa, q_bb, c_ab = self.reference(hp, act, q0_a, q0_b, c0, layers, quad)
        np.testing.assert_array_equal(traj.q_aa, q_aa)
        np.testing.assert_array_equal(traj.q_bb, q_bb)
        np.testing.assert_array_equal(traj.c_ab, c_ab)
        # whether the variances stop moving, so that the held terms serve
        # the last layers, or still move at the end
        assert (traj.q_aa[-1] == traj.q_aa[-2] and traj.q_bb[-1] == traj.q_bb[-2]) == held

    @pytest.mark.parametrize("q0_b", [0.8, 0.3])
    @pytest.mark.usefixtures("fresh_records")
    def test_records_fetched_only_when_a_variance_moves(self, monkeypatch, q0_b):
        # a trajectory forms its own terms: it fetches no record, so it
        # neither reads nor evicts the solver's records
        fetched = []
        fetch = mf._spectrum

        def counted_fetch(act, q, quad):
            fetched.append(q)
            return fetch(act, q, quad)

        monkeypatch.setattr(mf, "_spectrum", counted_fetch)
        records = mf._cached_spectrum.cache_info()
        mf.iterate_trajectory(mf.HyperParams(1.7, 0.05), TANH, q0_b=q0_b, layers=2000)
        assert fetched == []
        assert mf._cached_spectrum.cache_info() == records

    @pytest.mark.parametrize("q0_b", [0.8, 0.3])
    @pytest.mark.parametrize("sw2,at_q_star", [
        (1.7, 1),   # ordered, c* = 1: b_n^2 for the slopes only
        (2.5, 2),   # chaotic: a_n^2 for the c* solve as well
    ])
    @pytest.mark.usefixtures("fresh_records")
    def test_each_series_is_built_once(self, monkeypatch, sw2, at_q_star, q0_b):
        builds = Counter()
        build = mf._series

        def counted_build(coefficients):
            builds["series"] += 1
            return build(coefficients)

        monkeypatch.setattr(mf, "_series", counted_build)
        hp = mf.HyperParams(sw2, 0.05)
        mf.depth_scales(hp, TANH, fp=mf.fixed_point(hp, TANH))
        assert builds["series"] == at_q_star
        # the solved point's records and series are made first, and the
        # trajectory neither evicts them nor builds a series of its own
        records = mf._cached_spectrum.cache_info()
        mf.iterate_trajectory(hp, TANH, q0_b=q0_b, layers=2000)
        assert mf._cached_spectrum.cache_info() == records
        assert builds["series"] == at_q_star

    @pytest.mark.parametrize("act,q0", [
        # phi non-finite at the outer nodes, unbounded and bounded
        (bare(lambda x: np.where(x > 2.0, np.inf, x)), 0.8),
        (dataclasses.replace(TANH, phi=lambda x: np.where(x > 2.0, np.nan, np.tanh(x))), 0.8),
        # finite at every node, but E[phi^2] overflows
        (LINEAR, 1e307),
    ])
    def test_errors_of_phi_are_those_of_the_variance_map(self, act, q0):
        hp = mf.HyperParams(1.7, 0.05)
        with pytest.raises(NumericError) as from_map:
            mf.variance_map(q0, hp, act)
        with pytest.raises(NumericError) as from_trajectory:
            mf.iterate_trajectory(hp, act, q0_a=q0, q0_b=q0, layers=3)
        assert str(from_trajectory.value) == str(from_map.value)

    def test_huge_variances_keep_their_correlation(self):
        # With sigma_b^2 << sigma_w^2 the layer-1 correlation does not
        # depend on sigma_w^2; at 1e160 the product of the two next
        # variances overflows unless it is scaled.
        huge = mf.iterate_trajectory(mf.HyperParams(1e160, 0.05), TANH, 0.8, 0.8, 0.6,
                                     layers=1)
        unit = mf.iterate_trajectory(mf.HyperParams(1.0, 0.0), TANH, 0.8, 0.8, 0.6,
                                     layers=1)
        assert abs(huge.c_ab[1] - unit.c_ab[1]) <= 1e-15

    def test_validation(self):
        hp = mf.HyperParams(1.7, 0.05)
        with pytest.raises(DomainError):
            mf.iterate_trajectory(hp, TANH, layers=0)
        # nan and inf fail the checks too, each naming its argument
        for name, value in [("c0", 1.5), ("c0", math.nan), ("c0", -math.inf),
                            ("q0_a", math.nan), ("q0_a", math.inf), ("q0_b", -1.0)]:
            with pytest.raises(DomainError, match=f"^{name} must"):
                mf.iterate_trajectory(hp, TANH, **{name: value})


@given(act=st.sampled_from([TANH, HARD_TANH, LINEAR]),
       fraction=st.floats(0.01, 0.9999),
       sb2=st.one_of(st.just(0.0), st.floats(1e-14, 0.5)),
       rho=st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_min=True)))
@settings(max_examples=200, deadline=None)
def test_q_star_is_a_root_at_its_evaluation_count(act, fraction, sb2, rho):
    # sigma_w^2 / rho up to 4 for the bounded activations, below 1 for linear
    slope = fraction if act is LINEAR else 4.0 * fraction
    hp = mf.HyperParams(slope * rho, sb2, rho)
    counted, passes = counting(act)
    fp = mf.fixed_point(hp, counted)
    # one pass of phi per variance-map evaluation; the c* solve reads the
    # record at q* that the q* solve made
    assert passes["phi"] == fp.iterations_q
    if not fp.degenerate:
        residual = abs(mf.variance_map(fp.q_star, hp, act) - fp.q_star)
        assert residual <= 1e-14 * max(1.0, fp.q_star)


@given(act=st.sampled_from([TANH, HARD_TANH]), fraction=st.floats(0.01, 0.9),
       log_sb2=st.floats(math.log(1e-300), math.log(1e-3)),
       rho=st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_min=True)))
@settings(max_examples=200, deadline=None)
def test_small_q_star_is_a_relative_root(act, fraction, log_sb2, rho):
    # sigma_w^2 / rho <= 0.9 and sigma_b^2 log-uniform in [1e-300, 1e-3],
    # so q* <= 10 sigma_b^2, mostly far below the first solve's absolute
    # tolerance of 1e-15.
    hp = mf.HyperParams(fraction * rho, math.exp(log_sb2), rho)
    q_star, _ = mf.solve_q_star(hp, act)
    assert abs(mf.variance_map(q_star, hp, act) - q_star) <= 1e-12 * q_star
