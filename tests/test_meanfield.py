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

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
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
ORACLE_Q_STAR_17 = 0.5330756279466412     # fixed point from q0=0.8
ORACLE_CMAP_C06 = 0.6234236389230409      # correlation_map(0.6) at q*
ORACLE_CHI1_17 = 0.9867408090258745
# Order-201 oracles at (2.5, 0.05): chaotic phase.
ORACLE_Q_STAR_25 = 1.0639583774168109
ORACLE_C_STAR_25 = 0.44680423234438266

HIGH = rule(201)


class TestHyperParams:
    @pytest.mark.parametrize("kwargs", [
        dict(sigma_w_sq=0.0),
        dict(sigma_w_sq=-1.0),
        dict(sigma_w_sq=1.0, sigma_b_sq=-0.1),
        dict(sigma_w_sq=1.0, rho=0.0),
        dict(sigma_w_sq=1.0, rho=1.2),
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

    def test_covariance_map_bias_floor(self):
        # With c = 0 and an odd activation the Gaussian moment vanishes,
        # leaving exactly sigma_b_sq.
        hp = mf.HyperParams(1.7, 0.05)
        value = mf.covariance_map(0.0, 0.8, 0.8, hp, TANH)
        assert math.isclose(value, 0.05, abs_tol=1e-15)


class TestFixedPoints:
    def test_q_star_oracle(self):
        hp = mf.HyperParams(1.7, 0.05)
        q_star, iterations = mf.solve_q_star(hp, TANH, quad=HIGH)
        assert math.isclose(q_star, ORACLE_Q_STAR_17, abs_tol=1e-9)
        assert iterations > 0

    def test_q_star_independent_of_start(self):
        hp = mf.HyperParams(1.7, 0.05)
        a, _ = mf.solve_q_star(hp, TANH, q0=0.01)
        b, _ = mf.solve_q_star(hp, TANH, q0=3.0)
        assert math.isclose(a, b, abs_tol=1e-10)

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
        # The variance map's slope at q* tends to 1 here, so plain
        # iteration runs out; q* = sqrt(sigma_b^2 / 2) to leading order
        # since E[tanh^2(sqrt(q) z)] = q - 2 q^2 + O(q^3).
        fp = mf.fixed_point(mf.HyperParams(1.0, 1e-14), TANH)
        assert math.isclose(fp.q_star, math.sqrt(0.5e-14), rel_tol=1e-6)
        assert fp.c_star == 1.0

    def test_dropout_removes_perfect_correlation(self):
        fp_full = mf.fixed_point(mf.HyperParams(1.7, 0.05, rho=1.0), TANH)
        fp_drop = mf.fixed_point(mf.HyperParams(1.7, 0.05, rho=0.9), TANH)
        assert fp_full.c_star == 1.0
        assert fp_drop.c_star < 1.0

    def test_unbounded_activation_rejected(self):
        hp = mf.HyperParams(1.5, 0.05)
        with pytest.raises(NoFixedPointError):
            mf.solve_q_star(hp, LINEAR)


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
        c_star, evaluations = mf._solve_c_star_detail(hp, act, q_star)
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

    def test_record_follows_the_order_in_the_environment(self, monkeypatch):
        hp = mf.HyperParams(2.5, 0.05)
        monkeypatch.setenv("SIGNALPROP_QUAD_ORDER", "21")
        coarse = mf.chi1(hp, TANH, 1.0)
        monkeypatch.setenv("SIGNALPROP_QUAD_ORDER", "61")
        assert mf.chi1(hp, TANH, 1.0) != coarse
        assert mf.chi1(hp, TANH, 1.0) == mf.chi1(hp, TANH, 1.0, rule(61))

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
        solve = mf._q_star_robust

        def counted_solve(*args):
            before = passes["phi"]
            q_star = solve(*args)
            in_q_star["phi"] += passes["phi"] - before
            in_q_star["solves"] += 1
            return q_star

        monkeypatch.setattr(mf, "_q_star_robust", counted_solve)
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
        q_star = mf._q_star_robust(hp, TANH)
        assert abs(mf.chi1(hp, TANH, q_star) - 1.0) < 1e-8

    def test_requires_bounded_activation(self):
        with pytest.raises(ConfigurationError):
            mf.critical_sigma_w(0.05, LINEAR)


class TestPhase:
    @pytest.mark.parametrize("chi,expected", [
        (0.5, "ordered"), (1.0, "critical"), (1.0 + 5e-10, "critical"),
        (1.5, "chaotic"),
    ])
    def test_phase_of(self, chi, expected):
        assert mf.phase_of(chi) == expected


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

    @pytest.mark.parametrize("act,sw2", [(TANH, 1.7), (HARD_TANH, 1.7), (LINEAR, 0.7)])
    @pytest.mark.parametrize("q0_b,rho,c0,order", [
        (0.3, 1.0, 0.6, 61),     # q0_a != q0_b
        (0.8, 0.95, 0.6, 61),
        (0.8, 1.0, -0.4, 61),
        (0.8, 1.0, 1.0, 61),
        (0.3, 1.0, 0.6, 21),
        (0.3, 1.0, 0.6, 201),
    ])
    def test_bit_identical_to_the_public_maps(self, act, sw2, q0_b, rho, c0, order):
        hp, quad = mf.HyperParams(sw2, 0.05, rho), rule(order)
        traj = mf.iterate_trajectory(hp, act, q0_a=0.8, q0_b=q0_b, c0=c0,
                                     layers=300, quad=quad)
        q_aa, q_bb, c_ab = self.reference(hp, act, 0.8, q0_b, c0, 300, quad)
        np.testing.assert_array_equal(traj.q_aa, q_aa)
        np.testing.assert_array_equal(traj.q_bb, q_bb)
        np.testing.assert_array_equal(traj.c_ab, c_ab)
        # the variances stop moving, so the held records are exercised
        assert traj.q_aa[-1] == traj.q_aa[-2] and traj.q_bb[-1] == traj.q_bb[-2]

    @pytest.mark.parametrize("q0_b", [0.8, 0.3])
    def test_records_fetched_only_when_a_variance_moves(self, monkeypatch, q0_b):
        fetched = []
        fetch = mf._spectrum

        def counted_fetch(act, q, quad):
            fetched.append(q)
            return fetch(act, q, quad)

        monkeypatch.setattr(mf, "_spectrum", counted_fetch)
        traj = mf.iterate_trajectory(mf.HyperParams(1.7, 0.05), TANH, q0_b=q0_b,
                                     layers=2000)
        assert len(fetched) <= len(set(traj.q_aa) | set(traj.q_bb)) + 1

    def test_validation(self):
        hp = mf.HyperParams(1.7, 0.05)
        with pytest.raises(DomainError):
            mf.iterate_trajectory(hp, TANH, layers=0)
        with pytest.raises(DomainError):
            mf.iterate_trajectory(hp, TANH, c0=1.5)


@given(q0=st.floats(0.01, 3.0))
@settings(max_examples=15, deadline=None)
def test_q_star_basin_is_global(q0):
    hp = mf.HyperParams(2.0, 0.1)
    q_star, _ = mf.solve_q_star(hp, TANH, q0=q0)
    reference, _ = mf.solve_q_star(hp, TANH, q0=0.8)
    assert math.isclose(q_star, reference, abs_tol=1e-10)
