"""Exponential residual fitting."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signalprop import analysis
from signalprop.activations import builtin
from signalprop.errors import DomainError, InsufficientDataError
from signalprop import meanfield as mf


def synthetic(xi, amplitude=0.5, layers=200):
    l = np.arange(layers)
    return amplitude * np.exp(-l / xi)


class TestFitExponential:
    def test_exact_recovery(self):
        fit = analysis.fit_exponential(synthetic(12.5))
        assert math.isclose(fit.xi, 12.5, rel_tol=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_window_excludes_transient_and_noise_floor(self):
        series = synthetic(5.0)
        series[:3] = 7.0          # above the ceiling
        series[-50:] = 1e-13      # below the floor
        fit = analysis.fit_exponential(series)
        lo, hi = fit.window
        assert series[lo] < analysis.DEFAULT_CEILING
        assert series[hi] > analysis.DEFAULT_FLOOR
        assert math.isclose(fit.xi, 5.0, rel_tol=1e-10)

    def test_growing_series_gives_negative_xi(self):
        l = np.arange(60)
        series = 1e-8 * np.exp(l / 9.0)
        fit = analysis.fit_exponential(series)
        assert math.isclose(fit.xi, -9.0, rel_tol=1e-10)

    def test_flat_series_gives_infinite_xi(self):
        fit = analysis.fit_exponential(np.full(50, 1e-3))
        assert fit.infinite
        assert fit.xi == math.inf

    def test_longest_run_wins(self):
        # Two in-window runs separated by a spike; the longer one is used.
        series = synthetic(4.0, layers=120)
        series[20] = 5.0
        fit = analysis.fit_exponential(series)
        assert fit.window[0] >= 21

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            analysis.fit_exponential(np.array([1e-3, 1e-4, 5.0, 5.0]))

    @pytest.mark.parametrize("floor, ceiling", [
        (1e-2, 1e-2), (1e-1, 1e-2), (0.0, 1e-1), (-1e-10, 1e-1), (math.nan, 1e-1),
    ])
    def test_bad_window(self, floor, ceiling):
        with pytest.raises(DomainError):
            analysis.fit_exponential(synthetic(8.0), floor, ceiling)

    def test_custom_window(self):
        series = synthetic(8.0)
        fit = analysis.fit_exponential(series, floor=1e-6, ceiling=1e-2)
        assert math.isclose(fit.xi, 8.0, rel_tol=1e-10)
        assert fit.n_points < len(series)


class TestResiduals:
    def test_against_trajectory(self):
        hp = mf.HyperParams(1.7, 0.05)
        traj = mf.iterate_trajectory(hp, builtin("tanh"), layers=100)
        q_res, c_res = analysis.residuals(traj, mf.fixed_point(hp, builtin("tanh")))
        assert q_res.shape == traj.q_aa.shape
        assert np.all(q_res >= 0)
        # Residuals shrink toward the fixed point.
        assert q_res[-1] < q_res[0]
        assert c_res[-1] < c_res[0]

    def test_measured_xi_q_matches_theory(self):
        hp = mf.HyperParams(1.7, 0.05)
        act = builtin("tanh")
        traj = mf.iterate_trajectory(hp, act, layers=120)
        q_res, _ = analysis.residuals(traj, mf.fixed_point(hp, act))
        fit = analysis.fit_exponential(q_res, ceiling=1e-2)
        theory = mf.depth_scales(hp, act).xi_q
        assert math.isclose(fit.xi, theory, rel_tol=0.02)


@given(xi=st.floats(0.5, 80.0), amplitude=st.floats(1e-3, 0.9))
@settings(max_examples=30, deadline=None)
def test_recovery_over_scales(xi, amplitude):
    layers = int(min(5000, 30 * xi + 50))
    fit = analysis.fit_exponential(synthetic(xi, amplitude, layers))
    assert math.isclose(fit.xi, xi, rel_tol=1e-8)


def loop_longest_run(series, floor, ceiling):
    """Reference: the longest in-window run found by a Python loop."""
    ok = (series > floor) & (series < ceiling) & np.isfinite(series)
    best = (0, 0)
    start = None
    for i, flag in enumerate(np.append(ok, False)):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = None
    return best


IN, LOW, HIGH = 1e-3, 1e-12, 0.5


@given(values=st.lists(st.sampled_from([IN, 1e-2, LOW, HIGH, 0.0, math.nan, math.inf]),
                       max_size=60))
@example(values=[])                                    # empty series
@example(values=[HIGH, LOW, math.nan])                 # no in-window point
@example(values=[IN, IN, IN, HIGH, IN])                # run at the start
@example(values=[LOW, IN, HIGH, IN, IN, IN])           # run at the end
@example(values=[IN, IN, HIGH, IN, IN, LOW, IN, IN])   # equal runs: earliest wins
@settings(max_examples=200, deadline=None)
def test_longest_run_matches_loop(values):
    series = np.array(values, dtype=float)
    run = analysis._longest_in_window_run(series, analysis.DEFAULT_FLOOR,
                                          analysis.DEFAULT_CEILING)
    assert run == loop_longest_run(series, analysis.DEFAULT_FLOOR,
                                   analysis.DEFAULT_CEILING)
    assert all(type(end) is int for end in run)
