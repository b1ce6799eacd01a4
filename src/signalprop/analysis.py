"""Depth-scale measurement by log-linear fits to residual sequences.

A trajectory that converges exponentially to its fixed point has
residuals r_l ~ a exp(-l / xi). Fitting log(r_l) against the layer index
by ordinary least squares over a window that excludes the initial
transient (residuals above a ceiling) and double-precision noise
(residuals below a floor) recovers xi as -1/slope. Growing sequences
yield negative xi, matching the signed gradient depth scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .meanfield import FixedPoint, Trajectory

DEFAULT_FLOOR = 1e-10
DEFAULT_CEILING = 1e-1

#: |slope| below this is indistinguishable from a constant sequence.
_FLAT_SLOPE = 1e-14


@dataclass(frozen=True)
class ExpFit:
    """Result of an exponential fit to a residual sequence."""

    xi: float
    log_intercept: float
    r_squared: float
    window: tuple[int, int]
    n_points: int
    slope: float

    @property
    def infinite(self) -> bool:
        return math.isinf(self.xi)


def _longest_in_window_run(series: np.ndarray, floor: float, ceiling: float):
    """Longest contiguous index run with floor < s < ceiling, half-open
    [start, stop); the earliest of equally long runs wins, and (0, 0)
    stands for no run.

    Noisy Monte Carlo series can cross the floor non-monotonically; taking
    the longest run protects the fit from re-entrant noise.
    """
    ok = (series > floor) & (series < ceiling) & np.isfinite(series)
    # Run edges alternate start, stop once ok is padded with False.
    edges = np.flatnonzero(np.diff(np.concatenate(([False], ok, [False]))))
    if edges.size == 0:
        return 0, 0
    starts, stops = edges[::2], edges[1::2]
    longest = int(np.argmax(stops - starts))  # the first maximum
    return int(starts[longest]), int(stops[longest])


def fit_exponential(series, floor: float = DEFAULT_FLOOR,
                    ceiling: float = DEFAULT_CEILING) -> ExpFit:
    """OLS fit of log(series_l) against l over the in-window run."""
    series = np.asarray(series, dtype=float)
    start, stop = _longest_in_window_run(series, floor, ceiling)
    n_points = stop - start
    if n_points < 3:
        raise InsufficientDataError(
            f"need >= 3 points strictly inside ({floor}, {ceiling}); "
            f"longest run has {n_points}"
        )
    l = np.arange(start, stop, dtype=float)
    y = np.log(series[start:stop])
    slope, intercept = np.polyfit(l, y, 1)
    predicted = slope * l + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    xi = math.inf if abs(slope) <= _FLAT_SLOPE else -1.0 / slope
    return ExpFit(xi=xi, log_intercept=float(intercept), r_squared=r_squared,
                  window=(start, stop - 1), n_points=n_points, slope=float(slope))


def residuals(traj: Trajectory, fp: FixedPoint) -> tuple[np.ndarray, np.ndarray]:
    """Absolute per-layer deviations of a trajectory from fixed points ``fp``."""
    q_residuals = np.abs(traj.q_aa - fp.q_star)
    c_residuals = np.abs(traj.c_ab - fp.c_star)
    return q_residuals, c_residuals
