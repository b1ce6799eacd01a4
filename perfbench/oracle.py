"""Independent reference values for the benchmark's output checks.

Nothing here calls ``signalprop``. Gaussian expectations use closed forms
where they exist (``linear`` everywhere, ``hard_tanh`` for the
single-input moments) and otherwise a trapezoid rule on a uniform grid.
For integrands analytic in a strip around the real axis, such as tanh,
the trapezoid rule converges geometrically: with step 0.1 the error is
about exp(-2*pi*d/0.1) for a strip half-width d = pi/(2*sqrt(q)), far
below 1e-15 for every q the workloads reach. ``test_perfbench`` checks
the rule against mpmath.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

_STEP = 0.1
_Z = np.arange(-10.0, 10.0 + _STEP / 2, _STEP)
_W = _STEP * np.exp(-0.5 * _Z * _Z) / math.sqrt(2.0 * math.pi)
_Z1 = _Z[:, None]
_Z2 = _Z[None, :]
_W2 = np.outer(_W, _W)

#: Residual tolerance for analytic outputs, relative to max(1, |value|).
#: The package documents <= 1e-12 per Gaussian expectation; 1e-9 leaves
#: room for the conditioning of fixed points and bisection tolerances.
TOL = 1e-9
#: chi1 on the critical line, where sigma_w^2 is bisected to 1e-9.
CRITICAL_TOL = 1e-7
#: Monte Carlo agreement, as in acceptance criterion 6.
MAX_SE = 5.0


def _tanh_d(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _tanh_dd(x):
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t * t)


class Moments:
    """Gaussian moments of one activation at q_a = q_b = q."""

    def __init__(self, name: str):
        if name not in ("tanh", "linear", "hard_tanh"):
            raise ValueError(f"no oracle for activation {name!r}")
        self.name = name

    def second(self, q: float) -> float:
        """E[phi(sqrt(q) z)^2]."""
        if self.name == "linear":
            return q
        if self.name == "hard_tanh":
            if q == 0.0:
                return 0.0
            a = 1.0 / math.sqrt(q)
            pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
            inside = math.erf(a / math.sqrt(2.0))
            return q * (inside - 2.0 * a * pdf) + math.erfc(a / math.sqrt(2.0))
        return float(_W @ np.tanh(math.sqrt(q) * _Z) ** 2)

    def slope(self, q: float) -> float:
        """E[phi'(sqrt(q) z)^2]; phi'(0) = 1 for every supported activation."""
        if self.name == "linear" or q == 0.0:
            return 1.0
        if self.name == "hard_tanh":
            return math.erf(1.0 / math.sqrt(2.0 * q))
        return float(_W @ _tanh_d(math.sqrt(q) * _Z) ** 2)

    def curvature(self, q: float) -> float:
        """E[phi''(sqrt(q) z) phi(sqrt(q) z)] (0 where phi'' vanishes a.e.)."""
        if self.name != "tanh":
            return 0.0
        u = math.sqrt(q) * _Z
        return float(_W @ (_tanh_dd(u) * np.tanh(u)))

    def _pair(self, q_a: float, q_b: float, c: float):
        s = math.sqrt(max(0.0, 1.0 - c * c))
        u1 = math.sqrt(q_a) * _Z1
        u2 = math.sqrt(q_b) * (c * _Z1 + s * _Z2)
        return u1, u2

    def cross(self, q_a: float, q_b: float, c: float) -> float | None:
        """E[phi(u1) phi(u2)]; None where no reference is implemented."""
        if self.name == "linear":
            return c * math.sqrt(q_a * q_b)
        if self.name == "hard_tanh":
            return None
        u1, u2 = self._pair(q_a, q_b, c)
        return float(np.sum(_W2 * np.tanh(u1) * np.tanh(u2)))

    def cross_slope(self, q: float, c: float) -> float | None:
        """E[phi'(u1) phi'(u2)] at q_a = q_b = q."""
        if self.name == "linear":
            return 1.0
        if self.name == "hard_tanh":
            return None
        u1, u2 = self._pair(q, q, c)
        return float(np.sum(_W2 * _tanh_d(u1) * _tanh_d(u2)))


def close(value: float, reference: float, tol: float = TOL) -> bool:
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def q_star(m: Moments, sw: float, sb: float, rho: float) -> float:
    """Variance fixed point by bracketing (closed form for linear)."""
    eff = sw / rho
    if m.name == "linear":
        return sb / (1.0 - eff)
    if sb == 0.0 and eff * m.slope(0.0) <= 1.0:
        return 0.0
    f = lambda q: eff * m.second(q) + sb - q
    lo = 0.0 if sb > 0.0 else 1e-12
    return brentq(f, lo, eff + sb + 1.0, xtol=1e-15, rtol=8.9e-16)


def chi1(m: Moments, sw: float, rho: float, q: float) -> float:
    return sw / rho * m.slope(q)


def c_star(m: Moments, sw: float, sb: float, rho: float, q: float) -> float | None:
    """Stable correlation fixed point, or None where it cannot be bracketed."""
    if m.name == "linear":
        return (1.0 - sw / rho) / (1.0 - sw)
    if rho == 1.0 and sw * m.slope(q) <= 1.0:
        return 1.0
    if m.cross(q, q, 0.5) is None:
        return None
    f = lambda c: (sw * m.cross(q, q, c) + sb) / q - c
    hi = 1.0 - 1e-7 if rho == 1.0 else 1.0
    if f(0.0) <= 0.0:
        return 0.0 if abs(f(0.0)) <= TOL else None
    if f(hi) >= 0.0:
        return None
    return brentq(f, 0.0, hi, xtol=1e-15, rtol=8.9e-16)


def xi(factor: float) -> float:
    """Depth scale from a per-layer factor, matching the package's convention."""
    if abs(factor - 1.0) <= 1e-12:
        return math.inf
    if factor <= 0.0 or factor > 1.0:
        return math.nan
    return -1.0 / math.log(factor)


def critical_sigma_w(m: Moments, sb: float) -> float:
    """sigma_w^2 where chi1 = 1 at rho = 1 (tanh and hard_tanh)."""
    if sb == 0.0:
        return 1.0
    excess = lambda sw: chi1(m, sw, 1.0, q_star(m, sw, sb, 1.0)) - 1.0
    return brentq(excess, 1e-3, 10.0, xtol=1e-13, rtol=8.9e-16)


def trajectory(m: Moments, sw: float, sb: float, rho: float, q0: float,
               c0: float, layers: int):
    """Exact joint iteration of the variance and covariance maps."""
    q, c = [q0], [c0]
    for _ in range(layers - 1):
        q_ab = sw * m.cross(q[-1], q[-1], c[-1]) + sb
        q.append(sw / rho * m.second(q[-1]) + sb)
        c.append(min(1.0, max(-1.0, q_ab / q[-1])))
    return q, c
