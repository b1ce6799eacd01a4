"""Forward-propagation mean-field maps, fixed points, and depth scales.

The layer-to-layer statistics of a wide random network are deterministic
maps on the pre-activation variance q and the pre-activation correlation c
of a pair of inputs:

    variance map      q  ->  (sigma_w^2 / rho) E[phi(sqrt(q) z)^2] + sigma_b^2
    covariance map    q_ab -> sigma_w^2 E[phi(u1) phi(u2)] + sigma_b^2

where u1, u2 have variances q_a, q_b and correlation c. By Mehler's
formula E[phi(u1) phi(u2)] = sum_n a_n(q_a) a_n(q_b) c^n with the Hermite
coefficients a_n(q) = E[phi(sqrt(q) z) h_n(z)], one 1D pass of phi per
variance. At q_a = q_b the terms a_n^2 are nonnegative, so the correlation
map is increasing and convex on [0, 1] and c* is its unique stable root.
Every map, slope and depth scale reads one record of phi per (activation,
q, quadrature rule), a :class:`Spectrum`, made from one pass of phi and at
most one of phi' over the nodes. The fixed-point readers revisit q* and
share its record through a small cache. A trajectory fetches a record only
when a variance moves, and holds the record, its coefficient product and
the next variances for as long as the variances stay put.

With dropout keep-probability rho < 1 the variance map carries the
effective weight variance sigma_w^2 / rho, while the covariance map keeps
the bare sigma_w^2 (the two independent masks contribute E[p_a] E[p_b] =
rho^2, which cancels the 1/rho^2 prefactor). That asymmetry is what
removes the c = 1 fixed point for any rho < 1.

Depth scales are the e-folding lengths of exponential convergence toward
the fixed points (q*, c*); they are read off from the linearization of
each map about its fixed point. The variance map's slope takes dE[phi^2]/dq
in Stein form, E[z phi phi'] / sqrt(q), which needs no phi'' at kinks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .activations import Activation
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateVarianceError,
    DomainError,
    NoFixedPointError,
)
from .quadrature import QuadratureRule, hermite_matrix, node_values, rule

#: |factor - 1| below this counts as criticality (depth scale +inf).
CRITICALITY_TOL = 1e-12

#: Displacement tolerance and iteration cap for fixed-point solvers.
FIXED_POINT_TOL = 1e-12
MAX_ITERATIONS = 100_000

#: Evaluation cap of the bracketed root finder, and its relative
#: tolerance floor (4 ulp) on top of each caller's absolute xtol.
_ROOT_MAX_ITERATIONS = 100
_ROOT_RTOL = 8.9e-16

#: q* iterates below this with sigma_b^2 == 0 collapse to the exact
#: degenerate fixed point q* = 0.
_DEGENERATE_Q = 1e-8

DEFAULT_Q0 = 0.8
DEFAULT_C0 = 0.6


@dataclass(frozen=True)
class HyperParams:
    """Ensemble parameters of the random network."""

    sigma_w_sq: float
    sigma_b_sq: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if self.sigma_w_sq <= 0:
            raise DomainError(f"sigma_w_sq must be > 0, got {self.sigma_w_sq}")
        if self.sigma_b_sq < 0:
            raise DomainError(f"sigma_b_sq must be >= 0, got {self.sigma_b_sq}")
        if not 0 < self.rho <= 1:
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")

    @property
    def effective_sigma_w_sq(self) -> float:
        """Weight variance as seen by a single input (dropout rescaling)."""
        return self.sigma_w_sq / self.rho


@dataclass(frozen=True)
class FixedPoint:
    q_star: float
    c_star: float
    iterations_q: int
    iterations_c: int
    degenerate: bool = False


@dataclass(frozen=True)
class DepthScales:
    """Depth scales (in layers) at one hyperparameter point.

    xi values may be +inf (at criticality) or nan (non-exponential
    regime, e.g. an oscillatory linearization factor <= 0).
    """

    chi1: float
    xi_q: float
    xi_c: float
    xi_grad: float


@dataclass(frozen=True)
class Trajectory:
    """Layer-by-layer statistics from jointly iterating the maps."""

    layers: int
    q_aa: np.ndarray
    q_bb: np.ndarray
    c_ab: np.ndarray


class _lazy:
    """``functools.cached_property`` without the lock that Python < 3.12
    takes on each first read; the q* iteration makes a record per step."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.compute(record)
        return value


class Spectrum:
    """phi at one variance q on one quadrature rule.

    The only place in this module that evaluates phi or phi' on the
    rule's nodes. Everything is computed on first use, with at most one
    pass of phi and one of phi': ``phi_sq`` = E[phi(sqrt(q) z)^2];
    ``a`` and ``b``, the Hermite coefficients of phi and phi';
    ``d_phi_sq`` = E[phi'^2]; ``phi_sq_rate`` = dE[phi^2]/dq. A reader
    of phi' alone, such as ``chi1``, pays no pass of phi.
    """

    def __init__(self, act: Activation, q: float, quad: QuadratureRule | None = None):
        self.act, self.q = act, q
        self.quad = rule() if quad is None else quad
        self._root_q = math.sqrt(q)

    @_lazy
    def _phi(self) -> np.ndarray:
        return node_values(lambda z: self.act.phi(self._root_q * z), self.quad)

    @_lazy
    def phi_sq(self) -> float:
        return float(self.quad.weights @ self._phi ** 2)

    @_lazy
    def _d_phi(self) -> np.ndarray:
        return node_values(lambda z: self.act.d_phi(self._root_q * z), self.quad)

    @_lazy
    def a(self) -> np.ndarray:
        return hermite_matrix(self.quad.order) @ self._phi

    @_lazy
    def b(self) -> np.ndarray:
        return hermite_matrix(self.quad.order) @ self._d_phi

    @_lazy
    def d_phi_sq(self) -> float:
        return float(self.quad.weights @ self._d_phi ** 2)

    @_lazy
    def phi_sq_rate(self) -> float:
        """dE[phi^2]/dq = E[z phi phi'] / sqrt(q) (Stein), E[phi'^2] at q = 0."""
        if self.q == 0.0:
            return self.d_phi_sq
        stein = self.quad.nodes * self._phi * self._d_phi
        return float(self.quad.weights @ stein) / self._root_q

    def next_variance(self, hp: HyperParams) -> float:
        """The variance map at q."""
        return hp.effective_sigma_w_sq * self.phi_sq + hp.sigma_b_sq


def _next_covariance(products: np.ndarray, c: float, hp: HyperParams) -> float:
    """The covariance map at correlation c, from the products a_n(q_a) a_n(q_b)."""
    return hp.sigma_w_sq * _power_series(products, c) + hp.sigma_b_sq


#: Room for the record at q* and the records a trajectory fetches near it.
_cached_spectrum = lru_cache(maxsize=16)(Spectrum)


def _spectrum(act: Activation, q: float, quad: QuadratureRule | None) -> Spectrum:
    """The shared record of phi at q, keyed by activation object, q and rule."""
    return _cached_spectrum(act, q, rule() if quad is None else quad)


def _check_activation(act: Activation, hp: HyperParams) -> None:
    if act.bounded:
        return
    if act.name == "linear":
        if hp.effective_sigma_w_sq >= 1.0:
            raise NoFixedPointError(
                "linear activation has no variance fixed point for "
                f"sigma_w_sq/rho = {hp.effective_sigma_w_sq} >= 1"
            )
        return
    raise ConfigurationError(
        f"activation {act.name!r} is unbounded; fixed-point computations "
        "require a bounded activation (or linear with sigma_w_sq/rho < 1)"
    )


def variance_map(q: float, hp: HyperParams, act: Activation,
                 quad: QuadratureRule | None = None) -> float:
    """One step of the single-input variance recursion."""
    if q < 0:
        raise DomainError(f"variance must be nonnegative, got q={q}")
    # Uncached: the q* iteration never revisits an iterate.
    return Spectrum(act, q, quad).next_variance(hp)


@lru_cache(maxsize=None)
def _exponents(length: int) -> np.ndarray:
    """0, 1, ..., length - 1, read-only and shared by every power series."""
    exponents = np.arange(length)
    exponents.setflags(write=False)
    return exponents


def _power_series(coefficients: np.ndarray, c: float) -> float:
    """sum_n coefficients[n] c^n."""
    return float(coefficients @ c ** _exponents(len(coefficients)))


def covariance_map(c: float, q_a: float, q_b: float, hp: HyperParams,
                   act: Activation, quad: QuadratureRule | None = None) -> float:
    """One step of the pair-covariance recursion (unnormalized).

    The Mehler series sigma_w^2 sum_n a_n(q_a) a_n(q_b) c^n + sigma_b^2 up
    to the quadrature order; at c = 1, q_a = q_b it reproduces the variance
    map's second moment to rounding (discrete Parseval).
    """
    if q_a < 0 or q_b < 0:
        raise DomainError(f"variances must be nonnegative, got q_a={q_a}, q_b={q_b}")
    if abs(c) > 1:
        raise DomainError(f"correlation must lie in [-1, 1], got {c}")
    return _next_covariance(_spectrum(act, q_a, quad).a * _spectrum(act, q_b, quad).a, c, hp)


def correlation_map(c: float, q_a: float, q_b: float, hp: HyperParams,
                    act: Activation, quad: QuadratureRule | None = None) -> float:
    """Next-layer correlation, normalized by the input variances.

    Exact when q_a and q_b already sit at their fixed point (the regime in
    which c-fixed points are solved, since the variance relaxes much
    faster than the correlation).
    """
    if q_a * q_b == 0:
        raise DegenerateVarianceError(
            f"correlation undefined for q_a={q_a}, q_b={q_b}"
        )
    return covariance_map(c, q_a, q_b, hp, act, quad) / math.sqrt(q_a * q_b)


def solve_q_star(hp: HyperParams, act: Activation, q0: float = DEFAULT_Q0,
                 quad: QuadratureRule | None = None,
                 tol: float = FIXED_POINT_TOL,
                 max_iterations: int = MAX_ITERATIONS) -> tuple[float, int]:
    """Iterate the variance map to its fixed point.

    Returns (q*, iteration count). Plain iteration is adequate here: the
    variance map converges at a rate bounded away from 1 unless
    sigma_b^2 is tiny and sigma_w^2 phi'(0)^2 near 1, where ``fixed_point``
    falls back to bracketing the root.
    """
    _check_activation(act, hp)
    q = float(q0)
    for iteration in range(1, max_iterations + 1):
        q_next = variance_map(q, hp, act, quad)
        if abs(q_next - q) < tol:
            return q_next, iteration
        q = q_next
    raise ConvergenceError(
        f"variance fixed point did not converge within {max_iterations} "
        f"iterations (last iterate {q})",
        last_iterate=q,
        iterations=max_iterations,
    )


def _bracketed_root(f, a: float, b: float, f_a: float, f_b: float,
                    xtol: float) -> tuple[float, int]:
    """Root of ``f`` between a and b by Brent's method (Brent 1973, ch. 4).

    ``f_a`` and ``f_b`` are the caller's values at the ends and must have
    opposite signs (or one of them be 0). ``f`` is evaluated, and a root
    returned, only strictly inside (a, b) unless an end value is exactly
    0, so an end may carry a limit of ``f`` rather than a value of it.
    Inverse quadratic and secant steps converge superlinearly; a
    bisection safeguard bounds the worst case. Returns (root, number of
    evaluations); the root is within xtol + 8.9e-16 |root| of a sign
    change of ``f``.
    """
    if f_a == 0.0:
        return a, 0
    if f_b == 0.0:
        return b, 0
    # x_cur is the best estimate, x_blk the other end of the current
    # bracket, x_pre the previous estimate; s_cur and s_pre are the last
    # two steps.
    x_pre, x_cur, f_pre, f_cur = a, b, f_a, f_b
    x_blk = f_blk = s_pre = s_cur = 0.0
    for iteration in range(_ROOT_MAX_ITERATIONS):
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + _ROOT_RTOL * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            if x_cur in (a, b):
                # An end value may be a stand-in; the root lies within
                # the final bracket, so answer from its interior.
                x_cur += s_bis
            return x_cur, iteration
        s_try = None
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
        if s_try is not None and 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
    raise ConvergenceError(
        f"bracketed root finder did not converge within "
        f"{_ROOT_MAX_ITERATIONS} evaluations on [{a}, {b}]",
        last_iterate=x_cur,
        iterations=_ROOT_MAX_ITERATIONS,
    )


def _q_star_robust(hp: HyperParams, act: Activation,
                   quad: QuadratureRule | None = None) -> float:
    """Fixed point of the variance map by root bracketing.

    Used inside the critical-line search, where plain iteration slows
    down arbitrarily as sigma_b^2 -> 0. Bounded activations shipped here
    satisfy sup |phi| <= 1, so the fixed point lies below
    sigma_w^2/rho + sigma_b^2.
    """
    _check_activation(act, hp)
    displacement = lambda q: variance_map(q, hp, act, quad) - q
    hi = hp.effective_sigma_w_sq + hp.sigma_b_sq + 1.0
    if hp.sigma_b_sq == 0.0:
        # q = 0 is always a fixed point when phi(0) = 0; a positive one
        # exists only if the map leaves the origin with slope > 1.
        slope0 = hp.effective_sigma_w_sq * float(act.d_phi(np.float64(0.0))) ** 2
        if slope0 <= 1.0:
            return 0.0
        lo = 1e-300
    else:
        lo = 0.0
    f_lo = displacement(lo)
    if f_lo <= 0:
        return 0.0
    return _bracketed_root(displacement, lo, hi, f_lo, displacement(hi), 1e-15)[0]


def chi1(hp: HyperParams, act: Activation, q_star: float,
         quad: QuadratureRule | None = None) -> float:
    """Stability coefficient of the c = 1 fixed point.

    With dropout this carries the effective weight variance
    sigma_w^2/rho, consistent with the variance map, so it remains the
    gradient-stability coefficient.
    """
    if q_star < 0:
        raise DomainError(f"q_star must be >= 0, got {q_star}")
    return hp.effective_sigma_w_sq * _spectrum(act, q_star, quad).d_phi_sq


def _scale_from_factor(factor: float, allow_growth: bool = False) -> float:
    """Map a per-layer linearization factor to a depth scale.

    Returns +inf at criticality and nan outside the exponential regime.
    With ``allow_growth`` a factor > 1 yields a negative scale (exploding
    rather than decaying) instead of nan.
    """
    if abs(factor - 1.0) <= CRITICALITY_TOL:
        return math.inf
    if factor <= 0.0 or (factor > 1.0 and not allow_growth):
        return math.nan
    return -1.0 / math.log(factor)


def xi_q(hp: HyperParams, act: Activation, q_star: float,
         quad: QuadratureRule | None = None) -> float:
    """Depth scale of single-input variance convergence, from the variance
    map's slope (sigma_w^2/rho) dE[phi^2]/dq at q* in Stein form."""
    if q_star < 0:
        raise DomainError(f"q_star must be >= 0, got {q_star}")
    return _scale_from_factor(
        hp.effective_sigma_w_sq * _spectrum(act, q_star, quad).phi_sq_rate)


def correlation_slope(hp: HyperParams, act: Activation, q_star: float,
                      c_star: float, quad: QuadratureRule | None = None) -> float:
    """Linearization of the correlation map about its fixed point.

    By Price's theorem the slope is sigma_w^2 E[phi'(u1) phi'(u2)], the
    Mehler series sigma_w^2 sum_n b_n^2 c^n of phi' (b_n its Hermite
    coefficients at q*). At c = 1 it is sigma_w^2 E[phi'(sqrt(q*) z)^2] to
    rounding (discrete Parseval), the chi1 integral. Carries the bare
    sigma_w^2 even with dropout. For the degenerate q* = 0 point the
    integrand is constant and the slope reduces to sigma_w^2 phi'(0)^2.
    """
    if q_star == 0.0:
        return hp.sigma_w_sq * float(act.d_phi(np.float64(0.0))) ** 2
    b = _spectrum(act, q_star, quad).b
    return hp.sigma_w_sq * _power_series(b * b, c_star)


def xi_c(hp: HyperParams, act: Activation, q_star: float, c_star: float,
         quad: QuadratureRule | None = None) -> float:
    """Depth scale of pair-correlation convergence.

    At c* = 1 the slope equals chi1 to rounding (rho = 1), so the result
    agrees with -1/log(chi1) in the ordered phase.
    """
    if not 0 <= c_star <= 1:
        raise DomainError(f"c_star must lie in [0, 1], got {c_star}")
    return _scale_from_factor(correlation_slope(hp, act, q_star, c_star, quad))


def _solve_c_star_detail(hp: HyperParams, act: Activation, q_star: float,
                         quad: QuadratureRule | None = None,
                         tol: float = 1e-12) -> tuple[float, int]:
    if q_star <= 0:
        raise DomainError(f"c* requires q_star > 0, got {q_star}")

    # F(c) = sum_n weights[n] c^n + sigma_b^2 / q* with weights >= 0, so
    # F(0) >= 0 and F(c) - c is convex: when F(1) < 1 or F'(1) > 1 it has
    # one root in [0, 1), where F' < 1, and [0, 1] always brackets it.
    weights = hp.sigma_w_sq / q_star * _spectrum(act, q_star, quad).a ** 2
    bias = hp.sigma_b_sq / q_star
    displacement = lambda c: _power_series(weights, c) + bias - c

    if hp.rho == 1.0:
        # c = 1 is an exact fixed point without dropout; it is the stable
        # one iff the map's slope there, chi1, does not exceed 1.
        slope_at_one = correlation_slope(hp, act, q_star, 1.0, quad)
        if slope_at_one <= 1.0 + CRITICALITY_TOL:
            return 1.0, 0
        # Chaotic: the stable root sits strictly below 1. Dividing out the
        # root at c = 1 keeps the sign below 1; its limit at c = 1 is
        # 1 - slope_at_one < 0 (up to quadrature error), so the bracket's
        # upper end stays open and the map is never evaluated where
        # rounding noise dominates.
        bracketed = lambda c: displacement(c) / (1.0 - c)
        f_hi = 1.0 - slope_at_one
    else:
        bracketed = displacement
        f_hi = displacement(1.0)
        if f_hi > 0:
            # Positive all the way to c = 1 (only rounding allows it with dropout).
            return 1.0, 0
    return _bracketed_root(bracketed, 0.0, 1.0, displacement(0.0), f_hi, tol)


def solve_c_star(hp: HyperParams, act: Activation, q_star: float,
                 quad: QuadratureRule | None = None) -> float:
    """Stable fixed point of the correlation map at q_a = q_b = q*."""
    c_star, _ = _solve_c_star_detail(hp, act, q_star, quad)
    return c_star


def fixed_point(hp: HyperParams, act: Activation, q0: float = DEFAULT_Q0,
                quad: QuadratureRule | None = None) -> FixedPoint:
    """Solve both fixed points, handling the degenerate q* = 0 case.

    With sigma_b^2 = 0 in the ordered phase the variance collapses to
    zero and the correlation is formally 0/0; the sigma_b^2 -> 0 limit is
    c* = 1, reported with ``degenerate=True``.
    """
    if hp.sigma_b_sq == 0.0:
        # Plain iteration slows to a polynomial crawl as q* -> 0 (the
        # map's slope tends to 1 at the origin); bracket the root instead.
        q_star, iterations_q = _q_star_robust(hp, act, quad), 0
    else:
        try:
            q_star, iterations_q = solve_q_star(hp, act, q0, quad)
        except ConvergenceError as exc:
            # The same crawl with a tiny sigma_b^2 next to the critical line.
            q_star, iterations_q = _q_star_robust(hp, act, quad), exc.iterations
    if hp.sigma_b_sq == 0.0 and q_star < _DEGENERATE_Q:
        return FixedPoint(q_star=0.0, c_star=1.0, iterations_q=iterations_q,
                          iterations_c=0, degenerate=True)
    c_star, iterations_c = _solve_c_star_detail(hp, act, q_star, quad)
    return FixedPoint(q_star=q_star, c_star=c_star, iterations_q=iterations_q,
                      iterations_c=iterations_c)


def depth_scales(hp: HyperParams, act: Activation,
                 quad: QuadratureRule | None = None,
                 fp: FixedPoint | None = None) -> DepthScales:
    """chi1 and all depth scales at one hyperparameter point."""
    if fp is None:
        fp = fixed_point(hp, act, quad=quad)
    chi = chi1(hp, act, fp.q_star, quad)
    return DepthScales(
        chi1=chi,
        xi_q=xi_q(hp, act, fp.q_star, quad),
        xi_c=xi_c(hp, act, fp.q_star, fp.c_star, quad),
        xi_grad=_scale_from_factor(chi, allow_growth=True),
    )


def critical_sigma_w(sigma_b_sq: float, act: Activation,
                     quad: QuadratureRule | None = None,
                     bracket: tuple[float, float] = (1e-3, 10.0),
                     tol: float = 1e-9) -> float:
    """Weight variance on the order-to-chaos boundary at this bias variance.

    Only defined without dropout (dropout has no sharp critical point).
    At sigma_b^2 = 0 the fixed point is q* = 0 and chi1 = sigma_w^2
    phi'(0)^2 exactly, which pins the boundary analytically; iterative
    probing is numerically ill-posed there because q* -> 0 makes the
    variance iteration arbitrarily slow.
    """
    if sigma_b_sq < 0:
        raise DomainError(f"sigma_b_sq must be >= 0, got {sigma_b_sq}")
    if not act.bounded:
        raise ConfigurationError(
            f"critical line requires a bounded activation, got {act.name!r}"
        )
    slope0 = float(act.d_phi(np.float64(0.0))) ** 2
    if sigma_b_sq == 0.0:
        return 1.0 / slope0

    def excess(sigma_w_sq: float) -> float:
        hp = HyperParams(sigma_w_sq=sigma_w_sq, sigma_b_sq=sigma_b_sq, rho=1.0)
        q_star = _q_star_robust(hp, act, quad)
        return chi1(hp, act, q_star, quad) - 1.0

    lo, hi = bracket
    f_lo, f_hi = excess(lo), excess(hi)
    if not (f_lo < 0.0 < f_hi):
        raise NoFixedPointError(
            f"no critical point: chi1 - 1 does not change sign on "
            f"[{lo}, {hi}] (endpoints {f_lo}, {f_hi})"
        )
    return _bracketed_root(excess, lo, hi, f_lo, f_hi, tol)[0]


def phase_of(chi1_value: float, tol: float = 1e-9) -> str:
    """Classify a point by its stability coefficient."""
    if abs(chi1_value - 1.0) <= tol:
        return "critical"
    return "ordered" if chi1_value < 1.0 else "chaotic"


def iterate_trajectory(hp: HyperParams, act: Activation,
                       q0_a: float = DEFAULT_Q0, q0_b: float = DEFAULT_Q0,
                       c0: float = DEFAULT_C0, layers: int = 100,
                       quad: QuadratureRule | None = None) -> Trajectory:
    """Exact joint iteration of the variance and covariance maps.

    Tracks q_aa, q_bb, and q_ab layer by layer; the reported correlation
    is q_ab normalized by the same-layer variances (no fixed-point
    approximation). A record of phi is fetched only when a variance
    moves, and an input whose variance equals the other's shares its
    record. While both variances stay put the loop holds the coefficient
    product, the next variances and their normaliser, so a layer costs
    one power series in c and a clamp.
    """
    if layers < 1:
        raise DomainError(f"layers must be >= 1, got {layers}")
    if abs(c0) > 1:
        raise DomainError(f"|c0| must be <= 1, got {c0}")
    if q0_a < 0 or q0_b < 0:
        raise DomainError(f"variances must be nonnegative, got q_a={q0_a}, q_b={q0_b}")

    q_a, q_b, c = float(q0_a), float(q0_b), float(c0)
    q_aa, q_bb, c_ab = [q_a], [q_b], [c]
    spec_a = spec_b = None
    for _ in range(layers):
        fetch_a = spec_a is None or q_a != spec_a.q
        fetch_b = spec_b is None or q_b != spec_b.q
        if fetch_a or fetch_b:
            if fetch_a:
                spec_a = _spectrum(act, q_a, quad)
            if fetch_b:
                spec_b = spec_a if q_b == q_a else _spectrum(act, q_b, quad)
            products = spec_a.a * spec_b.a
            q_a_next, q_b_next = spec_a.next_variance(hp), spec_b.next_variance(hp)
            norm = math.sqrt(q_a_next * q_b_next)
        c = min(1.0, max(-1.0, _next_covariance(products, c, hp) / norm))
        q_a, q_b = q_a_next, q_b_next
        q_aa.append(q_a)
        q_bb.append(q_b)
        c_ab.append(c)

    return Trajectory(layers=layers, q_aa=np.array(q_aa), q_bb=np.array(q_bb),
                      c_ab=np.array(c_ab))
