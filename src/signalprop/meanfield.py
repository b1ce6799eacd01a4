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
most one of phi' over the nodes. All records come from one small cache,
``_spectrum``, so the record at q* that the q* solver evaluated is the one
that ``chi1``, ``xi_q``, the c* solver and ``correlation_slope`` read, and
a second solve at the same point makes no pass of phi. phi and phi' are
evaluated on the nodes in one place, ``_node_pass``, which gives the node
values and E[phi^2] or E[phi'^2] to records and trajectories alike.

Every Mehler series, a record's or a trajectory's, is summed by one
evaluator, ``_sum``: Horner's rule in c^2 on Python floats, with the even
and the odd terms kept apart and each trimmed of the trailing terms whose
running absolute sum, added in order from the highest power down, stays
below one rounding unit (2^-53) of sum_n |p_n|, so for |c| <= 1 the trim
moves a sum by less than 2^-52 sum_n |p_n|. ``_series`` trims one
coefficient vector and returns ``_sum`` over its terms; a record builds
its series of a_n^2 and of b_n^2 once, on first read, for the readers
that come back to it: ``covariance_map`` at q_a = q_b, ``solve_c_star``
and ``correlation_slope``. One helper, ``_root_product``, forms the norm
sqrt(q_a q_b) that every correlation is divided by, without overflow.

A trajectory makes no record and builds no ``_series``; it runs in two
passes over blocks of at most ``_TRAJECTORY_BLOCK`` layers. The first
iterates the variances alone, one ``_node_pass`` of phi per new variance,
and forms each layer's norm. The second takes every moving layer's
Hermite coefficients from one stacked product with the Hermite matrix,
trims all their series at once by the same rule (``_trimmed_rows``), and
runs the correlation through them with ``_sum``. Once neither variance moves, the
last layer's terms and norm serve every later layer, so a layer is one
series evaluation in c.

With dropout keep-probability rho < 1 the variance map carries the
effective weight variance sigma_w^2 / rho, while the covariance map keeps
the bare sigma_w^2 (the two independent masks contribute E[p_a] E[p_b] =
rho^2, which cancels the 1/rho^2 prefactor). That asymmetry is what
removes the c = 1 fixed point for any rho < 1.

q* has one solver, ``solve_q_star``: Brent's method on V(q) - q over a
bracket that holds the map's unique fixed point, with no start value and
no fallback, and once more in log q for a root below 1e-3. c* has one
too, ``solve_c_star``, on the Mehler series.

Depth scales are the e-folding lengths of exponential convergence toward
the fixed points (q*, c*); they are read off from the linearization of
each map about its fixed point. The variance map's slope takes dE[phi^2]/dq
in Stein form, E[z phi phi'] / sqrt(q), which needs no phi'' at kinks.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

from .activations import Activation
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateVarianceError,
    DomainError,
    NoFixedPointError,
    NumericError,
)
from .quadrature import QuadratureRule, finite_at_nodes, hermite_matrix, rule

#: |factor - 1| below this counts as criticality (depth scale +inf).
CRITICALITY_TOL = 1e-12

#: |chi1 - 1| up to this is the critical phase (``phase_of``).
_PHASE_TOL = 1e-9

#: Bracket and absolute tolerance of the critical-line solve in sigma_w^2.
_CRITICAL_BRACKET = (1e-3, 10.0)
_CRITICAL_TOL = 1e-9

#: Evaluation cap of the bracketed root finder, and its relative
#: tolerance floor (4 ulp) on top of each caller's absolute xtol.
_ROOT_MAX_ITERATIONS = 100
_ROOT_RTOL = 8.9e-16

#: q* roots below this are solved again in log q: the first solve's
#: absolute tolerance, 1e-15, is not a relative one there.
_SMALL_Q = 1e-3

#: One rounding unit of a double, the trim bound of ``_series``.
_UNIT_ROUNDOFF = 2.0 ** -53

#: Most layers whose node values a trajectory holds at once: it bounds
#: memory where the variances never stop moving (sigma_b^2 = 0, ordered).
_TRAJECTORY_BLOCK = 256

DEFAULT_Q0 = 0.8
DEFAULT_C0 = 0.6


@dataclass(frozen=True)
class HyperParams:
    """Ensemble parameters of the random network."""

    sigma_w_sq: float
    sigma_b_sq: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if not 0 < self.sigma_w_sq < math.inf:
            raise DomainError(f"sigma_w_sq must be finite and > 0, got {self.sigma_w_sq}")
        if not 0 <= self.sigma_b_sq < math.inf:
            raise DomainError(f"sigma_b_sq must be finite and >= 0, got {self.sigma_b_sq}")
        if not 0 < self.rho <= 1:
            raise DomainError(f"rho must lie in (0, 1], got {self.rho}")

    @property
    def effective_sigma_w_sq(self) -> float:
        """Weight variance as seen by a single input (dropout rescaling)."""
        return self.sigma_w_sq / self.rho


@dataclass(frozen=True)
class FixedPoint:
    """The fixed points (q*, c*) and the evaluation counts of their solvers.

    ``degenerate`` is q* == 0 exactly: sigma_b^2 = 0 with a stable origin,
    where the correlation is formally 0/0 and c* is its sigma_b^2 -> 0
    limit, 1.
    """

    q_star: float
    c_star: float
    iterations_q: int
    iterations_c: int

    @property
    def degenerate(self) -> bool:
        return self.q_star == 0.0


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
    takes on each first read; the q* solver makes a record per evaluation."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.compute(record)
        return value


class Spectrum:
    """phi at one variance q on one quadrature rule.

    Its passes of phi and phi' are ``_node_pass``, which trajectories make
    for phi too. Everything is computed on first use, with at most one
    pass of phi and one of phi': ``phi_sq`` = E[phi(sqrt(q) z)^2];
    ``a`` and ``b``, the Hermite coefficients of phi and phi';
    ``d_phi_sq`` = E[phi'^2]; ``phi_sq_rate`` = dE[phi^2]/dq;
    ``a_sq_series`` and ``b_sq_series``, the evaluators (``_series``) of
    sum_n a_n^2 c^n and sum_n b_n^2 c^n, each built once for every later
    read. A reader of phi' alone, such as ``chi1``, pays no pass of phi.
    At q = 0, phi' is the constant phi'(0) and the record holds it exactly,
    on every rule: ``d_phi_sq`` = ``phi_sq_rate`` = phi'(0)^2 and ``b`` =
    phi'(0) e_0. Package code gets its records from ``_spectrum``, which
    resolves the default rule and shares one record per (activation, q,
    rule).
    """

    def __init__(self, act: Activation, q: float, quad: QuadratureRule):
        self.act, self.q, self.quad = act, q, quad
        if q == 0.0:
            slope = float(act.d_phi(np.float64(0.0)))
            self.d_phi_sq = self.phi_sq_rate = slope * slope
            self.b = np.zeros(quad.order)
            self.b[0] = slope

    @_lazy
    def _phi(self) -> tuple[np.ndarray, float]:
        return _node_pass(self.act.phi, self.q, self.quad, self.act.bounded)

    @_lazy
    def phi_sq(self) -> float:
        """E[phi^2]; see ``_checked_phi_sq``."""
        return _checked_phi_sq(self.act, self.q, self._phi[1])

    @_lazy
    def _d_phi(self) -> tuple[np.ndarray, float]:
        return _node_pass(self.act.d_phi, self.q, self.quad, self.act.bounded)

    @_lazy
    def a(self) -> np.ndarray:
        return hermite_matrix(self.quad.order) @ self._phi[0]

    @_lazy
    def b(self) -> np.ndarray:
        return hermite_matrix(self.quad.order) @ self._d_phi[0]

    @_lazy
    def a_sq_series(self):
        return _series(self.a * self.a)

    @_lazy
    def b_sq_series(self):
        return _series(self.b * self.b)

    @_lazy
    def d_phi_sq(self) -> float:
        return self._d_phi[1]

    @_lazy
    def phi_sq_rate(self) -> float:
        """dE[phi^2]/dq = E[z phi phi'] / sqrt(q) (Stein)."""
        stein = self.quad.nodes * self._phi[0] * self._d_phi[0]
        return float(self.quad.weights @ stein) / math.sqrt(self.q)


def _node_pass(f, q: float, quad: QuadratureRule,
               bounded: bool) -> tuple[np.ndarray, float]:
    """f(sqrt(q) z) on the nodes of ``quad``, and E[f^2] on the rule.

    The one evaluation of phi and phi' in this module, for records and
    trajectories alike. The weights are positive, so E[f^2] is finite only
    if every node value is; the per-node check of ``finite_at_nodes``,
    which names the first non-finite node, runs only when it is not. For
    an unbounded activation (``bounded`` false) E[f^2] may still overflow
    from finite node values, without a warning: E[phi^2]'s readers take it
    through ``_checked_phi_sq``.
    """
    values = np.asarray(f(math.sqrt(q) * quad.nodes), dtype=float)
    if bounded:
        second = float(quad.weights @ values ** 2)
    else:
        with np.errstate(over="ignore"):
            second = float(quad.weights @ values ** 2)
    if not math.isfinite(second):
        finite_at_nodes(values, quad)
    return values, second


def _checked_phi_sq(act: Activation, q: float, second: float) -> float:
    """E[phi^2] from ``_node_pass``. An unbounded phi's overflows at q near
    the largest double, which raises NumericError; the check costs a
    bounded phi nothing."""
    if second == math.inf and not act.bounded:
        raise NumericError(f"E[phi^2] overflows at q={q}")
    return second


def _series(coefficients: np.ndarray):
    """The function c -> sum_n coefficients[n] c^n, for |c| <= 1: ``_sum``
    over the even and the odd terms, each trimmed by ``_trimmed_parts``,
    so the trim moves the sum by at most 2^-52 sum_n |coefficients[n]| (to
    rounding) on [-1, 1]. Build once per coefficient vector: the build
    costs several evaluations.
    """
    return partial(_sum, *_trimmed_parts(coefficients.tolist()))


def _sum(even: list[float], odd: list[float], c: float) -> float:
    """The series with these trimmed even and odd terms, each highest power
    first, at c: Horner's rule in c^2 on Python floats, the one summation
    of a Mehler series in this module."""
    square, even_sum, odd_sum = c * c, 0.0, 0.0
    for p in even:
        even_sum = even_sum * square + p
    for p in odd:
        odd_sum = odd_sum * square + p
    return even_sum + c * odd_sum


def _trimmed_parts(values: list[float]) -> tuple[list[float], list[float]]:
    """The even and the odd terms of ``values``, each highest power first,
    less its leading run whose running absolute sum stays below the floor
    2^-53 sum_n |values[n]|.

    The running sums add in order (``accumulate``; ``sum`` is compensated
    from Python 3.12 on), as ``np.cumsum`` does in ``_trimmed_rows``, so
    both keep the same terms on every Python. A part below the floor as a
    whole, such as the even part of an odd phi's a_n^2, keeps no term.
    """
    even, odd = values[0::2], values[1::2]
    even.reverse()
    odd.reverse()
    even_tails = list(accumulate(map(abs, even), initial=0.0))
    odd_tails = list(accumulate(map(abs, odd), initial=0.0))
    floor = _UNIT_ROUNDOFF * (even_tails[-1] + odd_tails[-1])
    # tails[k] sums the first k terms: keep from the one that reaches the floor
    return (even[bisect_left(even_tails, floor, 1) - 1:],
            odd[bisect_left(odd_tails, floor, 1) - 1:])


def _trimmed_rows(products: np.ndarray) -> tuple[list[list[float]], list[list[float]]]:
    """``_trimmed_parts`` of every row of ``products`` (at least 2 columns)
    at once: the even parts of the rows, and their odd parts.

    Both parts sit in one array, highest power first, an odd count of
    columns giving the odd part a leading 0 that leaves its running sums
    as they are and is never kept. The tails rise along a row, so the kept
    terms are a run to the row's end, and one argmax gives every run's
    length; a part whose whole sum stays below the floor keeps no term.
    Only the kept terms become Python floats.
    """
    rows, order = products.shape
    pad = order % 2
    parts = np.zeros((2, rows, (order + 1) // 2))
    parts[0] = products[:, 0::2][:, ::-1]
    parts[1, :, pad:] = products[:, 1::2][:, ::-1]
    tails = np.cumsum(np.abs(parts), axis=2)
    keep = tails >= _UNIT_ROUNDOFF * (tails[0, :, -1:] + tails[1, :, -1:])
    keep[1, :, :pad] = False
    lengths = np.where(keep[..., -1], keep.shape[2] - keep.argmax(axis=2), 0)
    terms, ends = parts[keep].tolist(), np.cumsum(lengths).tolist()
    kept = [terms[start:end] for start, end in zip([0] + ends, ends)]
    return kept[:rows], kept[rows:]


#: Room for one q* solve's records, the root among them; trajectories
#: make none. Over cycles 0-2 of the benchmark's workloads at seed 1, each
#: workload from an empty cache, it hits 1696 and misses 7388 times on
#: sweep, 180 and 403 on trajectory, 39 and 60 on montecarlo.
_cached_spectrum = lru_cache(maxsize=16)(Spectrum)


def _spectrum(act: Activation, q: float, quad: QuadratureRule | None) -> Spectrum:
    """The shared record of phi at q, keyed by activation object, q and rule."""
    return _cached_spectrum(act, q, rule() if quad is None else quad)


def variance_map(q: float, hp: HyperParams, act: Activation,
                 quad: QuadratureRule | None = None) -> float:
    """One step of the single-input variance recursion."""
    if q < 0:
        raise DomainError(f"variance must be nonnegative, got q={q}")
    return hp.effective_sigma_w_sq * _spectrum(act, q, quad).phi_sq + hp.sigma_b_sq


def covariance_map(c: float, q_a: float, q_b: float, hp: HyperParams,
                   act: Activation, quad: QuadratureRule | None = None) -> float:
    """One step of the pair-covariance recursion (unnormalized).

    The Mehler series sigma_w^2 sum_n a_n(q_a) a_n(q_b) c^n + sigma_b^2 up
    to the quadrature order. Equal variances share one record, and its
    own series of a_n^2 is built once for every reader; other pairs get a
    series of their own. At c = 1, q_a = q_b it reproduces the variance
    map's second moment to rounding (discrete Parseval).
    """
    if q_a < 0 or q_b < 0:
        raise DomainError(f"variances must be nonnegative, got q_a={q_a}, q_b={q_b}")
    if abs(c) > 1:
        raise DomainError(f"correlation must lie in [-1, 1], got {c}")
    spec_a = _spectrum(act, q_a, quad)
    if q_b == q_a:
        series = spec_a.a_sq_series
    else:
        series = _series(spec_a.a * _spectrum(act, q_b, quad).a)
    return hp.sigma_w_sq * series(c) + hp.sigma_b_sq


def _root_product(q_a: float, q_b: float) -> float:
    """sqrt(q_a q_b), the norm of a covariance, for q_a, q_b >= 0.

    Formed from the variances scaled by the power of two at the bottom of
    the larger one's binade, so it neither overflows nor underflows where
    only the product q_a * q_b does. The scaling is exact and the root
    correctly rounded: wherever q_a * q_b is a normal double and the
    smaller variance is at least 2^-1021 times the larger, the result is
    bit for bit sqrt(q_a * q_b). A scaled product of 0 (a zero variance,
    or variances some 1e323 apart) raises DegenerateVarianceError.
    """
    scale = math.ldexp(0.5, math.frexp(max(q_a, q_b))[1])
    root = math.sqrt((q_a / scale) * (q_b / scale)) * scale
    if root == 0.0:
        raise DegenerateVarianceError(f"correlation undefined for q_a={q_a}, q_b={q_b}")
    return root


def correlation_map(c: float, q_a: float, q_b: float, hp: HyperParams,
                    act: Activation, quad: QuadratureRule | None = None) -> float:
    """Next-layer correlation: the covariance map over sqrt(q_a q_b).

    Exact when q_a and q_b already sit at their fixed point (the regime in
    which c-fixed points are solved, since the variance relaxes much
    faster than the correlation). The norm comes from ``_root_product``,
    so variances whose product overflows or underflows (1e200, 1e-200)
    still give the map's value; a zero variance raises
    DegenerateVarianceError.
    """
    return covariance_map(c, q_a, q_b, hp, act, quad) / _root_product(q_a, q_b)


def _bracketed_root(f, a: float, b: float, f_a: float, f_b: float,
                    xtol: float) -> tuple[float, int]:
    """Root of ``f`` between a and b by Brent's method (Brent 1973, ch. 4).

    ``f_a`` and ``f_b`` are the caller's values at the ends and must have
    opposite signs (or one of them be 0); otherwise the bracket holds no
    root and NoFixedPointError is raised. ``f`` is evaluated, and a root
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
    if not (f_a < 0.0 < f_b or f_b < 0.0 < f_a):
        raise NoFixedPointError(
            f"no sign change on [{a}, {b}] (end values {f_a}, {f_b})"
        )
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
                # 0 where f repeats a value (a flat, rounding-limited
                # stretch): no interpolation, bisect.
                denominator = d_blk * d_pre * (f_blk - f_pre)
                if denominator != 0.0:
                    s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / denominator
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


def solve_q_star(hp: HyperParams, act: Activation,
                 quad: QuadratureRule | None = None) -> tuple[float, int]:
    """Fixed point of the variance map V: the root of V(q) - q by Brent's method.

    The only q* solver, with no start value and no fallback; whether a
    fixed point exists is read off V itself. The bracket's lower end is
    q = 0, where V(0) >= sigma_b^2. With sigma_b^2 = 0 and a stable
    origin, (sigma_w^2/rho) phi'(0)^2 <= 1 on the record at q = 0, q* is
    exactly 0.0, the only input that returns it. Otherwise the lower end
    is 1e-300, which the map leaves with slope > 1. The upper end doubles from sigma_w^2/rho +
    sigma_b^2 + 1 until V(hi) < hi. A bounded phi (any bound) always gets
    there. For an unbounded one the end doubles only while V(q) - q keeps
    falling; the first doubling that does not lower it raises
    NoFixedPointError. That is exact when V - q is convex, as for maps
    that grow at least linearly in q (linear, ReLU): linear at
    sigma_w^2/rho >= 1 stops after one doubling. An end that overflows to
    inf raises NumericError.

    The solve's tolerance is 1e-15 in q, so a root below ``_SMALL_Q`` is
    solved again in log q to 1e-15, between max(lo, sigma_b^2) and the
    first root + 2e-15; larger roots keep every bit of the first solve.
    Returns (q*, number of distinct q at which V was evaluated, both ends
    included): each is one pass of phi.
    """
    values = {}

    def displacement(q: float) -> float:
        if q not in values:
            if q == math.inf:
                raise NumericError(
                    f"q* bracket overflows at sigma_w_sq/rho={hp.effective_sigma_w_sq}, "
                    f"sigma_b_sq={hp.sigma_b_sq}")
            values[q] = variance_map(q, hp, act, quad) - q
        return values[q]

    lo = 0.0
    if hp.sigma_b_sq == 0.0:
        # q = 0 is always a fixed point when phi(0) = 0; a positive one
        # exists only if the map leaves the origin with slope > 1.
        if hp.effective_sigma_w_sq * _spectrum(act, 0.0, quad).d_phi_sq <= 1.0:
            return 0.0, 0
        lo = 1e-300
    f_lo = displacement(lo)
    hi = hp.effective_sigma_w_sq + hp.sigma_b_sq + 1.0
    f_hi = displacement(hi)
    while f_hi > 0.0:
        f_last, hi = f_hi, 2.0 * hi
        f_hi = displacement(hi)
        if not act.bounded and f_hi >= f_last:
            raise NoFixedPointError(
                f"no variance fixed point at sigma_w_sq/rho={hp.effective_sigma_w_sq}, "
                f"sigma_b_sq={hp.sigma_b_sq}: V(q) - q stops falling at q={hi}")
    q_star, _ = _bracketed_root(displacement, lo, hi, f_lo, f_hi, 1e-15)
    if q_star < _SMALL_Q:
        # Every evaluation is at exp(t), so the root's record is one of them.
        log_displacement = lambda t: displacement(math.exp(t))
        t_lo, t_hi = math.log(max(lo, hp.sigma_b_sq)), math.log(q_star + 2e-15)
        t_star, _ = _bracketed_root(log_displacement, t_lo, t_hi, log_displacement(t_lo),
                                    log_displacement(t_hi), 1e-15)
        q_star = math.exp(t_star)
    return q_star, len(values)


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
    sigma_w^2 even with dropout. At the degenerate q* = 0 the record's
    b = phi'(0) e_0 makes the slope sigma_w^2 phi'(0)^2 exactly. It is
    also the per-layer factor of the gradient covariance,
    ``backprop.grad_covariance_factor``.
    """
    return hp.sigma_w_sq * _spectrum(act, q_star, quad).b_sq_series(c_star)


def xi_c(hp: HyperParams, act: Activation, q_star: float, c_star: float,
         quad: QuadratureRule | None = None) -> float:
    """Depth scale of pair-correlation convergence.

    At c* = 1 the slope equals chi1 to rounding (rho = 1), so the result
    agrees with -1/log(chi1) in the ordered phase.
    """
    if not 0 <= c_star <= 1:
        raise DomainError(f"c_star must lie in [0, 1], got {c_star}")
    return _scale_from_factor(correlation_slope(hp, act, q_star, c_star, quad))


def solve_c_star(hp: HyperParams, act: Activation, q_star: float,
                 quad: QuadratureRule | None = None) -> tuple[float, int]:
    """Stable fixed point of the correlation map at q_a = q_b = q*.

    Returns (c*, number of correlation-map evaluations by Brent's method).
    """
    if q_star <= 0:
        raise DomainError(f"c* requires q_star > 0, got {q_star}")

    # F(c) = scale sum_n a_n^2 c^n + sigma_b^2 / q* with scale > 0, so
    # F(0) >= 0 and F(c) - c is convex: when F(1) < 1 or F'(1) > 1 it has
    # one root in [0, 1), where F' < 1, and [0, 1] always brackets it.
    record = _spectrum(act, q_star, quad)
    scale, bias = hp.sigma_w_sq / q_star, hp.sigma_b_sq / q_star
    displacement = lambda c: scale * record.a_sq_series(c) + bias - c

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
    return _bracketed_root(bracketed, 0.0, 1.0, displacement(0.0), f_hi, 1e-12)


def fixed_point(hp: HyperParams, act: Activation,
                quad: QuadratureRule | None = None) -> FixedPoint:
    """Solve both fixed points, handling the degenerate q* = 0 case.

    q* comes from ``solve_q_star``, the one bracketed solver, and c* from
    ``solve_c_star``; ``iterations_q`` and ``iterations_c`` are their
    evaluation counts. Where q* is exactly 0 (sigma_b^2 = 0 with a stable
    origin) the variance collapses and the correlation is formally 0/0;
    the sigma_b^2 -> 0 limit c* = 1 is reported, and ``fp.degenerate``
    holds. Any positive q*, however small, gets its c* solve.
    """
    q_star, iterations_q = solve_q_star(hp, act, quad)
    if q_star == 0.0:
        return FixedPoint(q_star=0.0, c_star=1.0, iterations_q=iterations_q,
                          iterations_c=0)
    c_star, iterations_c = solve_c_star(hp, act, q_star, quad)
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
                     quad: QuadratureRule | None = None) -> float:
    """Weight variance on the order-to-chaos boundary at this bias variance.

    Only defined without dropout (dropout has no sharp critical point).
    At sigma_b^2 = 0 the fixed point is q* = 0 and chi1 = sigma_w^2
    phi'(0)^2 exactly, from the record at q = 0, which pins the boundary
    analytically. Elsewhere Brent's method finds it in
    ``_CRITICAL_BRACKET`` to ``_CRITICAL_TOL``.
    """
    if not 0 <= sigma_b_sq < math.inf:
        raise DomainError(f"sigma_b_sq must be finite and >= 0, got {sigma_b_sq}")
    if not act.bounded:
        raise ConfigurationError(
            f"critical line requires a bounded activation, got {act.name!r}"
        )
    if sigma_b_sq == 0.0:
        return 1.0 / _spectrum(act, 0.0, quad).d_phi_sq

    def excess(sigma_w_sq: float) -> float:
        hp = HyperParams(sigma_w_sq=sigma_w_sq, sigma_b_sq=sigma_b_sq, rho=1.0)
        q_star, _ = solve_q_star(hp, act, quad)
        return chi1(hp, act, q_star, quad) - 1.0

    lo, hi = _CRITICAL_BRACKET
    f_lo, f_hi = excess(lo), excess(hi)
    if not (f_lo < 0.0 < f_hi):
        raise NoFixedPointError(
            f"no critical point: chi1 - 1 does not change sign on "
            f"[{lo}, {hi}] (endpoints {f_lo}, {f_hi})"
        )
    return _bracketed_root(excess, lo, hi, f_lo, f_hi, _CRITICAL_TOL)[0]


def phase_of(chi1_value: float, rho: float = 1.0) -> str:
    """Classify a point by its stability coefficient and dropout rate.

    A point is critical when chi1 is within ``_PHASE_TOL`` of 1 and there
    is no dropout: with rho < 1 there is no critical line, only order or
    chaos.
    """
    if rho == 1.0 and abs(chi1_value - 1.0) <= _PHASE_TOL:
        return "critical"
    return "ordered" if chi1_value < 1.0 else "chaotic"


def iterate_trajectory(hp: HyperParams, act: Activation,
                       q0_a: float = DEFAULT_Q0, q0_b: float = DEFAULT_Q0,
                       c0: float = DEFAULT_C0, layers: int = 100,
                       quad: QuadratureRule | None = None) -> Trajectory:
    """Exact joint iteration of the variance and covariance maps.

    Tracks q_aa, q_bb, and q_ab layer by layer; the reported correlation
    is q_ab normalized by the same-layer variances (no fixed-point
    approximation), clamped to [-1, 1]. The numbers are those of the
    public maps, bit for bit, from two passes over each block of at most
    ``_TRAJECTORY_BLOCK`` layers whose variances move. Pass 1 runs the
    variance recursion alone: one ``_node_pass`` of phi per new variance
    (equal variances share one) and the norm sqrt(q_a q_b) of the next
    variances (``_root_product``, which does not overflow at huge
    sigma_w^2). Pass 2 forms every layer's Hermite coefficients a_n(q_a),
    a_n(q_b) in one stacked product with the Hermite matrix, row by row
    the same numbers as a record's; the products a_n(q_a) a_n(q_b),
    trimmed by ``_trimmed_rows``, then carry the correlation through the
    block by ``_sum``. Once both next variances equal the current ones bit
    for bit they stay put, and the last layer's terms and norm serve every
    later layer: one series evaluation and a clamp. No record is fetched
    and no ``_series`` built, so the cache keeps the q* solver's records.
    A layer whose next variances have a scaled product of 0 raises
    DegenerateVarianceError, before the correlation reaches it.
    """
    if layers < 1:
        raise DomainError(f"layers must be >= 1, got {layers}")
    if not abs(c0) <= 1:
        raise DomainError(f"c0 must lie in [-1, 1], got {c0}")
    for name, q0 in (("q0_a", q0_a), ("q0_b", q0_b)):
        if not 0 <= q0 < math.inf:
            raise DomainError(f"{name} must be finite and >= 0, got {q0}")

    quad = rule() if quad is None else quad
    hermite = hermite_matrix(quad.order)[None]
    gain, weight, bias = hp.effective_sigma_w_sq, hp.sigma_w_sq, hp.sigma_b_sq
    q_a, q_b, c = float(q0_a), float(q0_b), float(c0)
    q_aa, q_bb = np.empty(layers + 1), np.empty(layers + 1)
    q_aa[0], q_bb[0], c_ab = q_a, q_b, [c]
    # q -> (node values of phi, next variance), kept across blocks for
    # the current variances only
    passes = {}
    moving, done = True, 0
    while done < layers:
        # Pass 1: the variances and norms of up to one block of layers.
        passes = {q: passes[q] for q in (q_a, q_b) if q in passes}
        start, phis_a, phis_b, norms = done, [], [], []
        while moving and done < layers and done - start < _TRAJECTORY_BLOCK:
            for q in (q_a, q_b):
                if q not in passes:
                    values, second = _node_pass(act.phi, q, quad, act.bounded)
                    passes[q] = values, gain * _checked_phi_sq(act, q, second) + bias
            (phi_a, q_a_next), (phi_b, q_b_next) = passes[q_a], passes[q_b]
            phis_a.append(phi_a)
            phis_b.append(phi_b)
            norms.append(_root_product(q_a_next, q_b_next))
            moving = q_a_next != q_a or q_b_next != q_b
            q_a, q_b = q_a_next, q_b_next
            q_aa[done + 1], q_bb[done + 1] = q_a, q_b
            done += 1
        # Pass 2: every layer's coefficients and trimmed series at once.
        coefficients_a = np.matmul(hermite, np.array(phis_a)[..., None])[..., 0]
        coefficients_b = (coefficients_a if np.array_equal(q_aa[start:done], q_bb[start:done])
                          else np.matmul(hermite, np.array(phis_b)[..., None])[..., 0])
        evens, odds = _trimmed_rows(coefficients_a * coefficients_b)
        repeats = [1] * len(norms)
        if not moving:
            # the variances hold: the last row serves every later layer
            repeats[-1] += layers - done
            q_aa[done + 1:], q_bb[done + 1:] = q_a, q_b
            done = layers
        for even, odd, norm, count in zip(evens, odds, norms, repeats):
            for _ in range(count):
                c = (weight * _sum(even, odd, c) + bias) / norm
                c = 1.0 if c > 1.0 else -1.0 if c < -1.0 else c
                c_ab.append(c)
    return Trajectory(layers=layers, q_aa=q_aa, q_bb=q_bb, c_ab=np.array(c_ab))
