"""Gaussian expectations via Gauss-Hermite quadrature.

Every integral in this package is over one standard Gaussian z ~ N(0, 1):
E[f(z)], or the coefficients a_n = E[f(z) h_n(z)] of f in the normalised
Hermite polynomials h_n = He_n / sqrt(n!), which give any expectation over
a correlated pair by Mehler's formula

    E[f(z1) g(c z1 + sqrt(1 - c^2) z2)] = sum_n a_n(f) a_n(g) c^n.

One fixed-order Gauss-Hermite rule, changed to the standard Gaussian
measure, evaluates both with one pass of f over its nodes. Rules and their
Hermite matrices are cached per order; sweeps evaluate millions of these.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError, NumericError

#: Default number of nodes and of Hermite coefficients. Against mpmath, 61
#: nodes miss E[tanh^2] by 2e-13 at q = 0.45 but by 6e-8 at q = 1.3, and
#: miss hard_tanh expectations by up to 1e-3 because of its kinks. Exact
#: expectations are ROADMAP item 3.
DEFAULT_ORDER = 61

#: Smallest accepted order. One node evaluates every expectation at z = 0
#: alone, where the correlation map is flat and chi1 is sigma_w^2 phi'(0)^2.
MIN_ORDER = 2

#: Largest accepted order. From order 371 on, numpy's Gauss-Hermite weights
#: are all 0 (371) or nan (numpy 2.4). It is checked before the rule is
#: built, since building one takes time and memory growing as order^2.
MAX_ORDER = 370


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights for expectations under the standard Gaussian.

    Weights are normalized so that the constant function integrates to 1:
    sum(weights) == 1, sum(weights * nodes) == 0, sum(weights * nodes**2) == 1
    up to rounding. Rules compare and hash by identity (``rule`` caches one
    per order), so a rule can key a cache.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def rule(order: int = DEFAULT_ORDER) -> QuadratureRule:
    """Return the (cached) Gauss-Hermite rule of the given order.

    Orders outside ``MIN_ORDER`` .. ``MAX_ORDER`` are rejected.
    """
    if order < MIN_ORDER:
        raise DomainError(f"quadrature order must be >= {MIN_ORDER}, got {order}")
    if order > MAX_ORDER:
        raise _too_large(order)
    return _rule(order)


def _too_large(order: int) -> DomainError:
    return DomainError(f"quadrature order {order} is too large: its "
                       "Gauss-Hermite nodes or weights are not finite")


@lru_cache(maxsize=None)
def _rule(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of ``order`` for the standard Gaussian measure.

    The physicists' rule integrates exp(-x^2) g(x); substituting
    z = sqrt(2) x and dividing the weights by sqrt(pi) turns it into the
    standard Gaussian measure. A rule whose weights do not sum to 1 (from
    a numpy whose weights fail below ``MAX_ORDER``) is rejected.
    """
    with np.errstate(all="ignore"):
        x, w = hermgauss(order)
    if not (np.isfinite(x).all() and math.isclose(w.sum(), math.sqrt(math.pi))):
        raise _too_large(order)
    return QuadratureRule(
        order=order,
        nodes=np.sqrt(2.0) * x,
        weights=w / math.sqrt(math.pi),
    )


@lru_cache(maxsize=None)
def hermite_matrix(order: int) -> np.ndarray:
    """``w_i h_n(z_i)`` for n < order over the nodes z_i and weights w_i.

    Times the values of f at the nodes it gives a_n = E[f(z) h_n(z)]. On
    an M-node rule h_0 ... h_{M-1} are discretely orthonormal, so
    sum(a**2) equals E[f(z)^2] on the rule to rounding (Parseval). The
    recurrence h_{n+1} = (z h_n - sqrt(n) h_{n-1}) / sqrt(n + 1) runs on
    sqrt(w_i) h_n(z_i), an orthogonal matrix, so nothing overflows.
    """
    r = _rule(order)
    root_w = np.sqrt(r.weights)
    rows = np.empty((order, order))
    rows[0] = root_w
    rows[1] = r.nodes * root_w
    for n in range(1, order - 1):
        rows[n + 1] = (r.nodes * rows[n] - math.sqrt(n) * rows[n - 1]) / math.sqrt(n + 1)
    rows *= root_w
    rows.setflags(write=False)
    return rows


def finite_at_nodes(values: np.ndarray, quad: QuadratureRule) -> np.ndarray:
    """``values``, one per node of ``quad``; the first non-finite one
    raises NumericError naming its node."""
    if not np.isfinite(values).all():
        bad = quad.nodes[~np.isfinite(values)][0]
        raise NumericError(f"integrand is non-finite at node z={bad!r}")
    return values
