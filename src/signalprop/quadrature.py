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
import os
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

_ORDER_ENV_VAR = "SIGNALPROP_QUAD_ORDER"


def default_order() -> int:
    """Default quadrature order, overridable via SIGNALPROP_QUAD_ORDER."""
    raw = os.environ.get(_ORDER_ENV_VAR)
    if raw is None:
        return DEFAULT_ORDER
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{_ORDER_ENV_VAR} must be an integer, got {raw!r}") from exc


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


def rule(order: int | None = None) -> QuadratureRule:
    """Return the (cached) Gauss-Hermite rule of the given order.

    ``None`` selects :func:`default_order`, which reads the environment
    on every call rather than once per process. Orders below
    ``MIN_ORDER`` are rejected, whether they come from the caller or from
    the environment, and so are orders too large for numpy's rule.
    """
    source = "quadrature order"
    if order is None:
        order, source = default_order(), _ORDER_ENV_VAR
    if order < MIN_ORDER:
        raise DomainError(f"{source} must be >= {MIN_ORDER}, got {order}")
    return _rule(order)


@lru_cache(maxsize=None)
def _rule(order: int) -> QuadratureRule:
    """Gauss-Hermite rule of ``order`` for the standard Gaussian measure.

    The physicists' rule integrates exp(-x^2) g(x); substituting
    z = sqrt(2) x and dividing the weights by sqrt(pi) turns it into the
    standard Gaussian measure. From order 375 on, numpy's weights
    overflow to nan, and such an order is rejected.
    """
    with np.errstate(all="ignore"):
        x, w = hermgauss(order)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise DomainError(f"quadrature order {order} is too large: its "
                          "Gauss-Hermite nodes or weights are not finite")
    return QuadratureRule(
        order=order,
        nodes=np.sqrt(2.0) * x,
        weights=w / math.sqrt(math.pi),
    )


@lru_cache(maxsize=None)
def hermite_matrix(order: int) -> np.ndarray:
    """``w_i h_n(z_i)`` for n < order over the nodes z_i and weights w_i.

    Times the values of f at the nodes (:func:`node_values`) it gives
    a_n = E[f(z) h_n(z)]. On an M-node rule h_0 ... h_{M-1} are discretely
    orthonormal, so sum(a**2) equals E[f(z)^2] on the rule to rounding
    (Parseval). The recurrence h_{n+1} = (z h_n - sqrt(n) h_{n-1}) /
    sqrt(n + 1) runs on sqrt(w_i) h_n(z_i), an orthogonal matrix, so
    nothing overflows.
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


def node_values(f, quad: QuadratureRule) -> np.ndarray:
    """``f`` at the nodes of ``quad``, which must all be finite."""
    values = np.asarray(f(quad.nodes), dtype=float)
    if not np.isfinite(values).all():
        bad = quad.nodes[~np.isfinite(values)][0]
        raise NumericError(f"integrand is non-finite at node z={bad!r}")
    return values


def gauss_expect_1d(f, quad: QuadratureRule | None = None) -> float:
    """E[f(z)] for z ~ N(0, 1).

    ``f`` must accept a numpy array of evaluation points.
    """
    if quad is None:
        quad = rule()
    return float(quad.weights @ node_values(f, quad))
