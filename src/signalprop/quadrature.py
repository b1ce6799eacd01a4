"""Gaussian expectations via Gauss-Hermite quadrature.

Every integral in this package is an expectation of a smooth function of
either one standard Gaussian variable or two correlated Gaussian variables,

    E[f(z)]        with z ~ N(0, 1),
    E[f(u1, u2)]   with u1 = sqrt(q_a) z1,
                        u2 = sqrt(q_b) (c z1 + sqrt(1 - c^2) z2),

so a single fixed-order Gauss-Hermite rule (after the change of variables
to the standard Gaussian measure) evaluates all of them. Rules are
precomputed once per order and cached; sweeps evaluate millions of these
integrals.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError, NumericError

#: Default number of nodes. Against mpmath (perfbench/workloads.py), 61
#: nodes miss E[tanh^2] by 2e-13 at q = 0.45 but by 6e-8 at q = 1.3, and
#: miss hard_tanh expectations by up to 1e-3 because of its kinks. Exact
#: expectations are ROADMAP item 4.
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


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for expectations under the standard Gaussian.

    Weights are normalized so that the constant function integrates to 1:
    sum(weights) == 1, sum(weights * nodes) == 0, sum(weights * nodes**2) == 1
    up to rounding.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@dataclass(frozen=True)
class CorrelatedPair:
    """Second moments of a pair of jointly Gaussian pre-activations."""

    q_a: float
    q_b: float
    c: float

    def __post_init__(self):
        if self.q_a < 0 or self.q_b < 0:
            raise DomainError(
                f"variances must be nonnegative, got q_a={self.q_a}, q_b={self.q_b}"
            )
        if abs(self.c) > 1:
            raise DomainError(f"correlation must lie in [-1, 1], got {self.c}")


def rule(order: int | None = None) -> QuadratureRule:
    """Return the (cached) Gauss-Hermite rule of the given order.

    ``None`` selects :func:`default_order`, which reads the environment
    on every call rather than once per process. Orders below
    ``MIN_ORDER`` are rejected, whether they come from the caller or from
    the environment.
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
    standard Gaussian measure.
    """
    x, w = hermgauss(order)
    return QuadratureRule(
        order=order,
        nodes=np.sqrt(2.0) * x,
        weights=w / math.sqrt(math.pi),
    )


@lru_cache(maxsize=None)
def _grid(order: int):
    """Tensor-product nodes and weights for 2D expectations."""
    r = rule(order)
    z1 = r.nodes[:, None]
    z2 = r.nodes[None, :]
    w = np.outer(r.weights, r.weights)
    w.setflags(write=False)
    return z1, z2, w


def gauss_expect_1d(f, quad: QuadratureRule | None = None) -> float:
    """E[f(z)] for z ~ N(0, 1).

    ``f`` must accept a numpy array of evaluation points.
    """
    if quad is None:
        quad = rule()
    values = np.asarray(f(quad.nodes), dtype=float)
    if not np.all(np.isfinite(values)):
        bad = quad.nodes[~np.isfinite(values)][0]
        raise NumericError(f"integrand is non-finite at node z={bad!r}")
    return float(quad.weights @ values)


def gauss_expect_2d(f, pair: CorrelatedPair, quad: QuadratureRule | None = None) -> float:
    """E[f(u1, u2)] for the correlated Gaussian pair described by ``pair``.

    At c exactly +-1 the orthogonal component is exactly zero, so the
    perfectly-correlated case is representable without rounding into
    sqrt of a negative number.
    """
    if quad is None:
        quad = rule()
    z1, z2, w = _grid(quad.order)
    c = pair.c
    s = 0.0 if abs(c) == 1.0 else math.sqrt(1.0 - c * c)
    u1 = math.sqrt(pair.q_a) * z1
    u2 = math.sqrt(pair.q_b) * (c * z1 + s * z2)
    values = np.asarray(f(u1, u2), dtype=float)
    values = np.broadcast_to(values, w.shape)
    if not np.all(np.isfinite(values)):
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise NumericError(
            f"integrand is non-finite at node (z1={z1[i, 0]!r}, z2={z2[0, j]!r})"
        )
    return float(np.sum(w * values))
