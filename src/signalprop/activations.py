"""Activation functions with exact first and second derivatives."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Activation:
    """A nonlinearity together with its first two derivatives.

    All three callables are vectorized (accept and return numpy arrays).
    The package reads phi and d_phi; ``dd_phi`` is kept only for the
    benchmark's counting activation. ``bounded`` marks activations whose
    range is bounded, by any bound, not only 1: the variance map then has
    a fixed point, and the q* solver doubles its bracket until it holds
    one. An unbounded activation has one when V(q) - q falls to 0 as q
    doubles; the solver raises NoFixedPointError at the first doubling
    that does not lower it.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    d_phi: Callable[[np.ndarray], np.ndarray]
    dd_phi: Callable[[np.ndarray], np.ndarray]
    bounded: bool


def _tanh_d(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _tanh_dd(x):
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t * t)


def _hard_tanh(x):
    return np.clip(x, -1.0, 1.0)


def _hard_tanh_d(x):
    x = np.asarray(x)
    return np.where(np.abs(x) < 1.0, 1.0, 0.0)


_BUILTINS = {
    "tanh": Activation(
        name="tanh",
        phi=np.tanh,
        d_phi=_tanh_d,
        dd_phi=_tanh_dd,
        bounded=True,
    ),
    "linear": Activation(
        name="linear",
        phi=lambda x: np.asarray(x, dtype=float),
        d_phi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        dd_phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        bounded=False,
    ),
    "hard_tanh": Activation(
        name="hard_tanh",
        phi=_hard_tanh,
        d_phi=_hard_tanh_d,
        dd_phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        bounded=True,
    ),
}


def builtin(name: str) -> Activation:
    """Look up a built-in activation by name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        supported = ", ".join(sorted(_BUILTINS))
        raise ConfigurationError(
            f"unknown activation {name!r}; supported: {supported}"
        ) from None


def supported_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTINS))
