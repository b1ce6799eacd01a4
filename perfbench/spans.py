"""In-memory spans around the package's layer functions, for traced runs.

Only the traced run installs the wrappers, and it removes them when its
pass ends. Wrapping replaces module attributes, so a call is recorded when
the CLI (or a module calling its own functions through its globals)
reaches the function by name; nothing inside the package is edited.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: The layer functions the CLI reaches through module attributes.
TARGETS = {
    "meanfield": ("fixed_point", "chi1", "critical_sigma_w", "depth_scales",
                  "xi_c", "iterate_trajectory"),
    "analysis": ("residuals", "fit_exponential"),
    "backprop": ("grad_covariance_factor",),
    "simulator": ("prepare_inputs", "forward_pair", "backward_gradients",
                  "backward_covariance"),
    "cli": ("build_parser", "emit", "main"),
}

#: Simulator entry points; their spans record network-layers and truncation.
_NETWORK_FUNCTIONS = ("forward_pair", "backward_gradients", "backward_covariance")


@dataclass
class Span:
    name: str
    parent: int        # index of the enclosing span, -1 for a root
    command: int       # id of the CLI command the span belongs to
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)


def _info(attr: str, signature, args, kwargs, result) -> dict:
    """Work counts read from a layer call's arguments and result."""
    if attr == "fixed_point":
        return {"iterations_q": result.iterations_q, "iterations_c": result.iterations_c}
    if attr == "iterate_trajectory":
        return {"layers": result.layers}
    if attr in _NETWORK_FUNCTIONS:
        bound = signature.bind(*args, **kwargs).arguments
        return {"net_layers": bound["n_networks"] * bound["cfg"].depth,
                "truncated": int(result.truncated_at is not None)}
    return {}


class Tracer:
    """Records one span per wrapped call; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []

    def _wrap(self, module, attr: str):
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, self.command)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = _info(attr, signature, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        return original

    @contextmanager
    def installed(self, modules: dict):
        """Wrap ``TARGETS`` in the given {short name: module} map, then restore."""
        saved = []
        try:
            for short, attrs in TARGETS.items():
                for attr in attrs:
                    saved.append((modules[short], attr, self._wrap(modules[short], attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def percentile(values, q: float) -> float | None:
    """The q-quantile (0 < q < 1), or None unless >= 10 samples lie beyond it."""
    if round(len(values) * (1.0 - q), 9) < 10:
        return None
    return float(np.percentile(values, 100.0 * q))


def summarize(spans: list[Span]) -> dict:
    """Per-name aggregates: calls, self seconds, durations, errors, counts."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": [],
                               "errors": defaultdict(int), "info": defaultdict(int)})
    for span, own in zip(spans, selfs):
        agg = out[span.name]
        agg["calls"] += 1
        agg["self_s"] += own
        agg["durations"].append(span.end - span.start)
        for key, value in span.info.items():
            agg["info"][key] += value
        if span.error is not None:
            # count an exception once, where it leaves its layer
            parent = spans[span.parent].name if span.parent >= 0 else ""
            if parent.split(".")[0] != span.name.split(".")[0]:
                agg["errors"][span.error] += 1
    return out


def to_records(spans: list[Span]):
    for index, s in enumerate(spans):
        yield {"id": index, "name": s.name, "parent": s.parent, "command": s.command,
               "start": s.start, "end": s.end, "error": s.error, **s.info}
