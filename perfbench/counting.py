"""Exact integrand counts through a counting ``Activation``.

The package evaluates every Gaussian expectation by calling the
activation's ``phi``, ``d_phi`` or ``dd_phi`` on an array of quadrature
nodes. A counting activation wraps those three callables: ``calls`` is the
number of calls and ``evals`` the number of array elements evaluated. The
CLI resolves ``--activation`` names through ``cli.builtin``; the counting
pass hands it counting activations there and checks that the output is
byte-identical to the builtin run, so the counts describe the same work.
"""
from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np


class Counter:
    def __init__(self):
        self.calls = 0
        self.evals = 0

    def _wrap(self, fn):
        def counted(x):
            self.calls += 1
            self.evals += int(np.size(x))
            return fn(x)
        return counted

    def activation(self, act):
        """A copy of ``act`` whose three callables are counted."""
        return dataclasses.replace(act, phi=self._wrap(act.phi),
                                   d_phi=self._wrap(act.d_phi),
                                   dd_phi=self._wrap(act.dd_phi))


@contextmanager
def counting_cli(cli, counter: Counter):
    """Make ``cli`` resolve activation names to counting activations."""
    builtin = cli.builtin
    cli.builtin = lambda name: counter.activation(builtin(name))
    try:
        yield counter
    finally:
        cli.builtin = builtin
