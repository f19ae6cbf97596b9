"""Affine mapping between physical time t in [t1, t2] and x in [-1, 1].

A d-th t-derivative is (2/dt)^d times the d-th x-derivative. `DomainMap` is
the one module that applies this, to values, operator weights and constraints.
"""

from dataclasses import dataclass, field

import numpy as np

# the collocation node sets of `DomainMap.nodes`
NODE_KINDS = ("uniform", "lobatto")


@dataclass(frozen=True)
class DomainMap:
    t1: float
    t2: float
    delta_t: float = field(init=False)

    def __post_init__(self):
        dt = float(self.t2) - float(self.t1)
        if not np.isfinite(dt) or dt <= 0.0:
            raise ValueError(f"require t2 > t1, got t1={self.t1}, t2={self.t2}")
        object.__setattr__(self, "delta_t", dt)

    def to_x(self, t):
        return 2.0 * (np.asarray(t, dtype=float) - self.t1) / self.delta_t - 1.0

    def to_t(self, x):
        return self.t1 + (np.asarray(x, dtype=float) + 1.0) * self.delta_t / 2.0

    def derivative_factor(self, d):
        """2^d / dt^d, the t-derivative's factor on a d-th x-derivative."""
        return 2.0**d / self.delta_t**d

    def to_t_derivative(self, d, values, out=None):
        """(values 2^d) / dt^d, written to out when given (values allowed)."""
        return np.divide(np.multiply(values, 2.0**d, out=out), self.delta_t**d, out=out)

    def scale_derivative_constraint(self, order, value_t):
        """A t-domain constraint value in x, value_t dt^order / 2^order."""
        if order in (0, 1, 2):
            return float(value_t) * self.delta_t**order / 2.0**order
        raise ValueError(f"derivative order {order} not supported (solver core is second order)")

    def nodes(self, n, kind="uniform"):
        """Collocation nodes on [-1, 1], endpoints included."""
        if n < 2:
            raise ValueError("need at least 2 nodes")
        if kind == "uniform":
            return np.linspace(-1.0, 1.0, n)
        if kind == "lobatto":
            # Chebyshev-Gauss-Lobatto points, ordered ascending.
            return -np.cos(np.pi * np.arange(n) / (n - 1))
        raise ValueError(f"unknown node kind {kind!r}")
