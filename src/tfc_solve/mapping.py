"""Affine mapping between physical time t in [t1, t2] and x in [-1, 1].

First and second t-derivatives pick up factors 2/dt and 4/dt^2 under the
map, so derivative-valued constraints must be rescaled before they are
embedded in x-domain constrained expressions.
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

    def scale_derivative_constraint(self, order, value_t):
        """Convert a t-domain constraint value to its x-domain equivalent."""
        if order == 0:
            return float(value_t)
        if order == 1:
            return float(value_t) * self.delta_t / 2.0
        if order == 2:
            return float(value_t) * self.delta_t**2 / 4.0
        raise ValueError(f"derivative order {order} not supported (solver core is second order)")

    def dydx_to_dydt(self, dydx, out=None):
        """dy/dt from dy/dx, written to out when given (dydx allowed)."""
        return np.divide(np.multiply(dydx, 2.0, out=out), self.delta_t, out=out)

    def d2ydx2_to_d2ydt2(self, d2ydx2, out=None):
        """d2y/dt2 from d2y/dx2, written to out when given (d2ydx2 allowed)."""
        return np.divide(np.multiply(d2ydx2, 4.0, out=out), self.delta_t**2, out=out)

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
