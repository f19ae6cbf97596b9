"""Second-order linear ODE representation and its mapped-variable form.

The physical equation f2(t) y'' + f1(t) y' + f0(t) y = f(t) on [t1, t2]
becomes, in x = 2(t - t1)/(t2 - t1) - 1,

    (4/dt^2) f2 y_xx + (2/dt) f1 y_x + f0 y = f,

which is the residual operator the collocation system discretizes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivisorZero, NodeSingularity
from .mapping import DomainMap


@dataclass(frozen=True)
class LinearODE2:
    f2: Callable
    f1: Callable
    f0: Callable
    f: Callable
    t1: float
    t2: float


class MappedODE:
    """LinearODE2 composed with the affine time map."""

    def __init__(self, ode):
        self.ode = ode
        self.map = DomainMap(ode.t1, ode.t2)

    def coefficients_at(self, x):
        """(f2, f1, f0, f) float arrays of the mapped points' shape, checked
        finite. A callable's float array of that shape is kept as returned;
        anything else is cast and broadcast into a new array."""
        t = self.map.to_t(np.atleast_1d(np.asarray(x, dtype=float)))
        out = []
        for name, fn in (("f2", self.ode.f2), ("f1", self.ode.f1),
                         ("f0", self.ode.f0), ("f", self.ode.f)):
            v = np.asarray(fn(t), dtype=float)
            if v.shape != t.shape:
                v = np.broadcast_to(v, t.shape).copy()
            if not np.isfinite(v).all():
                j = int(np.argmax(~np.isfinite(v)))
                raise NodeSingularity(name, j, float(t[j]))
            out.append(v)
        return tuple(out)

    def operator_weights(self, coeffs):
        """The (3, len(x)) weights ((4/dt^2) f2, (2/dt) f1, f0) of the mapped
        operator's terms y'', y', y: each f_d times `map.derivative_factor(d)`."""
        w = np.empty((3,) + np.shape(coeffs[0]))
        for d, f, row in zip((2, 1, 0), coeffs, w):
            np.multiply(self.map.derivative_factor(d), f, out=row)
        return w

    def homogeneous_operator(self, x, y, yp, ypp, coeffs=None):
        """The f-free residual (w[0] y'' + w[1] y') + w[2] y, w the operator weights."""
        w = self.operator_weights(self.coefficients_at(x) if coeffs is None else coeffs)
        return w[0] * ypp + w[1] * yp + w[2] * y


def map_ode(ode):
    return MappedODE(ode)


def implied_initial_value(mapped, known):
    """Derive the missing one of {y, dy_x, ddy_x} at t1 from the ODE itself.

    `known` maps two of the keys "y", "dy_x", "ddy_x" to x-scaled values;
    the ODE evaluated at x = -1 determines the third.
    """
    keys = {"y", "dy_x", "ddy_x"}
    if set(known) >= keys or len(set(known) & keys) != 2:
        raise ValueError(f"known must hold exactly two of {sorted(keys)}")
    (missing,) = keys - set(known)

    coeffs = mapped.coefficients_at(-1.0)
    f = float(coeffs[3][0])
    # a*ddy_x + b*dy_x + c*y = f at t1
    a, b, c = (float(v[0]) for v in mapped.operator_weights(coeffs))
    coeff = {"y": (c, "f0(t1)"), "dy_x": (b, "f1(t1)"), "ddy_x": (a, "f2(t1)")}
    div, name = coeff[missing]
    if div == 0.0 or not np.isfinite(div):
        raise DivisorZero(name)
    total = f
    for key, mult in (("y", c), ("dy_x", b), ("ddy_x", a)):
        if key in known:
            total -= mult * float(known[key])
    return total / div
