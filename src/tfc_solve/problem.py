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
        """(f2, f1, f0, f) arrays at the mapped points, checked finite."""
        t = self.map.to_t(np.atleast_1d(np.asarray(x, dtype=float)))
        out = []
        for name, fn in (("f2", self.ode.f2), ("f1", self.ode.f1),
                         ("f0", self.ode.f0), ("f", self.ode.f)):
            v = np.asarray(fn(t), dtype=float)
            v = np.broadcast_to(v, t.shape).copy()
            bad = ~np.isfinite(v)
            if bad.any():
                j = int(np.argmax(bad))
                raise NodeSingularity(name, j, float(t[j]))
            out.append(v)
        return tuple(out)

    def homogeneous_operator(self, x, y, yp, ypp, coeffs=None, out=None, scratch=None):
        """The f-free residual ((4/dt^2) f2 y'' + (2/dt) f1 y') + f0 y. With out,
        the sum goes to out (ypp allowed); with scratch, an array of the sum's
        shape sharing no memory with y or y', the products of y' and y go to
        it. Given both, no temporary of their size is made, and y and y' are
        only read."""
        f2, f1, f0, _ = coeffs if coeffs is not None else self.coefficients_at(x)
        dt = self.map.delta_t
        out = np.multiply((4.0 / dt**2) * f2, ypp, out=out)
        out += np.multiply((2.0 / dt) * f1, yp, out=scratch)
        out += np.multiply(f0, y, out=scratch)
        return out


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

    f2, f1, f0, f = (float(v[0]) for v in mapped.coefficients_at(-1.0))
    dt = mapped.map.delta_t
    # a*ddy_x + b*dy_x + c*y = f at t1
    a, b, c = 4.0 / dt**2 * f2, 2.0 / dt * f1, f0
    coeff = {"y": (c, "f0(t1)"), "dy_x": (b, "f1(t1)"), "ddy_x": (a, "f2(t1)")}
    div, name = coeff[missing]
    if div == 0.0 or not np.isfinite(div):
        raise DivisorZero(name)
    total = f
    for key, mult in (("y", c), ("dy_x", b), ("ddy_x", a)):
        if key in known:
            total -= mult * float(known[key])
    return total / div
