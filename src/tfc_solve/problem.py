"""Second-order linear ODE representation, problem-file and mapped forms.

The physical equation f2(t) y'' + f1(t) y' + f0(t) y = f(t) on [t1, t2]
becomes, in x = 2(t - t1)/(t2 - t1) - 1,

    (4/dt^2) f2 y_xx + (2/dt) f1 y_x + f0 y = f,

which is the residual operator the collocation system discretizes. The CLI
and the catalog both read an ivp or bvp problem file by `scalar_problem`.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivisorZero, NodeSingularity, ProblemFileError
from .exprparse import parse_expression
from .mapping import DomainMap


@dataclass(frozen=True)
class LinearODE2:
    f2: Callable
    f1: Callable
    f0: Callable
    f: Callable
    t1: float
    t2: float


def interval_of(data):
    """A problem file's interval (t1, t2), floats with t2 > t1."""
    try:
        t1, t2 = (float(v) for v in data["interval"])
    except (KeyError, TypeError, ValueError):
        raise ProblemFileError("interval must be [t1, t2]") from None
    if not (np.isfinite(t1) and np.isfinite(t2)):
        raise ProblemFileError(f"interval must hold finite numbers, not [{t1}, {t2}]")
    if not t2 > t1:
        raise ProblemFileError("interval must satisfy t2 > t1")
    return t1, t2


def compile_coefficient(name, src, t1, t2):
    """The expression src, parsed, refused where it is not a string or not
    finite at t1 or t2."""
    if not isinstance(src, str):
        raise ProblemFileError(f"coefficient {name} must be an expression string, not {src!r}")
    fn = parse_expression(src)
    for t in (t1, t2):
        if not np.isfinite(float(fn(t))):
            raise ProblemFileError(f"coefficient {name} = {src!r} is non-finite at t = {t}")
    return fn


def scalar_problem(data):
    """The LinearODE2 and the two (order, at, value) constraint triples of an
    ivp or bvp problem file. An order is 0, 1 or 2, and not a boolean."""
    t1, t2 = interval_of(data)
    coeffs = data.get("coefficients") or {}
    if not isinstance(coeffs, dict):
        raise ProblemFileError("coefficients must be an object")
    missing = {"f2", "f1", "f0", "f"} - set(coeffs)
    if missing:
        raise ProblemFileError(f"missing coefficients: {sorted(missing)}")
    ode = LinearODE2(*(compile_coefficient(k, coeffs[k], t1, t2) for k in ("f2", "f1", "f0", "f")),
                     t1=t1, t2=t2)
    raw = data.get("constraints") or []
    if not isinstance(raw, list) or len(raw) != 2:
        raise ProblemFileError("ivp/bvp problems take exactly 2 constraints")
    at = {"t1": t1, "t2": t2}
    constraints = []
    for c in raw:
        try:
            loc = c["at"]
            loc = at[loc] if isinstance(loc, str) else float(loc)
            order, value = c["order"], float(c["value"])
        except (KeyError, TypeError, ValueError):
            raise ProblemFileError(f"bad constraint entry {c!r}") from None
        for field, v in (("at", loc), ("value", value)):
            if not np.isfinite(v):
                raise ProblemFileError(f"constraint {field} must be finite, not {v}")
        if isinstance(order, bool) or order not in (0, 1, 2):
            raise ProblemFileError(f"constraint order {order!r} is not 0, 1 or 2")
        constraints.append((int(order), loc, value))
    return ode, constraints


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
