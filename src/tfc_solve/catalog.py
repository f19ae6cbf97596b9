"""Built-in test problems with known behavior.

An entry's ODE and constraints are read from its own problem file
(`to_problem_file`) by `problem.scalar_problem`, the CLI's loader, so a
catalog entry and its serialized problem file evaluate identically.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import diagnostics
from .problem import scalar_problem


@dataclass(frozen=True)
class CatalogProblem:
    id: str
    coefficients: dict          # expression strings for f2, f1, f0, f
    interval: tuple
    constraints: tuple          # (order, "t1"|"t2", value) triples
    expected_class: str
    analytic: Optional[Callable] = None   # t -> (y, ydot, yddot)
    sweep: tuple = (3, 23)
    shoot_bracket: Optional[tuple] = None

    def ode(self):
        return scalar_problem(self.to_problem_file())[0]

    def constraint_triples(self):
        return scalar_problem(self.to_problem_file())[1]

    def to_problem_file(self):
        kind = "ivp" if all(loc == "t1" for _, loc, _ in self.constraints) else "bvp"
        return {
            "schema_version": 1,
            "kind": kind,
            "coefficients": dict(self.coefficients),
            "interval": list(self.interval),
            "constraints": [
                {"order": o, "at": loc, "value": v} for o, loc, v in self.constraints
            ],
            "solver": {"m": 17, "N": 1000, "scaling": "column_norm"},
        }

    def self_check(self, tol=1e-8, n=101):
        """Verify the stored analytic solution against the ODE residual."""
        if self.analytic is None:
            return
        ode = self.ode()
        t = np.linspace(ode.t1, ode.t2, n)
        y, yd, ydd = self.analytic(t)
        r = ode.f2(t) * ydd + ode.f1(t) * yd + ode.f0(t) * y - ode.f(t)
        scale = max(1.0, float(np.max(np.abs([y, yd, ydd]))))
        worst = float(np.max(np.abs(r)))
        if worst > tol * scale:
            raise AssertionError(
                f"catalog {self.id}: analytic solution residual {worst:.3e}")


def _eq19_analytic(t):
    t = np.asarray(t, dtype=float)
    ex = np.exp(t - 1.0)
    y = (2.0 - ex) * t
    yd = 2.0 - ex * (t + 1.0)
    ydd = -ex * (t + 2.0)
    return y, yd, ydd


def _eq26_analytic(t):
    t = np.asarray(t, dtype=float)
    c = 3.0 * math.e - 1.0
    em = np.exp(-t)
    y = em + c * t * em
    yd = -em * (3.0 * math.e * t - t - 3.0 * math.e + 2.0)
    ydd = em * (3.0 * math.e * t - t - 6.0 * math.e + 3.0)
    return y, yd, ydd


CATALOG = {
    "eq19": CatalogProblem(
        id="eq19",
        coefficients={"f2": "t^2", "f1": "-t*(t + 2)", "f0": "t + 2", "f": "0"},
        interval=(1.0, 4.0),
        constraints=((0, "t1", 1.0), (1, "t1", 0.0)),
        expected_class=diagnostics.CONVERGED,
        analytic=_eq19_analytic,
    ),
    "eq26": CatalogProblem(
        id="eq26",
        coefficients={"f2": "1", "f1": "2", "f0": "1", "f": "0"},
        interval=(0.0, 1.0),
        constraints=((0, "t1", 1.0), (0, "t2", 3.0)),
        expected_class=diagnostics.CONVERGED,
        analytic=_eq26_analytic,
        shoot_bracket=(0.0, 20.0),
    ),
    "sec42": CatalogProblem(
        id="sec42",
        coefficients={
            "f2": "1 + 2*t",
            "f1": "cos(t^2) - 3*t + 1",
            "f0": "6*sin(t^2) - exp(cos(3*t))",
            "f": "2*(1 - sin(3*t))*(3*t - pi)/(4 - t)",
        },
        interval=(0.0, 1.0),
        constraints=((0, "t1", 2.0), (0, "t2", 2.0)),
        expected_class=diagnostics.CONVERGED,
    ),
    "eq27": CatalogProblem(
        id="eq27",
        coefficients={"f2": "1", "f1": "-6", "f0": "25", "f": "0"},
        interval=(0.0, math.pi),
        constraints=((0, "t1", 1.0), (0, "t2", 2.0)),
        expected_class=diagnostics.NO_SOLUTION,
        sweep=(3, 22),
    ),
    "eq28": CatalogProblem(
        id="eq28",
        coefficients={"f2": "1", "f1": "0", "f0": "4", "f": "0"},
        interval=(0.0, 2.0 * math.pi),
        constraints=((0, "t1", -2.0), (0, "t2", -2.0)),
        expected_class=diagnostics.INFINITE_SOLUTIONS,
        sweep=(3, 30),
    ),
}


def get(problem_id):
    try:
        return CATALOG[problem_id]
    except KeyError:
        raise KeyError(f"unknown catalog problem {problem_id!r}") from None


# Entries with analytic solutions are checked once at import.
for _p in CATALOG.values():
    _p.self_check()
