"""Constrained expressions: embed linear point constraints exactly.

A constrained expression is y(x) = g(x) + sum_i beta_i(x) (c_i - g_i) where
g is an arbitrary free function, c_i are the constraint values, g_i the
matching derivatives of g at the constraint locations, and the beta
polynomials satisfy the Kronecker property

    d^{d_k} beta_i / dx^{d_k} (x_k) = delta_ik.

Every constraint then holds identically in g. The twelve two-constraint
cases used by the solver are hard-coded with their published beta
polynomials; a generic builder covers arbitrary small constraint sets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularConstraintSet

MAX_CONSTRAINTS = 6
PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class ConstraintSpec:
    """One linear point constraint: y^(order)(location) = value (x-domain)."""

    order: int
    location: float
    value: float = 0.0


@dataclass(frozen=True)
class RelativeConstraintSpec:
    """A relative constraint y^(order)(location_a) = y^(order)(location_b)."""

    order: int
    location_a: float
    location_b: float


def _monomial_deriv_row(exponents, order, x):
    """Values of d^order/dx^order x^e at x, for each exponent e."""
    row = np.zeros(len(exponents))
    for j, e in enumerate(exponents):
        if order > e:
            continue
        c = 1.0
        for i in range(order):
            c *= e - i
        row[j] = c * x ** (e - order)
    return row


class BetaSet:
    """Beta polynomials on a shared monomial support.

    coefficients[:, i] holds the monomial coefficients of beta_i.
    """

    def __init__(self, monomial_support, coefficients):
        self.monomial_support = tuple(int(e) for e in monomial_support)
        self.coefficients = np.asarray(coefficients, dtype=float)

    @property
    def n(self):
        return self.coefficients.shape[1]

    def eval(self, x, deriv=0):
        """beta values (or derivatives) at x; shape (n, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rows = np.zeros((x.size, len(self.monomial_support)))
        for j, e in enumerate(self.monomial_support):
            if deriv <= e:
                rows[:, j] = math.perm(e, deriv) * x ** (e - deriv)
        return (rows @ self.coefficients).T


def build_betas(constraints):
    """Construct betas for arbitrary distinct constraints.

    Greedily selects the lowest-degree monomials x^e (e = 0, 1, 2, ...)
    whose constraint-application columns stay linearly independent, then
    solves for the coefficients enforcing the Kronecker property.
    """
    n = len(constraints)
    if not 1 <= n <= MAX_CONSTRAINTS:
        raise ValueError(f"need 1..{MAX_CONSTRAINTS} constraints, got {n}")
    seen = {(c.order, c.location) for c in constraints}
    if len(seen) < n:
        raise SingularConstraintSet("duplicate (order, location) constraint pair")

    support = []
    columns = []
    for e in range(n + 5):
        col = np.array(
            [_monomial_deriv_row([e], c.order, c.location)[0] for c in constraints]
        )
        trial = columns + [col]
        a = np.column_stack(trial)
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] > PIVOT_TOL * max(s[0], 1.0):
            support.append(e)
            columns.append(col)
        if len(support) == n:
            break
    else:
        raise SingularConstraintSet(
            "no nonsingular monomial support within exponent budget"
        )

    a = np.column_stack(columns)  # a[k, j] = constraint k applied to x^support[j]
    coeffs = np.linalg.solve(a, np.eye(n))
    return BetaSet(support, coeffs)


class ConstrainedExpression:
    """Evaluate y and its first two x-derivatives from a free function g."""

    def __init__(self, betas, constraints):
        if betas.n != len(constraints):
            raise ValueError("beta count must match constraint count")
        self.betas = betas
        self.constraints = tuple(constraints)

    @property
    def values(self):
        return np.array([c.value for c in self.constraints])

    def g_derivatives_needed(self):
        """(order, location) pairs of g required at the constraint points."""
        return [(c.order, c.location) for c in self.constraints]

    def eval(self, x, g, dg, ddg, g_at_constraints):
        """Combine g samples with the constraint corrections.

        g, dg, ddg are arrays of g and its x-derivatives at the query
        points x; g_at_constraints[i] = g^(d_i)(x_i).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        corr = self.values - np.asarray(g_at_constraints, dtype=float)
        b0 = self.betas.eval(x, 0)
        b1 = self.betas.eval(x, 1)
        b2 = self.betas.eval(x, 2)
        y = np.asarray(g, dtype=float) + corr @ b0
        yp = np.asarray(dg, dtype=float) + corr @ b1
        ypp = np.asarray(ddg, dtype=float) + corr @ b2
        return y, yp, ypp

    def eval_with(self, x, g_fn, dg_fn, ddg_fn):
        """Evaluate from callables for g and its first two derivatives."""
        fns = {0: g_fn, 1: dg_fn, 2: ddg_fn}
        g_at = [float(fns[c.order](c.location)) for c in self.constraints]
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.eval(x, g_fn(x), dg_fn(x), ddg_fn(x), g_at)


# The twelve published two-constraint cases. Each entry gives the
# (order, location) pairs in x-domain and the beta polynomials as
# {exponent: coefficient} dicts, one per constraint.
FIXED_CASES = {
    "IVP_y_dy": (((0, -1.0), (1, -1.0)), ({0: 1.0}, {0: 1.0, 1: 1.0})),
    "IVP_y_ddy": (((0, -1.0), (2, -1.0)), ({1: -1.0}, {1: 0.5, 2: 0.5})),
    "IVP_dy_ddy": (((1, -1.0), (2, -1.0)), ({1: 1.0}, {1: 1.0, 2: 0.5})),
    "BVP_y_y": (((0, -1.0), (0, 1.0)), ({0: 0.5, 1: -0.5}, {0: 0.5, 1: 0.5})),
    "BVP_y_dy": (((0, -1.0), (1, 1.0)), ({0: 1.0}, {0: 1.0, 1: 1.0})),
    "BVP_y_ddy": (((0, -1.0), (2, 1.0)), ({1: -1.0}, {1: 0.5, 2: 0.5})),
    "BVP_dy_y": (((1, -1.0), (0, 1.0)), ({0: -1.0, 1: 1.0}, {0: 1.0})),
    "BVP_dy_dy": (((1, -1.0), (1, 1.0)), ({1: 0.5, 2: -0.25}, {1: 0.5, 2: 0.25})),
    "BVP_dy_ddy": (((1, -1.0), (2, 1.0)), ({1: 1.0}, {1: 1.0, 2: 0.5})),
    "BVP_ddy_y": (((2, -1.0), (0, 1.0)), ({1: -0.5, 2: 0.5}, {1: 1.0})),
    "BVP_ddy_dy": (((2, -1.0), (1, 1.0)), ({1: -1.0, 2: 0.5}, {1: 1.0})),
    "BVP_ddy_ddy": (
        ((2, -1.0), (2, 1.0)),
        ({2: 0.25, 3: -1.0 / 12.0}, {2: 0.25, 3: 1.0 / 12.0}),
    ),
}


def fixed_case_expression(case_id, constraint_values):
    """The published constrained expression for one of the twelve cases.

    constraint_values must already be scaled to the x-domain (see
    DomainMap.scale_derivative_constraint).
    """
    try:
        specs, beta_polys = FIXED_CASES[case_id]
    except KeyError:
        raise ValueError(f"unknown constraint case {case_id!r}") from None
    if len(constraint_values) != len(specs):
        raise ValueError(f"case {case_id} takes {len(specs)} constraint values")
    support = sorted({e for poly in beta_polys for e in poly})
    coeffs = np.zeros((len(support), len(beta_polys)))
    for i, poly in enumerate(beta_polys):
        for e, c in poly.items():
            coeffs[support.index(e), i] = c
    constraints = [
        ConstraintSpec(order=o, location=loc, value=float(v))
        for (o, loc), v in zip(specs, constraint_values)
    ]
    return ConstrainedExpression(BetaSet(support, coeffs), constraints)


def generic_case_expression(case_id, constraint_values):
    """Same constraints as the fixed case, betas from the generic builder."""
    specs, _ = FIXED_CASES[case_id]
    constraints = [
        ConstraintSpec(order=o, location=loc, value=float(v))
        for (o, loc), v in zip(specs, constraint_values)
    ]
    return ConstrainedExpression(build_betas(constraints), constraints)


class RelativeEmbedding:
    """Periodic-style embedding: y(t1) = y(t2) and ydot(t1) = ydot(t2).

    y(t) = g(t) + (g1 - g2) t / (t2 - t1)
                + (gdot1 - gdot2) t (t - t1 - t2) / (2 (t2 - t1))
    for any free function g, where g1 = g(t1) etc.
    """

    def __init__(self, t1, t2):
        if t1 == t2:
            raise ValueError("relative constraint locations must differ")
        self.t1 = float(t1)
        self.t2 = float(t2)

    def eval_with(self, t, g_fn, dg_fn):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        t1, t2 = self.t1, self.t2
        dg01 = float(g_fn(t1)) - float(g_fn(t2))
        dg11 = float(dg_fn(t1)) - float(dg_fn(t2))
        ba = t / (t2 - t1)
        bb = t * (t - t1 - t2) / (2.0 * (t2 - t1))
        y = g_fn(t) + dg01 * ba + dg11 * bb
        dba = 1.0 / (t2 - t1)
        dbb = (2.0 * t - t1 - t2) / (2.0 * (t2 - t1))
        yd = dg_fn(t) + dg01 * dba + dg11 * dbb
        return y, yd


def build_relative_betas(specs):
    """Embedding for matched relative constraints (orders {0, 1}, same pair)."""
    if len(specs) != 2:
        raise ValueError("expected exactly two relative constraints")
    orders = sorted(s.order for s in specs)
    pairs = {(s.location_a, s.location_b) for s in specs}
    if orders != [0, 1] or len(pairs) != 1:
        raise ValueError("unsupported relative constraint combination")
    (a, b) = pairs.pop()
    return RelativeEmbedding(a, b)
