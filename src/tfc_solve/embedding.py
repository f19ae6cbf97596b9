"""Constrained expressions: embed linear point constraints exactly.

A constrained expression is y(x) = g(x) + sum_i beta_i(x) (c_i - g_i) where
g is an arbitrary free function, c_i are the constraint values, g_i the
matching derivatives of g at the constraint locations, and the beta
polynomials satisfy the Kronecker property

    d^{d_k} beta_i / dx^{d_k} (x_k) = delta_ik.

Every constraint then holds identically in g. `eliminate` builds every
such expression: Gauss-Jordan on constraint rows C over the Chebyshev basis
T_0, T_1, ... (the null-space method; Bjorck 1996, section 5.1). On endpoint
rows it gives the solver's series (`_eliminate`); on the rows at any points
its pivots S are the betas' support, and an LU solve on C_S their Chebyshev
coefficients C_S^-1. The twelve published two-constraint cases are reference
data, converted to Chebyshev series.
"""

from dataclasses import dataclass

import numpy as np

from .chebyshev import clenshaw, derivative_series, endpoint_rows
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


def _rows(k_max, d, x):
    """T_k^(d)(x) for k = 0..k_max, shape (k_max + 1, len(x)): the unit series
    taken d times through `derivative_series`, whose integer coefficients are
    exact, and summed by `clenshaw`, which holds at any real x."""
    series = np.eye(k_max + 1)
    for _ in range(d):
        series = derivative_series(series)
    return clenshaw(series.T, x)


class BetaSet:
    """Beta polynomials as Chebyshev series on a shared support S.

    coefficients[j, i] is the coefficient of T_{S[j]} in beta_i.
    """

    def __init__(self, support, coefficients):
        self.support = tuple(int(k) for k in support)
        self.coefficients = np.asarray(coefficients, dtype=float)

    @property
    def n(self):
        return self.coefficients.shape[1]

    def eval(self, x, deriv=0):
        """beta values (or derivatives) at x; shape (n, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.coefficients.T @ _rows(self.support[-1], deriv, x)[list(self.support)]


def eliminate(C, values):
    """Gauss-Jordan on [C | values], C the n constraint rows over a basis and
    values their n x r right-hand sides: pivot columns S lowest degree first,
    each only if it raises the rank, the rest K; returns S, K, W = C_S^-1 C_K
    and C_S^-1 values, or raises SingularConstraintSet on rank below n. The
    rows are reduced as Python floats, rounding as numpy row operations do."""
    C = np.asarray(C, dtype=float).tolist()
    n, cols = len(C), len(C[0])
    rows = [row + list(map(float, rhs)) for row, rhs in zip(C, values)]
    S = []
    for k in range(cols):
        r = len(S)
        col = [abs(row[k]) for row in rows[r:]]
        big = max(col)
        # the cut-off scales with column k of C, read before elimination; a
        # zero column never pivots, so its scan is skipped
        if big and big > PIVOT_TOL * max(abs(row[k]) for row in C):
            p = r + col.index(big)  # the first largest
            rows[r], rows[p] = rows[p], rows[r]
            pivot = rows[r][k]
            if pivot != 1.0:  # v / 1.0 is v, bit for bit
                rows[r] = [v / pivot for v in rows[r]]
            for i in range(n):
                if i != r:
                    f = rows[i][k]
                    rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
            S.append(k)
            if len(S) == n:
                A = np.array(rows)
                K = np.array([j for j in range(cols) if j not in S])
                return S, K, A[:, K], A[:, cols:]
    raise SingularConstraintSet(f"the {n} constraint rows have rank {len(S)}")


def _eliminate(constraints, m):
    """`eliminate` over T_0..T_m for x-domain ConstraintSpecs at -1 or +1: S,
    K, W and a = C_S^-1 c; ValueError on rank below the constraint count."""
    C = endpoint_rows(m, [c.order for c in constraints], [c.location for c in constraints])
    try:
        S, K, W, a = eliminate(C, [(c.value,) for c in constraints])
    except SingularConstraintSet as exc:
        raise ValueError(f"{exc} on T_0..T_{m}") from None
    return S, K, W, a[:, 0]


def _beta_set(rows):
    """Betas of functionals given as rows C over T_0, T_1, ...: the pivots S of
    `eliminate` are the support, and C_S^-1, the coefficients, comes from an LU
    solve, whose Kronecker residual is smaller than Gauss-Jordan's."""
    C = np.asarray(rows, dtype=float)
    S = eliminate(C, np.empty((len(C), 0)))[0]
    return BetaSet(S, np.linalg.solve(C[:, S], np.eye(len(C))))


def build_betas(constraints):
    """Betas for arbitrary distinct constraints, on the lowest-degree
    T_k (k = 0, 1, 2, ...) that raise the rank of their rows."""
    n = len(constraints)
    if not 1 <= n <= MAX_CONSTRAINTS:
        raise ValueError(f"need 1..{MAX_CONSTRAINTS} constraints, got {n}")
    seen = {(c.order, c.location) for c in constraints}
    if len(seen) < n:
        raise SingularConstraintSet("duplicate (order, location) constraint pair")
    return _beta_set([_rows(n + 4, c.order, c.location)[:, 0] for c in constraints])


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

    def eval(self, x, g, dg, ddg, g_at_constraints):
        """Combine g samples with the constraint corrections.

        g, dg, ddg are arrays of g and its x-derivatives at the query
        points x; g_at_constraints[i] = g^(d_i)(x_i).
        """
        corr = self.values - np.asarray(g_at_constraints, dtype=float)
        return tuple(np.asarray(v, dtype=float) + corr @ self.betas.eval(x, d)
                     for d, v in enumerate((g, dg, ddg)))


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


def _case_constraints(case_id, constraint_values):
    """The x-domain ConstraintSpecs of one of the twelve cases, with its values."""
    if case_id not in FIXED_CASES:
        raise ValueError(f"unknown constraint case {case_id!r}")
    pairs = FIXED_CASES[case_id][0]
    if len(constraint_values) != len(pairs):
        raise ValueError(f"case {case_id} takes {len(pairs)} constraint values")
    return tuple(ConstraintSpec(o, loc, float(v)) for (o, loc), v in zip(pairs, constraint_values))


def fixed_case_expression(case_id, constraint_values):
    """The published constrained expression for one of the twelve cases, its
    betas converted to Chebyshev series on T_0..T_degree.

    constraint_values must already be scaled to the x-domain (see
    DomainMap.scale_derivative_constraint).
    """
    constraints = _case_constraints(case_id, constraint_values)
    series = [np.polynomial.chebyshev.poly2cheb([poly.get(e, 0.0) for e in range(max(poly) + 1)])
              for poly in FIXED_CASES[case_id][1]]
    coeffs = np.zeros((max(map(len, series)), len(series)))
    for i, c in enumerate(series):
        coeffs[:len(c), i] = c
    return ConstrainedExpression(BetaSet(range(len(coeffs)), coeffs), constraints)


class RelativeEmbedding:
    """Periodic-style embedding: y(t1) = y(t2) and ydot(t1) = ydot(t2).

    y(t) = g(t) - beta_0(t) (g1 - g2) - beta_1(t) (gdot1 - gdot2) for any
    free function g, where g1 = g(t1) etc.; the betas come from `_beta_set`
    on the two relative rows over T_0, T_1, T_2.
    """

    def __init__(self, t1, t2):
        if t1 == t2:
            raise ValueError("relative constraint locations must differ")
        self.t1 = float(t1)
        self.t2 = float(t2)
        rows = [_rows(2, d, [self.t1, self.t2]) for d in (0, 1)]
        self.betas = _beta_set([r[:, 0] - r[:, 1] for r in rows])

    def eval_with(self, t, g_fn, dg_fn):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        gap = np.array([float(g_fn(self.t1)) - float(g_fn(self.t2)),
                        float(dg_fn(self.t1)) - float(dg_fn(self.t2))])
        return g_fn(t) - gap @ self.betas.eval(t, 0), dg_fn(t) - gap @ self.betas.eval(t, 1)


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
