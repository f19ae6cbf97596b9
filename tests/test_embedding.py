import zlib

import numpy as np
import pytest

from tfc_solve import (
    ConstrainedExpression,
    ConstraintSpec,
    DomainMap,
    RelativeConstraintSpec,
    SingularConstraintSet,
    build_betas,
    build_relative_betas,
    fixed_case_expression,
)
from tfc_solve.embedding import FIXED_CASES, PIVOT_TOL, _monomial_deriv_row


def kronecker_matrix(betas, constraints):
    """Apply each constraint functional to each built beta."""
    n = len(constraints)
    out = np.zeros((n, n))
    for k, c in enumerate(constraints):
        out[k, :] = betas.eval(c.location, deriv=c.order)[:, 0]
    return out


class PolyG:
    """Polynomial free function with exact derivatives."""

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)

    def deriv(self, x, order=0):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for e, a in enumerate(self.c):
            if order > e:
                continue
            f = 1.0
            for i in range(order):
                f *= e - i
            out = out + a * f * x ** (e - order)
        return out

    def __call__(self, x):
        return self.deriv(x, 0)


class SinG:
    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def deriv(self, x, order=0):
        x = np.asarray(x, dtype=float)
        if order == 0:
            return self.a * np.sin(self.b * x + self.c)
        if order == 1:
            return self.a * self.b * np.cos(self.b * x + self.c)
        return -self.a * self.b**2 * np.sin(self.b * x + self.c)

    def __call__(self, x):
        return self.deriv(x, 0)


def eval_expr(expr, x, g):
    g_at = [g.deriv(c.location, c.order) for c in expr.constraints]
    return expr.eval(x, g.deriv(x, 0), g.deriv(x, 1), g.deriv(x, 2), g_at)


def random_g(rng):
    if rng.random() < 0.5:
        return PolyG(rng.normal(size=rng.integers(2, 7)))
    return SinG(rng.normal(), rng.uniform(0.5, 4.0), rng.uniform(0, 2 * np.pi))


# --- generic builder -------------------------------------------------------

def test_two_derivative_constraints_support():
    constraints = [ConstraintSpec(1, 0.0), ConstraintSpec(1, 1.0)]
    betas = build_betas(constraints)
    # constant monomial is useless for derivative constraints
    assert betas.monomial_support == (1, 2)
    km = kronecker_matrix(betas, constraints)
    assert np.allclose(km, np.eye(2), atol=1e-12)


def test_single_value_constraint_constant_beta():
    constraints = [ConstraintSpec(0, -1.0)]
    betas = build_betas(constraints)
    assert betas.monomial_support == (0,)
    assert betas.coefficients[0, 0] == pytest.approx(1.0)


def test_example2_constraints_kronecker():
    # d = {2, 0, 0, 1}, locations {-1, 0, 2, 2}
    constraints = [
        ConstraintSpec(2, -1.0),
        ConstraintSpec(0, 0.0),
        ConstraintSpec(0, 2.0),
        ConstraintSpec(1, 2.0),
    ]
    betas = build_betas(constraints)
    km = kronecker_matrix(betas, constraints)
    assert np.max(np.abs(km - np.eye(4))) <= 1e-10


def test_example2_published_betas_pass_same_check():
    # beta_1 = (-4 + 4t - t^2) t / 14        beta_2 = (28 - 24t + 3t^2 + t^3)/28
    # beta_3 = (24 - 3t - t^2) t / 28        beta_4 = (-10t + 3t^2 + t^3)/14
    polys = [
        np.polynomial.Polynomial([0, -4 / 14, 4 / 14, -1 / 14]),
        np.polynomial.Polynomial([1, -24 / 28, 3 / 28, 1 / 28]),
        np.polynomial.Polynomial([0, 24 / 28, -3 / 28, -1 / 28]),
        np.polynomial.Polynomial([0, -10 / 14, 3 / 14, 1 / 14]),
    ]
    functionals = [(2, -1.0), (0, 0.0), (0, 2.0), (1, 2.0)]
    km = np.array([[p.deriv(d)(t) for p in polys] for d, t in functionals])
    assert np.max(np.abs(km - np.eye(4))) <= 1e-12


def test_duplicate_constraints_rejected():
    with pytest.raises(SingularConstraintSet):
        build_betas([ConstraintSpec(1, 0.5), ConstraintSpec(1, 0.5)])


def test_random_constraint_sets_kronecker():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        locs = rng.uniform(-1, 1, n)
        while len(np.unique(np.round(locs, 6))) < n:
            locs = rng.uniform(-1, 1, n)
        constraints = [
            ConstraintSpec(int(rng.integers(0, 3)), float(x)) for x in locs
        ]
        betas = build_betas(constraints)
        km = kronecker_matrix(betas, constraints)
        assert np.max(np.abs(km - np.eye(n))) <= 1e-10


def test_example1_configuration():
    # function with both first derivatives fixed, at t = 0 and t = 1
    constraints = [ConstraintSpec(1, 0.0), ConstraintSpec(1, 1.0)]
    betas = build_betas(constraints)
    b1 = betas.eval(np.array([0.0, 1.0]), deriv=1)
    assert b1[0] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert b1[1] == pytest.approx([0.0, 1.0], abs=1e-12)


def _svd_support(constraints):
    """Reference support, by the SVD rank search `build_betas` ran before it
    eliminated: x^e joins while the constraint columns stay independent."""
    support, columns = [], []
    for e in range(len(constraints) + 5):
        col = np.array([_monomial_deriv_row([e], c.order, c.location)[0] for c in constraints])
        s = np.linalg.svd(np.column_stack(columns + [col]), compute_uv=False)
        if s[-1] > PIVOT_TOL * max(s[0], 1.0):
            support.append(e)
            columns.append(col)
        if len(support) == len(constraints):
            return tuple(support)
    return None


def test_elimination_keeps_the_svd_search_supports():
    rng = np.random.default_rng(7)
    sets = [[ConstraintSpec(2, -1.0), ConstraintSpec(0, 0.0),
             ConstraintSpec(0, 2.0), ConstraintSpec(1, 2.0)]]
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        locs = rng.uniform(-1, 1, n)
        while len(np.unique(np.round(locs, 6))) < n:
            locs = rng.uniform(-1, 1, n)
        sets.append([ConstraintSpec(int(rng.integers(0, 3)), float(x)) for x in locs])
    for constraints in sets:
        betas = build_betas(constraints)
        assert betas.monomial_support == _svd_support(constraints), constraints
        # 1e-10 of the size of the terms each Kronecker entry sums: close
        # points make coefficients of 1e6 whose evaluation alone rounds to
        # 1e-10, on any route to them
        rows = np.array([_monomial_deriv_row(betas.monomial_support, c.order, c.location)
                         for c in constraints])
        terms = np.abs(rows) @ np.abs(betas.coefficients)
        gap = np.abs(kronecker_matrix(betas, constraints) - np.eye(len(constraints)))
        assert np.all(gap <= 1e-10 * np.maximum(1.0, terms)), constraints


# --- relative constraints --------------------------------------------------

def test_relative_example3():
    emb = build_relative_betas([
        RelativeConstraintSpec(0, 0.0, 1.0),
        RelativeConstraintSpec(1, 0.0, 1.0),
    ])
    g = lambda t: np.asarray(t, dtype=float) ** 3
    dg = lambda t: 3.0 * np.asarray(t, dtype=float) ** 2
    y, yd = emb.eval_with(np.array([0.0, 1.0]), g, dg)
    assert abs(y[0] - y[1]) <= 1e-12
    assert abs(yd[0] - yd[1]) <= 1e-12


def test_relative_constant_g_passthrough():
    emb = build_relative_betas([
        RelativeConstraintSpec(0, -0.5, 2.0),
        RelativeConstraintSpec(1, -0.5, 2.0),
    ])
    g = lambda t: 3.7 + 0.0 * np.asarray(t, dtype=float)
    dg = lambda t: 0.0 * np.asarray(t, dtype=float)
    t = np.linspace(-0.5, 2.0, 7)
    y, _ = emb.eval_with(t, g, dg)
    assert np.allclose(y, 3.7, atol=1e-14)


def test_relative_random_intervals_sinusoid():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = sorted(rng.uniform(-3, 3, 2))
        if abs(b - a) < 0.1:
            continue
        emb = build_relative_betas([
            RelativeConstraintSpec(0, a, b),
            RelativeConstraintSpec(1, a, b),
        ])
        g = lambda t: np.sin(5.0 * np.asarray(t, dtype=float))
        dg = lambda t: 5.0 * np.cos(5.0 * np.asarray(t, dtype=float))
        y, yd = emb.eval_with(np.array([a, b]), g, dg)
        assert abs(y[0] - y[1]) <= 1e-10
        assert abs(yd[0] - yd[1]) <= 1e-10


def test_relative_bad_specs():
    with pytest.raises(ValueError):
        build_relative_betas([RelativeConstraintSpec(0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        build_relative_betas([
            RelativeConstraintSpec(0, 0.0, 1.0),
            RelativeConstraintSpec(2, 0.0, 1.0),
        ])


# --- fixed cases -----------------------------------------------------------

def test_bvp_y_y_zero_g():
    expr = fixed_case_expression("BVP_y_y", (1.0, 3.0))
    g = PolyG([0.0])
    x = np.linspace(-1, 1, 11)
    y, _, _ = eval_expr(expr, x, g)
    assert np.allclose(y, (1 - x) / 2 + 3 * (1 + x) / 2, atol=1e-14)


def test_ivp_y_dy_constant_solution():
    expr = fixed_case_expression("IVP_y_dy", (1.0, 0.0))
    g = PolyG([0.0])
    x = np.linspace(-1, 1, 11)
    y, _, _ = eval_expr(expr, x, g)
    assert np.allclose(y, 1.0, atol=1e-14)


def test_ivp_y_dy_embeds_raw_quadratic():
    # raw g(x) = x^2: the embedded y must hit y(-1) = 0 and y'(-1) = 0
    expr = fixed_case_expression("IVP_y_dy", (0.0, 0.0))
    g = PolyG([0.0, 0.0, 1.0])
    y, yp, _ = eval_expr(expr, np.array([-1.0]), g)
    assert abs(y[0]) <= 1e-14
    assert abs(yp[0]) <= 1e-14


def test_bvp_ddy_ddy_all_zero():
    expr = fixed_case_expression("BVP_ddy_ddy", (0.0, 0.0))
    g = PolyG([0.0])
    x = np.linspace(-1, 1, 11)
    y, _, _ = eval_expr(expr, x, g)
    assert np.allclose(y, 0.0, atol=1e-15)


def test_example1_first_derivative_constraint_with_exp():
    # first-derivative constraints at both ends, g = e^x
    constraints = [ConstraintSpec(1, -1.0, 0.25), ConstraintSpec(1, 1.0, -1.5)]
    expr = ConstrainedExpression(build_betas(constraints), constraints)

    class ExpG:
        def deriv(self, x, order=0):
            return np.exp(np.asarray(x, dtype=float))

    _, yp, _ = eval_expr(expr, np.array([-1.0, 1.0]), ExpG())
    assert yp[0] == pytest.approx(0.25, abs=1e-12)
    assert yp[1] == pytest.approx(-1.5, abs=1e-12)


def test_example2_expression_with_quintic_g():
    # all four constraints of the 4-constraint example hold for g(t) = t^5
    constraints = [
        ConstraintSpec(2, -1.0, 2.0),
        ConstraintSpec(0, 0.0, -1.0),
        ConstraintSpec(0, 2.0, 0.5),
        ConstraintSpec(1, 2.0, 4.0),
    ]
    expr = ConstrainedExpression(build_betas(constraints), constraints)
    g = PolyG([0, 0, 0, 0, 0, 1.0])
    for c in constraints:
        y = eval_expr(expr, np.array([c.location]), g)[c.order][0]
        assert y == pytest.approx(c.value, abs=1e-9)


@pytest.mark.parametrize("case_id", sorted(FIXED_CASES))
def test_universal_embedding_property(case_id):
    rng = np.random.default_rng(zlib.crc32(case_id.encode()))
    for _ in range(100):
        values = tuple(rng.normal(size=2))
        expr = fixed_case_expression(case_id, values)
        g = random_g(rng)
        for c, v in zip(expr.constraints, values):
            out = eval_expr(expr, np.array([c.location]), g)[c.order][0]
            assert abs(out - v) <= 1e-9, (case_id, c)


@pytest.mark.parametrize("case_id", sorted(FIXED_CASES))
def test_generic_matches_fixed(case_id):
    rng = np.random.default_rng(5)
    values = (0.7, -1.2)
    fixed = fixed_case_expression(case_id, values)
    constraints = [ConstraintSpec(o, loc, v)
                   for (o, loc), v in zip(FIXED_CASES[case_id][0], values)]
    generic = ConstrainedExpression(build_betas(constraints), constraints)
    x = np.linspace(-1, 1, 101)
    g = random_g(rng)
    yf = eval_expr(fixed, x, g)[0]
    yg = eval_expr(generic, x, g)[0]
    if fixed.betas.monomial_support == generic.betas.monomial_support:
        assert np.max(np.abs(yf - yg)) <= 1e-8
    for expr in (fixed, generic):
        for c, v in zip(expr.constraints, values):
            out = eval_expr(expr, np.array([c.location]), g)[c.order][0]
            assert abs(out - v) <= 1e-9


def test_affine_linearity_in_g():
    expr = fixed_case_expression("BVP_y_y", (0.0, 0.0))
    x = np.linspace(-1, 1, 41)
    g = PolyG([0.3, -1.0, 2.0, 0.5])
    g2 = PolyG(2.0 * g.c)
    y1 = eval_expr(expr, x, g)[0]
    y2 = eval_expr(expr, x, g2)[0]
    assert np.max(np.abs(y2 - 2.0 * y1)) <= 1e-12


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        fixed_case_expression("BVP_y_dddy", (0.0, 0.0))


# --- array evaluation against the per-point reference ----------------------

BUILT_CONSTRAINT_SETS = [
    ((0, -1.0), (1, 0.0), (0, 1.0)),
    ((2, -1.0), (0, 0.0), (0, 2.0), (1, 2.0)),
    ((0, -1.0), (1, -1.0), (2, -1.0), (0, 1.0), (1, 1.0)),
    ((0, -1.0), (1, -1.0), (2, -1.0), (0, 1.0), (1, 1.0), (2, 1.0)),
]


def beta_sets_under_test():
    sets = [fixed_case_expression(cid, (0.0, 0.0)).betas for cid in sorted(FIXED_CASES)]
    sets += [build_betas([ConstraintSpec(o, loc) for o, loc in spec])
             for spec in BUILT_CONSTRAINT_SETS]
    return sets


@pytest.mark.parametrize("N", [60, 1001, 4000, 10001])
@pytest.mark.parametrize("nodes", ["uniform", "lobatto"])
def test_beta_eval_matches_per_point_reference(nodes, N):
    # The array power x**e and the scalar xi**e may round differently by
    # one ulp, so agreement is to a few eps rather than bit for bit.
    x = DomainMap(-1.0, 1.0).nodes(N, nodes)
    reference_rows = {}
    for betas in beta_sets_under_test():
        for deriv in range(4):
            key = (betas.monomial_support, deriv)
            if key not in reference_rows:
                reference_rows[key] = np.stack(
                    [_monomial_deriv_row(betas.monomial_support, deriv, xi) for xi in x])
            ref = (reference_rows[key] @ betas.coefficients).T
            got = betas.eval(x, deriv)
            assert got.shape == ref.shape == (betas.n, N)
            tol = 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))
            assert np.all(np.abs(got - ref) <= tol), (betas.monomial_support, deriv)
