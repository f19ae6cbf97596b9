import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tfc_solve import (
    CollocationConfig,
    ConstraintSpec,
    DomainError,
    DomainMap,
    NodeSingularity,
    StateCostateProblem,
    eval_basis_grid,
    shoot_state_costate,
    solve_problem,
    solve_state_costate,
)
from tfc_solve.catalog import CATALOG
from tfc_solve.chebyshev import derivative_series
from tfc_solve.cli import load_problem, main
from tfc_solve.control import _block_system, _dynamics, _general_embedding, _system, _x_at
from tfc_solve.embedding import _eliminate
from tfc_solve.solver import _node_table, _solve

from kernel import solve_ls

I2 = np.eye(2)
Z2 = np.zeros((2, 2))


def _assembled(problem, cfg):
    """M, rhs and the coefficient map, M and rhs the views of the one
    [M | rhs] `control._system` builds."""
    system, coefficients = _system(DomainMap(problem.t0, problem.tf), problem, cfg)
    return system[:, :-1], system[:, -1], coefficients


def const(mat):
    return lambda t: mat


def lqr_problem():
    # double integrator with quadratic state/control costs: the coupled
    # system xdot = A11 x + A12 l, ldot = A21 x + A22 l
    return StateCostateProblem(
        A11=const(np.array([[0.0, 1.0], [0.0, 0.0]])),
        A12=const(np.array([[0.0, 0.0], [0.0, -1.0]])),
        A21=const(np.array([[-1.0, 0.0], [0.0, 0.0]])),
        A22=const(np.array([[0.0, 0.0], [-1.0, 0.0]])),
        x0=np.array([1.0, 0.0]),
        lambda_f=np.array([0.0, 0.0]),
        t0=0.0,
        tf=2.0,
    )


def test_zero_dynamics_constant_solution():
    prob = StateCostateProblem(
        A11=const(Z2), A12=const(Z2), A21=const(Z2), A22=const(Z2),
        x0=np.array([0.7, -0.2]), lambda_f=np.array([1.5, 0.3]),
        t0=0.0, tf=1.0,
    )
    sol = solve_state_costate(prob, CollocationConfig(m=8, N=60))
    t = np.linspace(0, 1, 21)
    assert np.max(np.abs(sol.state(t) - prob.x0[:, None])) <= 1e-12
    assert np.max(np.abs(sol.costate(t) - prob.lambda_f[:, None])) <= 1e-12


def test_boundary_conditions_exact_for_any_coefficients():
    # the embedding satisfies x(t0) = x0 and lambda(tf) = lambda_f even
    # with random dynamics and a coarse basis
    rng = np.random.default_rng(6)
    mats = [rng.normal(size=(2, 2)) for _ in range(4)]
    prob = StateCostateProblem(
        A11=const(mats[0]), A12=const(mats[1]),
        A21=const(mats[2]), A22=const(mats[3]),
        x0=rng.normal(size=2), lambda_f=rng.normal(size=2),
        t0=0.0, tf=1.0,
    )
    sol = solve_state_costate(prob, CollocationConfig(m=6, N=40))
    assert np.max(np.abs(sol.state(0.0)[:, 0] - prob.x0)) <= 1e-11
    assert np.max(np.abs(sol.costate(1.0)[:, 0] - prob.lambda_f)) <= 1e-11


def diagonal_problem():
    # not companion form: x1' = -x1 - l1 does not make x2 = x1'
    return StateCostateProblem(
        A11=const(np.diag([-1.0, -2.0])), A12=const(-I2),
        A21=const(-I2), A22=const(np.diag([1.0, 2.0])),
        x0=np.array([1.0, 0.5]), lambda_f=np.array([0.0, 0.0]),
        t0=0.0, tf=2.0,
    )


def test_constant_basis_columns_dropped():
    # every block's pivot columns are eliminated: T_0 and T_1 of x1 with
    # x2 = x1' in companion form, and T_0 of each other component
    for problem, shape in ((lqr_problem(), (3 * 80, 3 * 10 - 1)),
                           (diagonal_problem(), (4 * 80, 4 * 10))):
        for nodes in ("uniform", "lobatto"):
            M, rhs, _ = _assembled(problem, CollocationConfig(m=10, N=80, nodes=nodes))
            assert M.shape == shape
            assert rhs.shape == shape[:1]


def test_lqr_matches_shooting_oracle():
    prob = lqr_problem()
    sol = solve_state_costate(prob, CollocationConfig(m=20, N=200))
    ts, zs = shoot_state_costate(prob, steps=4000)
    sample = np.linspace(0.0, 2.0, 101)
    z_ref = np.array([np.interp(sample, ts, zs[:, k]) for k in range(4)])
    x = sol.state(sample)
    lam = sol.costate(sample)
    assert np.max(np.abs(x - z_ref[:2])) <= 1e-6
    assert np.max(np.abs(lam - z_ref[2:])) <= 1e-6
    assert sol.residual_std <= 1e-9


def test_decoupled_channels_match_exponentials():
    # companion-form A11 gives xddot = x, so x1 = (3/2) e^t + (1/2) e^{-t}
    # from x(0) = 2, xdot(0) = 1; the two costate channels decay and grow
    # independently toward their terminal values.
    prob = StateCostateProblem(
        A11=const(np.array([[0.0, 1.0], [1.0, 0.0]])), A12=const(Z2),
        A21=const(Z2), A22=const(np.diag([-1.0, 1.0])),
        x0=np.array([2.0, 1.0]), lambda_f=np.array([1.0, 4.0]),
        t0=0.0, tf=1.0,
    )
    sol = solve_state_costate(prob, CollocationConfig(m=16, N=150))
    t = np.linspace(0, 1, 31)
    x1_ref = 1.5 * np.exp(t) + 0.5 * np.exp(-t)
    x2_ref = 1.5 * np.exp(t) - 0.5 * np.exp(-t)
    assert np.max(np.abs(sol.state(t)[0] - x1_ref)) <= 1e-9
    assert np.max(np.abs(sol.state(t)[1] - x2_ref)) <= 1e-9
    assert np.max(np.abs(sol.costate(t)[0] - np.exp(1.0 - t))) <= 1e-9
    assert np.max(np.abs(sol.costate(t)[1] - 4.0 * np.exp(t - 1.0))) <= 1e-9


def test_time_varying_dynamics_against_oracle():
    prob = StateCostateProblem(
        A11=lambda t: np.array([[0.0, 1.0], [-np.sin(t), 0.0]]),
        A12=lambda t: np.array([[0.0, 0.0], [0.0, -1.0 - 0.2 * t]]),
        A21=lambda t: np.array([[-np.cos(t), 0.0], [0.0, 0.0]]),
        A22=lambda t: np.array([[0.0, 0.0], [-1.0, 0.0]]),
        x0=np.array([0.5, -0.3]), lambda_f=np.array([0.1, 0.2]),
        t0=0.0, tf=1.5,
    )
    sol = solve_state_costate(prob, CollocationConfig(m=20, N=200))
    ts, zs = shoot_state_costate(prob, steps=3000)
    sample = np.linspace(0.0, 1.5, 61)
    z_ref = np.array([np.interp(sample, ts, zs[:, k]) for k in range(4)])
    assert np.max(np.abs(sol.state(sample) - z_ref[:2])) <= 1e-6
    assert np.max(np.abs(sol.costate(sample) - z_ref[2:])) <= 1e-6


def test_rhs_affine_in_boundary_data():
    # rhs is linear in (x0, lambda_f): doubling both doubles the rhs
    prob = lqr_problem()
    cfg = CollocationConfig(m=6, N=30)
    rhs1 = _assembled(prob, cfg)[1]
    prob2 = StateCostateProblem(
        A11=prob.A11, A12=prob.A12, A21=prob.A21, A22=prob.A22,
        x0=2.0 * np.asarray(prob.x0), lambda_f=2.0 * np.asarray(prob.lambda_f),
        t0=prob.t0, tf=prob.tf,
    )
    rhs2 = _assembled(prob2, cfg)[1]
    assert np.max(np.abs(rhs2 - 2.0 * rhs1)) <= 1e-13


def test_solution_outside_interval_raises():
    problem = lqr_problem()
    sol = solve_state_costate(problem, CollocationConfig(m=17, N=200))
    for fn in (sol.state, sol.costate):
        with pytest.raises(DomainError):
            fn(2.0 + 1e-6)
        with pytest.raises(DomainError):
            fn(np.array([0.0, -1e-6]))
    # the boundary values still hold exactly at the interval ends
    assert np.allclose(sol.state(0.0)[:, 0], problem.x0, atol=1e-12)
    assert np.allclose(sol.costate(2.0)[:, 0], problem.lambda_f, atol=1e-12)


# ---------------------------------------------------------------------------
# The in-place block assembly against an allocating per-node form.


def coefficient_map(elim, m):
    """Q, (m + 1) x (len(K) + 1): Q (xi, 1) is the series c_K = xi, c_S =
    a - W xi, so Q^T T is (phi, p) with phi = T_K - T_S^T W and p = T_S^T a."""
    S, K, W, a = elim
    Q = np.zeros((m + 1, len(K) + 1))
    Q[K, np.arange(len(K))] = 1.0
    Q[S, :-1] = -W
    Q[S, -1] = a
    return Q


def per_node_setup(problem, cfg):
    """The nodes x, A at each of their times from one call per block and
    node, and the embedding: in companion form x1 carries x1(t0) and x1'(t0)
    and feeds x2 = x1', and the rows are x2' = x1'' and the two costate
    equations; otherwise each component has its own series, fixed at its
    end, and all four equations are rows. Each costate component is fixed
    at tf. A block is (constraints, feeds), a feed (c, d) making z_c the
    series' d-th t-derivative."""
    dmap = DomainMap(problem.t0, problem.tf)
    x = dmap.nodes(cfg.N, cfg.nodes)
    x0 = [float(v) for v in problem.x0]
    lf = [float(v) for v in problem.lambda_f]
    a = [np.block([[problem.A11(t), problem.A12(t)], [problem.A21(t), problem.A22(t)]])
         for t in dmap.to_t(x)]
    if all(np.array_equal(aj[0], [0.0, 1.0, 0.0, 0.0]) for aj in a):
        x1 = (ConstraintSpec(0, -1.0, x0[0]), ConstraintSpec(1, -1.0, x0[1] * dmap.delta_t / 2.0))
        blocks = [(x1, [(0, 0), (1, 1)])]
        rows = [1, 2, 3]
    else:
        blocks = [((ConstraintSpec(0, -1.0, x0[i]),), [(i, 0)]) for i in (0, 1)]
        rows = [0, 1, 2, 3]
    blocks += [((ConstraintSpec(0, 1.0, lf[i]),), [(2 + i, 0)]) for i in (0, 1)]
    return dmap, x, a, blocks, rows


def assemble_per_node(problem, cfg):
    """Reference: M and rhs on the scalar solver's route, node by node.

    At node j, equation r puts -A[r, c] g_d on T^(d) for each feed (c, d) of
    a block, and g_(d + 1) on T^(d + 1) where c = r, with g_d the map's
    factor 2^d / dt^d on a d-th derivative (`DomainMap.derivative_factor`,
    which (2 / dt)^d does not round alike at every dt). L, the
    weighted sum from 0.0, highest derivative first, over the table of T_k,
    T_k', T_k'' at the nodes, gives the block's columns L T_K - W^T (L T_S)
    and takes a^T (L T_S) off rhs_r, which starts at 0.0. The W^T and a^T
    products are made over every node at once, as the assembly makes them,
    since a product's rounding depends on its shape. Rows are
    equation-major.
    """
    dmap, x, a, blocks, rows = per_node_setup(problem, cfg)
    m, n = cfg.m, cfg.N
    grid = eval_basis_grid(m, 2, x)
    g = dmap.derivative_factor
    elims = [_eliminate(cs, m) for cs, _ in blocks]
    cols = sum(len(K) for _, K, _, _ in elims)
    M = np.zeros((len(rows) * n, cols))
    rhs = np.zeros(len(rows) * n)
    for i, r in enumerate(rows):
        col = 0
        for (_, feeds), (S, K, W, av) in zip(blocks, elims):
            L = np.empty((m + 1, n))
            for j in range(n):
                terms = [(d, -a[j][r, c] * g(d)) for c, d in feeds]
                terms += [(d + 1, g(d + 1)) for c, d in feeds if c == r]
                top = max(d for d, _ in terms)
                w = [0.0] * (top + 1)
                for d, v in terms:
                    w[top - d] += v
                total = 0.0
                for d in range(top, -1, -1):
                    total = total + w[top - d] * grid[d, :, j]
                L[:, j] = total
            LS = np.ascontiguousarray(L[S])
            M[i * n:(i + 1) * n, col:col + len(K)] = (L[K] - W.T @ LS).T
            rhs[i * n:(i + 1) * n] -= av @ LS
            col += len(K)
    return M, rhs


def basis_products_from_values(dmap, Q, x):
    """(phi, p) of a block and their first two t-derivatives over the nodes:
    the series s^d D^d Q, s = 2 / dt, of each order d summed against the
    value table T_0..T_m, one product per order."""
    T = eval_basis_grid(len(Q) - 1, 0, x)[0]
    DQ = [Q, derivative_series(Q)]
    DQ.append(derivative_series(DQ[1]))
    s = 2.0 / dmap.delta_t
    return np.stack([(q * s ** d).T @ T for d, q in enumerate(DQ)])


def basis_products_from_grid(dmap, Q, x):
    """The same from the t-scaled derivative grid: Q^T times T_k, 2/dt T_k'
    and 4/dt^2 T_k'' at the nodes."""
    grid = eval_basis_grid(len(Q) - 1, 2, x)
    dmap.to_t_derivative(1, grid[1], out=grid[1])
    dmap.to_t_derivative(2, grid[2], out=grid[2])
    return Q.T @ grid


def assemble_by_products(problem, cfg, products):
    """M and rhs from each block's (phi, p) and their t-derivatives at the
    nodes: an entry is the sum of -A[r, c] z_c over the block's feeds, c
    ascending, plus z_r' where the block feeds row r, and rhs_r is
    -z_r' + sum_c A[r, c] z_c of the particular parts; rows are
    equation-major."""
    dmap, x, a, blocks, rows = per_node_setup(problem, cfg)
    F = [products(dmap, coefficient_map(_eliminate(cs, cfg.m), cfg.m), x) for cs, _ in blocks]
    cols = sum(len(f[0]) - 1 for f in F)
    M = np.zeros((len(rows) * cfg.N, cols))
    rhs = np.zeros(len(rows) * cfg.N)
    for j in range(cfg.N):
        z, dz = np.zeros(4), np.zeros(4)
        for (_, feeds), f in zip(blocks, F):
            for c, d in feeds:
                z[c], dz[c] = f[d, -1, j], f[d + 1, -1, j]
        for i, r in enumerate(rows):
            col = 0
            for (_, feeds), f in zip(blocks, F):
                w = len(f[0]) - 1
                entry = None
                for c, d in feeds:
                    term = -a[j][r, c] * f[d, :w, j]
                    entry = term if entry is None else entry + term
                for c, d in feeds:
                    if c == r:
                        entry = entry + f[d + 1, :w, j]
                M[i * cfg.N + j, col:col + w] = entry
                col += w
            value = -dz[r]
            for c in range(4):
                value = value + a[j][r, c] * z[c]
            rhs[i * cfg.N + j] = value
    return M, rhs


def assert_bit_identical(a, b):
    # stricter than array_equal: the sign of every zero must match too
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def stiffness(t):
    return 1.0 + 0.5 * np.sin(2.0 * t)


def scalar_only_problem():
    # math.sin rejects an array with TypeError; the ragged np.array of the
    # others rejects it with ValueError
    return StateCostateProblem(
        A11=lambda t: np.array([[0.0, 1.0], [-(1.0 + 0.5 * math.sin(2.0 * t)), 0.0]]),
        A12=lambda t: np.array([[0.0, 0.0], [0.0, -1.0 - 0.2 * t]]),
        A21=lambda t: np.array([[-np.cos(t), 0.0], [0.0, -0.5]]),
        A22=lambda t: np.array([[0.0, stiffness(t)], [-1.0, 0.0]]),
        x0=[0.6, -0.8], lambda_f=[0.0, 0.0], t0=0.0, tf=2.0,
    )


def array_problem():
    def z(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    return StateCostateProblem(
        A11=lambda t: np.array([[z(t), z(t) + 1.0], [-stiffness(t), z(t)]]),
        A12=lambda t: np.array([[z(t), z(t)], [z(t), -1.0 - 0.2 * t]]),
        A21=lambda t: np.array([[-np.cos(t), z(t)], [z(t), z(t) - 0.5]]),
        A22=lambda t: np.array([[z(t), stiffness(t)], [z(t) - 1.0, z(t)]]),
        x0=[0.6, -0.8], lambda_f=[0.0, 0.0], t0=0.0, tf=2.0,
    )


def parsed_problem(tmp_path):
    k = "(1 + 0.5*sin(2*t))"
    doc = {
        "schema_version": 1, "kind": "control", "interval": [0.0, 2.0],
        "A11": [["0", "1"], ["-" + k, "0"]],
        "A12": [["0", "0"], ["0", "-1 - 0.2*t"]],
        "A21": [["-cos(t)", "0"], ["0", "-0.5"]],
        "A22": [["0", k], ["-1", "0"]],
        "x0": [0.6, -0.8], "lambda_f": [0.0, 0.0],
    }
    path = tmp_path / "control.json"
    path.write_text(json.dumps(doc))
    return load_problem(str(path)).control


def general_problem():
    # scalar_only_problem with x1' = -0.3 x1 + x2: not companion form
    p = scalar_only_problem()
    return replace(p, A11=lambda t: np.array([[-0.3, 1.0], [-stiffness(t), 0.0]]))


A_KINDS = {
    "general": lambda tmp_path: general_problem(),
    "scalar_numpy": lambda tmp_path: scalar_only_problem(),
    "constant": lambda tmp_path: lqr_problem(),
    "array_numpy": lambda tmp_path: array_problem(),
    "parsed": parsed_problem,
}


@pytest.mark.parametrize("nodes", ["uniform", "lobatto"])
@pytest.mark.parametrize("kind", sorted(A_KINDS))
def test_assembly_bit_identical_to_per_node_loop(tmp_path, kind, nodes):
    problem = A_KINDS[kind](tmp_path)
    for m in (2, 17, 25):
        for n in (m + 1, 200, 1001):
            cfg = CollocationConfig(m=m, N=n, nodes=nodes)
            M, rhs, _ = _assembled(problem, cfg)
            M_ref, rhs_ref = assemble_per_node(problem, cfg)
            # parsed, per-node numpy, array and constant companion-form A
            # all get the 3N x (3m - 1) system
            assert M.shape == ((4 * n, 4 * m) if kind == "general" else (3 * n, 3 * m - 1))
            # the kernel's P @ xi rounds by memory order; control's
            # outputs are fixed for an F-ordered M
            assert M.flags.f_contiguous
            assert_bit_identical(M, M_ref)
            assert_bit_identical(rhs, rhs_ref)
    # on [0, 2] the t-derivative factor 2^d / dt^d is 1; on [0, 1.5] and
    # [0, pi] it weights T' and T''. At dt = pi, (2 / dt)^2 and 4 / dt^2 round
    # apart, so only the factor the assembly uses gives its bits
    cfg = CollocationConfig(m=17, N=200, nodes=nodes)
    for tf in (1.5, np.pi):
        problem = replace(problem, tf=tf)
        M, rhs, _ = _assembled(problem, cfg)
        M_ref, rhs_ref = assemble_per_node(problem, cfg)
        assert_bit_identical(M, M_ref)
        assert_bit_identical(rhs, rhs_ref)


@pytest.mark.parametrize("nodes", ["uniform", "lobatto"])
@pytest.mark.parametrize("kind", ["general", "scalar_numpy"])
def test_value_table_agrees_with_the_derivative_grid(kind, nodes):
    # the assembly on the kept table of T_k, T_k', T_k'' against the two
    # routes the block assembly took before it: the derivatives as series
    # summed against the values T_k, and the t-scaled derivative grid, both
    # at the same nodes x. Within 2 m eps of each column's maximum (the
    # series route measured at most 0.84 m eps against the grid, at m = 30
    # and N = 1001 on Lobatto nodes). Two kinds of A run here: the general
    # path and a time-varying companion form
    problem = A_KINDS[kind](None)
    for m in (2, 17, 25, 30):
        for n in (m + 1, 1001):
            cfg = CollocationConfig(m=m, N=n, nodes=nodes)
            got = np.column_stack(_assembled(problem, cfg)[:2])
            for products in (basis_products_from_values, basis_products_from_grid):
                ref = np.column_stack(assemble_by_products(problem, cfg, products))
                scale = np.max(np.abs(ref), axis=0)
                err = np.max(np.abs(got - ref), axis=0)
                assert np.all(err <= 2.0 * m * np.finfo(float).eps * scale), (m, n, products)


def test_parsed_matrices_evaluate_over_an_array(tmp_path):
    problem = parsed_problem(tmp_path)
    t = np.linspace(0.0, 2.0, 7)
    a = problem.A11(t)
    assert a.shape == (2, 2, 7)
    assert problem.A11(0.5).shape == (2, 2)
    for j in range(7):
        assert np.array_equal(a[:, :, j], problem.A11(t[j]))


def counted(fn, calls):
    def wrapper(t):
        calls.append(np.ndim(t))
        return fn(t)

    return wrapper


@pytest.mark.parametrize("kind", ["array_numpy", "constant", "scalar_numpy"])
def test_block_calls_per_assembly(kind):
    problem = A_KINDS[kind](None)
    calls = {name: [] for name in ("A11", "A12", "A21", "A22")}
    problem = replace(problem, **{name: counted(getattr(problem, name), c)
                                  for name, c in calls.items()})
    cfg = CollocationConfig(m=10, N=50)
    _assembled(problem, cfg)
    for c in calls.values():
        if kind == "array_numpy":
            assert c == [1]
        elif kind == "constant":
            # the (2, 2) of the array call, checked at the first and last node
            assert c == [1, 0, 0]
        else:
            assert c == [1] + [0] * cfg.N


# A (2, 2) from the array call that the end nodes disagree with: np.max(t)
# differs at the first node, np.min(t) only at the last.
@pytest.mark.parametrize("reduce, probes", [(np.max, 1), (np.min, 2)])
def test_constant_looking_block_falls_back_to_per_node(reduce, probes):
    def a22(t):
        return np.array([[0.0, 1.0 + 0.5 * np.sin(reduce(t))], [-1.0, 0.0]])

    calls = []
    problem = replace(scalar_only_problem(), A22=counted(a22, calls))
    cfg = CollocationConfig(m=10, N=50)
    M, rhs, _ = _assembled(problem, cfg)
    assert calls == [1] + [0] * (probes + cfg.N)
    M_ref, rhs_ref = assemble_per_node(problem, cfg)
    assert_bit_identical(M, M_ref)
    assert_bit_identical(rhs, rhs_ref)


def test_one_basis_evaluation_per_point_set(monkeypatch):
    import tfc_solve.control as control
    import tfc_solve.solver as solver

    orders, series = [], []

    def grid(m_max, d_max, x):
        orders.append((d_max, np.size(x)))
        return eval_basis_grid(m_max, d_max, x)

    def spy(c):
        series.append(np.shape(c))
        return derivative_series(c)

    monkeypatch.setattr(solver, "eval_basis_grid", grid)
    monkeypatch.setattr(solver, "_node_tables", {})
    monkeypatch.setattr(control, "derivative_series", spy)
    cfg = CollocationConfig(m=10, N=50)
    solve_state_costate(lqr_problem(), cfg)
    # the first call builds the node table the scalar solver keeps
    assert orders == [(2, 50)]
    for problem in (lqr_problem(), diagonal_problem()):
        orders.clear()
        series.clear()
        M = _assembled(problem, cfg)[0]
        # a warm call reads the kept table: no basis table, and no
        # derivative series, builds its system
        assert orders == [] and series == []
        sol = solve_state_costate(problem, cfg)
        sol.state(np.linspace(0.0, 2.0, 7))
        sol.costate(np.linspace(0.0, 2.0, 7))
        # plain series, summed by Clenshaw's recurrence: x2's is the
        # derivative of x1's in companion form
        assert orders == []
        assert series == ([(cfg.m + 1,)] if M.shape[0] == 3 * cfg.N else [])


@pytest.mark.parametrize("problem", [lqr_problem, diagonal_problem])
def test_block_system_and_rhs_share_one_fortran_buffer(problem):
    # companion form (3N rows) and the general path (4N rows)
    M, rhs, _ = _assembled(problem(), CollocationConfig(m=10, N=50))
    rows, n = M.shape
    assert rows in (150, 200) and rhs.shape == (rows,)
    assert M.flags.f_contiguous and rhs.flags.c_contiguous
    assert rhs.base is M.base is not None
    assert rhs.ctypes.data == M.ctypes.data + n * rows * M.itemsize


def test_callable_raising_type_error_propagates():
    def broken(t):
        raise TypeError("not a matrix function")

    problem = replace(lqr_problem(), A22=broken)
    with pytest.raises(TypeError, match="not a matrix function"):
        solve_state_costate(problem, CollocationConfig(m=8, N=40))


def singular_a11_array(t):
    t = np.asarray(t, dtype=float)
    z = np.zeros_like(t)
    return np.array([[z, z + 1.0], [-1.0 / (t - 1.0), z]])


def singular_a11_scalar(t):
    return np.array([[0.0, 1.0], [-1.0 / (t - 1.0), 0.0]])


@pytest.mark.parametrize("a11", [singular_a11_array, singular_a11_scalar])
def test_non_finite_block_is_node_singularity(a11):
    # t = 1 is node 100 of the 201-point uniform grid on [0, 2]
    problem = replace(lqr_problem(), A11=a11)
    with np.errstate(divide="ignore"), pytest.raises(NodeSingularity) as info:
        solve_state_costate(problem, CollocationConfig(m=10, N=201))
    assert info.value.name == "A11[1][0]"
    assert info.value.node_index == 100
    assert info.value.t == 1.0


@pytest.mark.parametrize("value, shape", [
    (np.array([1.0, 2.0]), "(2,)"),
    (0.5, "()"),
    (np.eye(3), "(3, 3)"),
])
def test_wrong_shaped_block_is_rejected(value, shape):
    problem = replace(lqr_problem(), A21=lambda t: value)
    with pytest.raises(ValueError, match=r"A21 .*got shape " + re.escape(shape)):
        solve_state_costate(problem, CollocationConfig(m=8, N=40))


@pytest.mark.parametrize("field", ["x0", "lambda_f"])
def test_boundary_values_must_be_two_vectors(field):
    problem = replace(lqr_problem(), **{field: [1.0, 0.0, 0.0]})
    with pytest.raises(ValueError, match="x0 and lambda_f must each hold 2 values"):
        solve_state_costate(problem, CollocationConfig(m=8, N=40))


def test_block_of_varying_shape_is_rejected():
    def a21(t):
        return np.eye(2) if t < 1.0 else np.eye(3)

    problem = replace(lqr_problem(), A21=a21)
    with pytest.raises(ValueError, match=r"^A21 must return a 2x2 matrix at each node: "):
        solve_state_costate(problem, CollocationConfig(m=8, N=40))


def test_unit_weights_match_no_weights_bit_for_bit():
    problem = lqr_problem()
    plain = solve_state_costate(problem, CollocationConfig(m=12, N=90))
    unit = solve_state_costate(problem, CollocationConfig(m=12, N=90, weights=np.ones(90)))
    assert_bit_identical(unit.coefficients, plain.coefficients)
    assert unit.residual_std == plain.residual_std
    assert unit.cond_PtP == plain.cond_PtP


def test_node_weights_change_the_solution():
    problem = lqr_problem()
    weights = np.r_[np.ones(45), np.full(45, 1e6)]
    plain = solve_state_costate(problem, CollocationConfig(m=12, N=90))
    weighted = solve_state_costate(problem, CollocationConfig(m=12, N=90, weights=weights))
    assert not np.array_equal(weighted.coefficients, plain.coefficients)
    # the boundary values hold for any coefficients
    assert np.allclose(weighted.state(0.0)[:, 0], problem.x0, atol=1e-12)
    assert np.allclose(weighted.costate(2.0)[:, 0], problem.lambda_f, atol=1e-12)


def test_node_weights_apply_to_every_equation_row():
    # row i N + j is equation i at node j, and takes node j's weight
    problem = lqr_problem()
    weights = np.linspace(1.0, 5.0, 60)
    cfg = CollocationConfig(m=9, N=60)
    sol = solve_state_costate(problem, replace(cfg, weights=weights))
    M, rhs = assemble_per_node(problem, cfg)
    row_weights = np.array([weights[r % 60] for r in range(len(rhs))])
    coefficients = _assembled(problem, cfg)[2]
    assert_bit_identical(sol.coefficients, coefficients(solve_ls(M, rhs, row_weights).xi))


# ---------------------------------------------------------------------------
# Which system runs: companion form read off A at the nodes, and the general
# system for any other A.


def oracle_error(sol, problem, steps=2000):
    ts, zs = shoot_state_costate(problem, steps=steps)
    return np.max(np.abs(np.vstack([sol.state(ts), sol.costate(ts)]) - zs.T))


def test_non_companion_dynamics_match_shooting_oracle(tmp_path):
    # x2 = x1' does not hold here, so each component gets its own series
    problem = diagonal_problem()
    cfg = CollocationConfig(m=17, N=1000)
    assert _assembled(problem, cfg)[0].shape == (4 * 1000, 4 * 17)
    sol = solve_state_costate(problem, cfg)
    assert oracle_error(sol, problem) <= 1e-12

    doc = {
        "schema_version": 1, "kind": "control", "interval": [0.0, 2.0],
        "A11": [["-1", "0"], ["0", "-2"]], "A12": [["-1", "0"], ["0", "-1"]],
        "A21": [["-1", "0"], ["0", "-1"]], "A22": [["1", "0"], ["0", "2"]],
        "x0": [1.0, 0.5], "lambda_f": [0.0, 0.0], "solver": {"m": 17, "N": 1000},
    }
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(doc))
    assert main(["control", str(path), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "solution.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in line.split(",")] for line in lines])
    # the csv times t_i = 2 i / 999 are every other node of a 1998-step oracle
    ts, zs = shoot_state_costate(problem, steps=1998)
    assert np.max(np.abs(data[:, 0] - ts[::2])) <= 1e-15
    assert np.max(np.abs(data[:, 1:] - zs[::2])) <= 1e-12


@pytest.mark.parametrize("block, entry, value", [
    ("A11", (0, 1), np.nextafter(1.0, 2.0)),
    ("A12", (0, 1), 1e-300),
])
def test_one_ulp_from_companion_form_takes_the_general_path(block, entry, value):
    # the LQR problem, with one entry of row 0 off companion form at node N // 2
    cfg = CollocationConfig(m=17, N=1000)
    dmap = DomainMap(0.0, 2.0)
    t_mid = dmap.to_t(dmap.nodes(cfg.N))[cfg.N // 2]
    base = getattr(lqr_problem(), block)(0.0)

    def a(t):
        out = base.copy()
        if t == t_mid:
            out[entry] = value
        return out

    problem = replace(lqr_problem(), **{block: a})
    M, _, _ = _assembled(problem, cfg)
    assert M.shape == (4 * cfg.N, 4 * cfg.m)
    assert oracle_error(solve_state_costate(problem, cfg), lqr_problem()) <= 1e-12


def lqr_family(seed):
    """x'' = -k(t) x + u with cost q1 x^2 + q2 x'^2 + r u^2, k = k0 + k1 sin 2t:
    the state/costate benchmark's problem family, with its parameter ranges."""
    rng = np.random.default_rng(seed)
    q1, q2, r, k0, k1 = rng.uniform([0.5, 0.5, 0.5, 0.8, 0.4], [2.0, 2.0, 2.0, 1.2, 0.6])
    phi = rng.uniform(0.0, 2.0 * np.pi)
    k = lambda t: k0 + k1 * np.sin(2.0 * t)  # noqa: E731
    return StateCostateProblem(
        A11=lambda t: np.array([[0.0, 1.0], [-k(t), 0.0]]),
        A12=const(np.array([[0.0, 0.0], [0.0, -1.0 / r]])),
        A21=const(np.array([[-q1, 0.0], [0.0, -q2]])),
        A22=lambda t: np.array([[0.0, k(t)], [-1.0, 0.0]]),
        x0=[np.cos(phi), np.sin(phi)], lambda_f=[0.0, 0.0], t0=0.0, tf=2.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_general_path_agrees_with_companion_path_on_lqr_family(seed):
    # at m = 24 both series have converged; at m = 17 each is 2e-11 to 6e-11
    # off the shooting oracle, and the two differ by up to 4.9e-11
    problem = lqr_family(seed)
    cfg = CollocationConfig(m=24, N=1000)
    dmap = DomainMap(problem.t0, problem.tf)
    x, grid = _node_table(dmap, cfg.N, cfg.nodes, cfg.m)
    system, coefficients = _block_system(
        dmap, grid, _dynamics(problem, dmap.to_t(x)),
        *_general_embedding(dmap, problem.x0, problem.lambda_f))
    assert system.shape == (4 * cfg.N, 4 * cfg.m + 1)
    assert _assembled(problem, cfg)[0].shape == (3 * cfg.N, 3 * cfg.m - 1)
    general = coefficients(_solve(system, None, "column_norm").xi)
    sol = solve_state_costate(problem, cfg)
    t = np.linspace(0.0, 2.0, 1001)
    h = eval_basis_grid(cfg.m, 0, _x_at(dmap, t))[0]
    assert np.max(np.abs(general @ h - np.vstack([sol.state(t), sol.costate(t)]))) <= 1e-12


@pytest.mark.parametrize("nodes", ["uniform", "lobatto"])
def test_kept_table_does_not_depend_on_call_order(monkeypatch, nodes):
    # a scalar solve at m = 30 grows the (N, node kind) table a control
    # solve at m = 17 built, or builds it first; either way both read the
    # bits of their own m
    import tfc_solve.solver as solver

    entry = CATALOG["eq19"]
    control_cfg = CollocationConfig(m=17, N=200, nodes=nodes)
    scalar_cfg = CollocationConfig(m=30, N=200, nodes=nodes)

    def control():
        return solve_state_costate(scalar_only_problem(), control_cfg).coefficients

    def scalar():
        return solve_problem(entry.ode(), entry.constraint_triples(), scalar_cfg).xi

    monkeypatch.setattr(solver, "_node_tables", {})
    first = control()
    xi = scalar()
    assert_bit_identical(control(), first)
    monkeypatch.setattr(solver, "_node_tables", {})
    assert_bit_identical(scalar(), xi)
    assert_bit_identical(control(), first)
    assert_bit_identical(scalar(), xi)
