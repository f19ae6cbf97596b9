import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tfc_solve import (
    CollocationConfig,
    DomainError,
    DomainMap,
    NodeSingularity,
    StateCostateProblem,
    eval_basis_grid,
    shoot_state_costate,
    solve_state_costate,
)
from tfc_solve.cli import load_problem
from tfc_solve.control import _basis_in_t, assemble_state_costate

I2 = np.eye(2)
Z2 = np.zeros((2, 2))


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


def test_constant_basis_columns_dropped():
    # T0 contributes nothing through h - h0, hdot, hddot or h - hf, so the
    # block system leaves its three columns out
    prob = lqr_problem()
    dmap = DomainMap(prob.t0, prob.tf)
    for nodes in ("uniform", "lobatto"):
        t = dmap.to_t(dmap.nodes(80, nodes))
        h, hd, hdd = _basis_in_t(dmap, 10, t)
        h0 = _basis_in_t(dmap, 10, [prob.t0])
        hf = _basis_in_t(dmap, 10, [prob.tf])
        for row in (h - h0[0], hd - h0[1], hd, hdd, h - hf[0]):
            assert np.all(row[0] == 0.0)
    M, _ = assemble_state_costate(prob, CollocationConfig(m=10, N=80))
    assert M.shape == (4 * 80, 3 * 10)


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
    _, rhs1 = assemble_state_costate(prob, cfg)
    prob2 = StateCostateProblem(
        A11=prob.A11, A12=prob.A12, A21=prob.A21, A22=prob.A22,
        x0=2.0 * np.asarray(prob.x0), lambda_f=2.0 * np.asarray(prob.lambda_f),
        t0=prob.t0, tf=prob.tf,
    )
    _, rhs2 = assemble_state_costate(prob2, cfg)
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
# The vectorised block assembly against the per-node loop it replaced.


def assemble_per_node(problem, cfg):
    """Reference: M and rhs built node by node, one A call per block."""
    dmap = DomainMap(problem.t0, problem.tf)
    tnodes = dmap.to_t(dmap.nodes(cfg.N, cfg.nodes))
    m = cfg.m
    nb = m + 1
    h, hd, hdd = _basis_in_t(dmap, m, tnodes)
    h0 = _basis_in_t(dmap, m, [problem.t0])
    hf = _basis_in_t(dmap, m, [problem.tf])
    dh0 = h - h0[0]
    dhd0 = hd - h0[1]
    dhf = h - hf[0]

    x0 = np.asarray(problem.x0, dtype=float)
    lf = np.asarray(problem.lambda_f, dtype=float)

    M = np.zeros((4 * cfg.N, 3 * nb))
    rhs = np.zeros(4 * cfg.N)
    for j, t in enumerate(tnodes):
        a11 = np.asarray(problem.A11(t), dtype=float)
        a12 = np.asarray(problem.A12(t), dtype=float)
        a21 = np.asarray(problem.A21(t), dtype=float)
        a22 = np.asarray(problem.A22(t), dtype=float)
        Hx = np.vstack([dh0[:, j], dhd0[:, j]])
        Gxd = np.vstack([hd[:, j], hdd[:, j]])
        Hl_b = np.vstack([dhf[:, j], np.zeros(nb)])
        Hl_g = np.vstack([np.zeros(nb), dhf[:, j]])
        Ld_b = np.vstack([hd[:, j], np.zeros(nb)])
        Ld_g = np.vstack([np.zeros(nb), hd[:, j]])

        r = 4 * j
        M[r:r + 2, 0:nb] = Gxd - a11 @ Hx
        M[r:r + 2, nb:2 * nb] = -a12 @ Hl_b
        M[r:r + 2, 2 * nb:] = -a12 @ Hl_g
        M[r + 2:r + 4, 0:nb] = -a21 @ Hx
        M[r + 2:r + 4, nb:2 * nb] = Ld_b - a22 @ Hl_b
        M[r + 2:r + 4, 2 * nb:] = Ld_g - a22 @ Hl_g
        rhs[r:r + 2] = a11 @ x0 + a12 @ lf
        rhs[r + 2:r + 4] = a21 @ x0 + a22 @ lf
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


A_KINDS = {
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
            M, rhs = assemble_state_costate(problem, cfg)
            M_ref, rhs_ref = assemble_per_node(problem, cfg)
            # the kernel's P @ xi rounds by memory order; control's
            # outputs are fixed for an F-ordered M
            assert M.flags.f_contiguous
            assert_bit_identical(M, np.delete(M_ref, [0, m + 1, 2 * (m + 1)], axis=1))
            assert_bit_identical(rhs, rhs_ref)


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
    assemble_state_costate(problem, cfg)
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
    M, rhs = assemble_state_costate(problem, cfg)
    assert calls == [1] + [0] * (probes + cfg.N)
    M_ref, rhs_ref = assemble_per_node(problem, cfg)
    assert_bit_identical(M, np.delete(M_ref, [0, cfg.m + 1, 2 * (cfg.m + 1)], axis=1))
    assert_bit_identical(rhs, rhs_ref)


def test_one_basis_evaluation_per_point_set(monkeypatch):
    import tfc_solve.control as control

    orders = []

    def grid(m_max, d_max, x):
        orders.append((d_max, np.size(x)))
        return eval_basis_grid(m_max, d_max, x)

    monkeypatch.setattr(control, "eval_basis_grid", grid)
    sol = solve_state_costate(lqr_problem(), CollocationConfig(m=10, N=50))
    # nodes with both ends, then both ends for the solution callables
    assert orders == [(2, 52), (1, 2)]
    orders.clear()
    sol.state(np.linspace(0.0, 2.0, 7))
    sol.costate(np.linspace(0.0, 2.0, 7))
    assert orders == [(1, 7), (0, 7)]


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
    for field in ("alpha", "beta", "gamma"):
        assert_bit_identical(getattr(unit, field), getattr(plain, field))
    assert unit.residual_std == plain.residual_std
    assert unit.cond_PtP == plain.cond_PtP


def test_node_weights_change_the_solution():
    problem = lqr_problem()
    weights = np.r_[np.ones(45), np.full(45, 1e6)]
    plain = solve_state_costate(problem, CollocationConfig(m=12, N=90))
    weighted = solve_state_costate(problem, CollocationConfig(m=12, N=90, weights=weights))
    coeffs = np.r_[plain.alpha, plain.beta, plain.gamma]
    changed = np.r_[weighted.alpha, weighted.beta, weighted.gamma]
    assert not np.array_equal(changed, coeffs)
    # the boundary values hold for any coefficients
    assert np.allclose(weighted.state(0.0)[:, 0], problem.x0, atol=1e-12)
    assert np.allclose(weighted.costate(2.0)[:, 0], problem.lambda_f, atol=1e-12)
