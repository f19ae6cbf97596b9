import numpy as np
import pytest

from tfc_solve import (
    CollocationConfig,
    DomainError,
    StateCostateProblem,
    alternative_embeddings,
    shoot_state_costate,
    solve_state_costate,
)
from tfc_solve.control import assemble_state_costate

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
    prob = lqr_problem()
    cfg = CollocationConfig(m=10, N=80)
    sol = solve_state_costate(prob, cfg)
    nb = cfg.m + 1
    # T0 contributes nothing through the h - h0 / h - hf differences
    assert sol.dropped_columns == (0, nb, 2 * nb)

    M, _ = assemble_state_costate(prob, cfg)
    for j in sol.dropped_columns:
        assert np.max(np.abs(M[:, j])) <= 1e-14


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


def test_alternative_embedding_state_ic_pair():
    build = alternative_embeddings("state_ic_pair")
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=2)
    xdot0 = rng.normal(size=2)

    def g_x(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.sin(t), np.cos(2 * t)])

    def dg_x(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.cos(t), -2 * np.sin(2 * t)])

    def g_lam(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, t**2])

    x_fn, _ = build(g_x, dg_x, g_lam, 0.3, x0, xdot0)
    assert np.allclose(x_fn(0.3)[:, 0], x0, atol=1e-12)
    h = 1e-6
    fd = (x_fn(0.3 + h) - x_fn(0.3 - h))[:, 0] / (2 * h)
    assert np.allclose(fd, xdot0, atol=1e-7)


def test_alternative_embedding_terminal_transversality():
    build = alternative_embeddings("terminal_transversality")
    x0 = np.array([1.0, -2.0])

    def g_x(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.exp(-t), t**3])

    def g_lam(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.sin(t), np.ones_like(t)])

    x_fn, lam_fn = build(g_x, g_lam, 0.0, 2.0, x0)
    assert np.allclose(x_fn(0.0)[:, 0], x0, atol=1e-12)
    # transversality: lambda(tf) = x(tf)
    assert np.allclose(lam_fn(2.0)[:, 0], x_fn(2.0)[:, 0], atol=1e-12)


def test_unknown_embedding_pattern_rejected():
    with pytest.raises(ValueError):
        alternative_embeddings("free_final_time")


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
