from dataclasses import replace

import numpy as np
import pytest

from tfc_solve import (
    LinearODE2,
    NoSignChange,
    integrate_ivp,
    oracle,
    rk4_integrate,
    shoot_bvp,
    shoot_state_costate,
)
from tfc_solve.catalog import CATALOG
from tfc_solve.control import StateCostateProblem
from tfc_solve.errors import TfcSolveError
from tfc_solve.oracle import ode_as_first_order


def test_rk4_constant_derivative_exact():
    ts, ys = rk4_integrate(lambda t, y: np.array([2.0]), 0.0, [1.0], 0.1, 10)
    assert ts[-1] == pytest.approx(1.0)
    assert np.allclose(ys[:, 0], 1.0 + 2.0 * ts, atol=1e-14)


def test_rk4_exponential():
    _, ys = rk4_integrate(lambda t, y: y, 0.0, [1.0], 1e-3, 1000)
    assert ys[-1, 0] == pytest.approx(np.e, rel=1e-12)


def test_rk4_fourth_order_convergence():
    # halving h should shrink the error by about 2^4 = 16
    def err(steps):
        _, ys = rk4_integrate(lambda t, y: y, 0.0, [1.0], 1.0 / steps, steps)
        return abs(ys[-1, 0] - np.e)

    factor = err(50) / err(100)
    assert 14.0 < factor < 18.0


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_integrate(lambda t, y: y, 0.0, [1.0], -0.1, 10)


def test_rk4_aborts_on_blowup():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TfcSolveError):
        rk4_integrate(lambda t, y: y**3, 0.0, [10.0], 0.5, 50)


def test_integrate_ivp_matches_analytic():
    entry = CATALOG["eq19"]
    ts, ys = integrate_ivp(entry.ode(), 1.0, 0.0, 3000)
    y_ref = entry.analytic(ts)[0]
    assert np.max(np.abs(ys[:, 0] - y_ref)) <= 1e-9


def test_shoot_bvp_straight_line():
    ode = LinearODE2(
        f2=lambda t: 1.0,
        f1=lambda t: 0.0,
        f0=lambda t: 0.0,
        f=lambda t: 0.0,
        t1=0.0,
        t2=1.0,
    )
    slope, ts, ys = shoot_bvp(ode, 0.0, 1.0, (-5.0, 5.0), steps=200)
    assert slope == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(ys[:, 0], ts, atol=1e-10)


def test_shoot_bvp_catalog_boundary_problem():
    # y'' + 2y' + y = 0, y(0) = 1, y(1) = 3: the exact initial slope is
    # 3e - 2 (from y = e^{-t} + (3e - 1) t e^{-t}).
    entry = CATALOG["eq26"]
    slope, ts, ys = shoot_bvp(entry.ode(), 1.0, 3.0, entry.shoot_bracket,
                              steps=1000)
    assert slope == pytest.approx(3.0 * np.e - 2.0, abs=1e-7)
    assert ys[-1, 0] == pytest.approx(3.0, abs=1e-9)
    assert np.max(np.abs(ys[:, 0] - entry.analytic(ts)[0])) <= 1e-8


def test_shoot_bvp_reports_missing_sign_change():
    # y'' - 6y' + 25y = 0 with y(0) = y(pi) = 1.2 has no solution; either
    # the bracket shows no sign change or the "hit" misses badly.
    ode = CATALOG["eq27"].ode()
    try:
        _, _, ys = shoot_bvp(ode, 1.2, 1.2, (-50.0, 50.0), steps=2000)
    except NoSignChange:
        return
    assert abs(ys[-1, 0] - 1.2) > 1e-3


def test_shoot_state_costate_decoupled_exponentials():
    # A = diag blocks with A11 = I, A22 = -I and no coupling: each channel
    # integrates independently to known exponentials.
    I = np.eye(2)
    Z = np.zeros((2, 2))
    prob = StateCostateProblem(
        A11=lambda t: I, A12=lambda t: Z, A21=lambda t: Z, A22=lambda t: -I,
        x0=np.array([1.0, 2.0]), lambda_f=np.array([3.0, 0.5]),
        t0=0.0, tf=1.0,
    )
    ts, zs = shoot_state_costate(prob, steps=2000)
    assert np.max(np.abs(zs[:, 0] - np.exp(ts))) <= 1e-10
    assert np.max(np.abs(zs[:, 1] - 2.0 * np.exp(ts))) <= 1e-10
    # costate: ldot = -l with l(tf) = lf => l(t) = lf e^{tf - t}
    assert np.max(np.abs(zs[:, 2] - 3.0 * np.exp(1.0 - ts))) <= 1e-9
    assert zs[0, 3] == pytest.approx(0.5 * np.e, rel=1e-10)


def test_shoot_state_costate_boundary_conditions():
    rng = np.random.default_rng(8)
    mats = {k: rng.normal(size=(2, 2)) for k in ("a11", "a12", "a21", "a22")}
    prob = StateCostateProblem(
        A11=lambda t: mats["a11"], A12=lambda t: mats["a12"],
        A21=lambda t: mats["a21"], A22=lambda t: mats["a22"],
        x0=np.array([0.4, -1.1]), lambda_f=np.array([0.2, 0.9]),
        t0=0.0, tf=1.5,
    )
    ts, zs = shoot_state_costate(prob, steps=3000)
    assert np.allclose(zs[0, :2], prob.x0, atol=1e-12)
    assert np.allclose(zs[-1, 2:], prob.lambda_f, atol=1e-9)


# ---------------------------------------------------------------------------
# The shooting oracles integrate their basis solutions as the columns of one
# RK4 state. These references are the separate runs they replaced: a vector
# RK4 loop, three runs for shoot_bvp and four for shoot_state_costate.


def reference_rk4(fun, t0, y0, h, steps):
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    ts = t0 + h * np.arange(steps + 1)
    ys = np.empty((steps + 1, y.size))
    ys[0] = y
    for i in range(steps):
        t = ts[i]
        k1 = np.asarray(fun(t, y))
        k2 = np.asarray(fun(t + h / 2.0, y + h / 2.0 * k1))
        k3 = np.asarray(fun(t + h / 2.0, y + h / 2.0 * k2))
        k4 = np.asarray(fun(t + h, y + h * k3))
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i + 1] = y
    return ts, ys


def reference_ivp(ode, y1, dy1, steps):
    h = (ode.t2 - ode.t1) / steps
    return reference_rk4(ode_as_first_order(ode), ode.t1, [y1, dy1], h, steps)


def reference_shoot_bvp(ode, y1, y2, bracket, steps):
    lo, hi = float(bracket[0]), float(bracket[1])
    glo, ghi = (reference_ivp(ode, y1, s, steps)[1][-1, 0] - y2 for s in (lo, hi))
    slope = lo - glo * (hi - lo) / (ghi - glo)
    ts, ys = reference_ivp(ode, y1, slope, steps)
    return slope, ts, ys


def reference_shoot_state_costate(problem, steps):
    def fun(t, z):
        a = np.block([[problem.A11(t), problem.A12(t)],
                      [problem.A21(t), problem.A22(t)]])
        return a @ z

    h = (problem.tf - problem.t0) / steps

    def terminal_costate(l0):
        z0 = np.concatenate([problem.x0, l0])
        _, zs = reference_rk4(fun, problem.t0, z0, h, steps)
        return zs[-1, 2:], zs

    base, _ = terminal_costate(np.zeros(2))
    A = np.column_stack([terminal_costate(e)[0] - base for e in np.eye(2)])
    l0 = np.linalg.solve(A, np.asarray(problem.lambda_f, dtype=float) - base)
    return terminal_costate(l0)[1]


def constant_problem(a11, a12, a21, a22, x0, lambda_f, tf):
    blocks = [np.asarray(a, dtype=float) for a in (a11, a12, a21, a22)]
    return StateCostateProblem(*(lambda t, a=a: a for a in blocks),
                               x0=np.array(x0), lambda_f=np.array(lambda_f), t0=0.0, tf=tf)


def lqr_family(seed):
    # x'' = -k(t) x + u with seeded weights and stiffness k = k0 + k1 sin 2t
    rng = np.random.default_rng(seed)
    q1, q2, r, k0, k1 = rng.uniform([0.5, 0.5, 0.5, 0.8, 0.4], [2.0, 2.0, 2.0, 1.2, 0.6])
    phi = rng.uniform(0.0, 2.0 * np.pi)
    k = lambda t: k0 + k1 * np.sin(2.0 * t)  # noqa: E731
    return StateCostateProblem(
        A11=lambda t: np.array([[0.0, 1.0], [-k(t), 0.0]]),
        A12=lambda t: np.array([[0.0, 0.0], [0.0, -1.0 / r]]),
        A21=lambda t: np.array([[-q1, 0.0], [0.0, -q2]]),
        A22=lambda t: np.array([[0.0, k(t)], [-1.0, 0.0]]),
        x0=np.array([np.cos(phi), np.sin(phi)]), lambda_f=np.zeros(2), t0=0.0, tf=2.0,
    )


def forced_ode():
    # sec42's coefficients as plain callables, on [0, 1]
    return LinearODE2(
        f2=lambda t: 1.0 + 2.0 * t,
        f1=lambda t: np.cos(t * t) - 3.0 * t + 1.0,
        f0=lambda t: 6.0 * np.sin(t * t) - np.exp(np.cos(3.0 * t)),
        f=lambda t: 2.0 * (1.0 - np.sin(3.0 * t)) * (3.0 * t - np.pi) / (4.0 - t),
        t1=0.0, t2=1.0,
    )


def state_costate_problems():
    rng = np.random.default_rng(8)
    mats = [rng.normal(size=(2, 2)) for _ in range(4)]
    yield "decoupled", constant_problem(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                                        -np.eye(2), [1.0, 2.0], [3.0, 0.5], 1.0)
    yield "random-constant", constant_problem(*mats, [0.4, -1.1], [0.2, 0.9], 1.5)
    yield "lqr", constant_problem([[0, 1], [0, 0]], [[0, 0], [0, -1]], [[-1, 0], [0, 0]],
                                  [[0, 0], [-1, 0]], [1.0, 0.0], [0.0, 0.0], 2.0)
    yield "diagonal", constant_problem(np.diag([-1.0, -2.0]), -np.eye(2), -np.eye(2),
                                       np.diag([1.0, 2.0]), [1.0, 0.5], [0.0, 0.0], 2.0)
    yield "time-varying", StateCostateProblem(
        A11=lambda t: np.array([[0.0, 1.0], [-np.sin(t), 0.0]]),
        A12=lambda t: np.array([[0.0, 0.0], [0.0, -1.0 - 0.2 * t]]),
        A21=lambda t: np.array([[-np.cos(t), 0.0], [0.0, 0.0]]),
        A22=lambda t: np.array([[0.0, 0.0], [-1.0, 0.0]]),
        x0=np.array([0.5, -0.3]), lambda_f=np.array([0.1, 0.2]), t0=0.0, tf=1.5,
    )
    for seed in (1, 2, 3):
        yield f"lqr-family-{seed}", lqr_family(seed)


@pytest.mark.parametrize("problem", [pytest.param(p, id=name)
                                     for name, p in state_costate_problems()])
def test_shoot_state_costate_matches_separate_runs(problem):
    ts, zs = shoot_state_costate(problem, steps=300)
    ref = reference_shoot_state_costate(problem, steps=300)
    assert np.array_equal(ts, problem.t0 + (problem.tf - problem.t0) / 300 * np.arange(301))
    assert zs.shape == ref.shape == (301, 4)
    assert np.max(np.abs(zs - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("ode, y1, y2, bracket", [
    (CATALOG["eq26"].ode(), 1.0, 3.0, CATALOG["eq26"].shoot_bracket),
    (forced_ode(), 2.0, 2.0, (-100.0, 100.0)),
], ids=["eq26", "forced"])
def test_shoot_bvp_slope_is_the_separate_runs_bits(ode, y1, y2, bracket):
    slope, ts, ys = shoot_bvp(ode, y1, y2, bracket, steps=300)
    ref_slope, ref_ts, ref_ys = reference_shoot_bvp(ode, y1, y2, bracket, steps=300)
    assert slope == ref_slope
    assert np.array_equal(ts, ref_ts)
    assert ys.shape == ref_ys.shape == (301, 2)
    assert np.max(np.abs(ys - ref_ys)) <= 1e-12 * np.max(np.abs(ref_ys))


def test_each_oracle_integrates_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(np.shape(args[2]))
        return rk4_integrate(*args)

    monkeypatch.setattr(oracle, "rk4_integrate", counted)
    entry = CATALOG["eq26"]
    shoot_bvp(entry.ode(), 1.0, 3.0, entry.shoot_bracket, steps=50)
    assert calls == [(2, 2)]

    a11 = []
    problem = lqr_family(1)
    problem = replace(problem, A11=lambda t, a=problem.A11: a11.append(t) or a(t))
    calls.clear()
    shoot_state_costate(problem, steps=50)
    assert calls == [(4, 3)]
    assert len(a11) == 4 * 50


def test_rk4_vector_state_is_the_reference_bits():
    ode = forced_ode()
    for y0 in ([2.0, 0.3], [-1.0, 7.5]):
        ts, ys = integrate_ivp(ode, *y0, 300)
        ref_ts, ref_ys = reference_ivp(ode, *y0, 300)
        assert np.array_equal(ts, ref_ts) and np.array_equal(ys, ref_ys)
    _, ys = rk4_integrate(lambda t, y: np.cos(t) * y, 0.5, 1.25, 0.01, 100)
    assert ys.shape == (101, 1)
    assert np.array_equal(ys, reference_rk4(lambda t, y: np.cos(t) * y, 0.5, 1.25, 0.01, 100)[1])


def test_rk4_matrix_state_columns_are_their_own_runs():
    ode = forced_ode()
    ts, ys = integrate_ivp(ode, [2.0, -1.0], [0.3, 7.5], 300)
    assert ys.shape == (301, 2, 2)
    for j, (y1, dy1) in enumerate(((2.0, 0.3), (-1.0, 7.5))):
        assert np.array_equal(ys[:, :, j], integrate_ivp(ode, y1, dy1, 300)[1])
