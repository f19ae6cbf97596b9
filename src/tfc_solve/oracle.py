"""Independent reference machinery: RK4, shooting, and linear shooting.

These routines never touch the collocation path; they exist so that
least-squares solutions can be checked against something built from
entirely different numerics. The shooting oracles integrate their basis
solutions as the columns of one state and superpose them.
"""

import numpy as np

from .errors import NoSignChange, TfcSolveError


def rk4_integrate(fun, t0, y0, h, steps):
    """Classical fixed-step 4th-order Runge-Kutta.

    fun(t, y) -> dy/dt, for a vector or matrix y. Returns (ts, ys) with
    ys[i] the state at ts[i].
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    ts = t0 + h * np.arange(steps + 1)
    ys = np.empty((steps + 1,) + y.shape)
    ys[0] = y
    for i in range(steps):
        t = ts[i]
        k1 = np.asarray(fun(t, y))
        k2 = np.asarray(fun(t + h / 2.0, y + h / 2.0 * k1))
        k3 = np.asarray(fun(t + h / 2.0, y + h / 2.0 * k2))
        k4 = np.asarray(fun(t + h, y + h * k3))
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise TfcSolveError(f"non-finite state at step {i + 1}")
        ys[i + 1] = y
    return ts, ys


def ode_as_first_order(ode):
    """First-order system for a LinearODE2: state (y, ydot), rows of any shape."""

    def fun(t, state):
        y, yd = state
        f2 = float(ode.f2(t))
        return np.array([yd, (float(ode.f(t)) - float(ode.f1(t)) * yd
                              - float(ode.f0(t)) * y) / f2])

    return fun


def integrate_ivp(ode, y1, dy1, steps):
    """RK4 trajectory of a LinearODE2 from (y(t1), ydot(t1))."""
    h = (ode.t2 - ode.t1) / steps
    return rk4_integrate(ode_as_first_order(ode), ode.t1, [y1, dy1], h, steps)


def shoot_bvp(ode, y1, y2, bracket, steps=3000):
    """Find ydot(t1) so the RK4 endpoint hits y(t2) = y2, by linear shooting.

    One RK4 run carries the bracket's two slopes as columns. The ODE is
    linear, so the endpoint is affine in the slope: the columns' gaps give
    the root, and their affine combination at it the trajectory. Returns
    (slope, ts, ys). Raises NoSignChange when the bracket does not straddle
    the target (a hint the BVP may have no solution), or the slope does not
    move the endpoint.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    ts, cols = integrate_ivp(ode, [y1, y1], [lo, hi], steps)
    glo, ghi = cols[-1, 0] - y2
    if glo * ghi > 0.0 or glo == ghi:
        raise NoSignChange(
            f"gap({lo}) = {glo:.3e} and gap({hi}) = {ghi:.3e} have equal sign")
    slope = lo - glo * (hi - lo) / (ghi - glo)
    w = glo / (glo - ghi)
    return slope, ts, cols[..., 0] + w * (cols[..., 1] - cols[..., 0])


def shoot_state_costate(problem, steps=4000):
    """Linear shooting for the state/costate two-point problem.

    One RK4 run carries the columns Z(t) from (x0, 0), (0, e1) and (0, e2).
    The last two, at tf, map the initial costate l0 to the terminal one, so
    l0 solves that 2x2 map against lambda_f and the trajectory is
    Z(t) @ (1, l0). Returns (ts, states) with rows (x1, x2, l1, l2).
    """

    def fun(t, z):
        return np.block([[problem.A11(t), problem.A12(t)],
                         [problem.A21(t), problem.A22(t)]]) @ z

    z0 = np.eye(4, 3, -1)  # columns e2, e3, e4; the first becomes (x0, 0)
    z0[:2, 0] = problem.x0
    ts, zs = rk4_integrate(fun, problem.t0, z0, (problem.tf - problem.t0) / steps, steps)
    l0 = np.linalg.solve(zs[-1, 2:, 1:], problem.lambda_f - zs[-1, 2:, 0])
    return ts, zs @ np.r_[1.0, l0]
