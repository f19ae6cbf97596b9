"""Independent reference machinery: RK4, shooting, and linear shooting.

These routines never touch the collocation path; they exist so that
least-squares solutions can be checked against something built from
entirely different numerics.
"""

import numpy as np

from .errors import NoSignChange, TfcSolveError


def rk4_integrate(fun, t0, y0, h, steps):
    """Classical fixed-step 4th-order Runge-Kutta.

    fun(t, y) -> dy/dt. Returns (ts, ys) with ys[i] the state at ts[i].
    """
    if h <= 0:
        raise ValueError("step size must be positive")
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
        if not np.all(np.isfinite(y)):
            raise TfcSolveError(f"non-finite state at step {i + 1}")
        ys[i + 1] = y
    return ts, ys


def ode_as_first_order(ode):
    """First-order system for a LinearODE2: state (y, ydot)."""

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

    The ODE is linear, so the RK4 endpoint is affine in the slope: its gaps
    at the two ends of the bracket give the root, and one more propagation
    gives the trajectory. Returns (slope, ts, ys). Raises NoSignChange when
    the bracket does not straddle the target (a hint the BVP may have no
    solution), or the slope does not move the endpoint.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    glo, ghi = (integrate_ivp(ode, y1, s, steps)[1][-1, 0] - y2 for s in (lo, hi))
    if glo * ghi > 0.0 or glo == ghi:
        raise NoSignChange(
            f"gap({lo}) = {glo:.3e} and gap({hi}) = {ghi:.3e} have equal sign")
    slope = lo - glo * (hi - lo) / (ghi - glo)
    ts, ys = integrate_ivp(ode, y1, slope, steps)
    return slope, ts, ys


def shoot_state_costate(problem, steps=4000):
    """Linear shooting for the state/costate two-point problem.

    The terminal costate is affine in the unknown initial costate, so the
    2x2 linear map is identified from basis propagations and inverted;
    returns (ts, states) with rows (x1, x2, l1, l2).
    """

    def fun(t, z):
        a = np.block([[problem.A11(t), problem.A12(t)],
                      [problem.A21(t), problem.A22(t)]])
        return a @ z

    h = (problem.tf - problem.t0) / steps
    x0 = np.asarray(problem.x0, dtype=float)

    def terminal_costate(l0):
        z0 = np.concatenate([x0, l0])
        _, zs = rk4_integrate(fun, problem.t0, z0, h, steps)
        return zs[-1, 2:], zs

    base, _ = terminal_costate(np.zeros(2))
    cols = []
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        out, _ = terminal_costate(e)
        cols.append(out - base)
    A = np.column_stack(cols)
    l0 = np.linalg.solve(A, np.asarray(problem.lambda_f, dtype=float) - base)
    _, zs = terminal_costate(l0)
    ts = problem.t0 + h * np.arange(steps + 1)
    return ts, zs
