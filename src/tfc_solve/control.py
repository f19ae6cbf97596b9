"""State/costate two-point problems solved by block collocation.

The coupled first-order system

    d/dt {x, lambda} = [[A11, A12], [A21, A22]] {x, lambda},
    x(t0) = x0,  lambda(tf) = lambda_f,

is solved with the constrained expressions

    x(t)      = x0       + [[h - h0]; [hdot - hdot0]] alpha
    lambda(t) = lambda_f + [[beta^T]; [gamma^T]] (h - hf)

where h is the Chebyshev basis in the mapped variable and the state is
structured as x = {x, xdot}. Both boundary conditions hold exactly for
any coefficients; the collocated dynamics residual is minimized by
least squares over (alpha, beta, gamma).
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chebyshev import _clip_to_interval, eval_basis_grid
from .mapping import DomainMap
from .solver import CollocationConfig, solve_ls

ZERO_COLUMN_TOL = 1e-12


@dataclass(frozen=True)
class StateCostateProblem:
    A11: Callable
    A12: Callable
    A21: Callable
    A22: Callable
    x0: Sequence
    lambda_f: Sequence
    t0: float
    tf: float


def _basis_in_t(dmap, m, t):
    """h, hdot, hddot rows (t-derivatives) at times t in [t0, tf]; (3, m+1, N)."""
    x = _clip_to_interval(dmap.to_x(np.atleast_1d(np.asarray(t, dtype=float))))
    grid = eval_basis_grid(m, 2, x)
    return np.stack([
        grid[0],
        dmap.dydx_to_dydt(grid[1]),
        dmap.d2ydx2_to_d2ydt2(grid[2]),
    ])


@dataclass
class StateCostateSolution:
    state: Callable
    costate: Callable
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    residual_mean: float
    residual_std: float
    cond_PtP: float
    rank_deficient: bool
    dropped_columns: tuple


def assemble_state_costate(problem, cfg):
    """Block system M (alpha, beta, gamma) = rhs over the collocation nodes.

    Rows per node: the two state equations then the two costate equations.
    Columns whose assembled entries vanish identically (the constant basis
    element, annihilated by the h - h0 and h - hf differences) are dropped
    and reported.
    """
    dmap = DomainMap(problem.t0, problem.tf)
    tnodes = dmap.to_t(dmap.nodes(cfg.N, cfg.nodes))
    m = cfg.m
    nb = m + 1
    h, hd, hdd = _basis_in_t(dmap, m, tnodes)
    h0 = _basis_in_t(dmap, m, [problem.t0])
    hf = _basis_in_t(dmap, m, [problem.tf])
    dh0 = h - h0[0]          # (m+1, N)
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
        Hx = np.vstack([dh0[:, j], dhd0[:, j]])        # 2 x (m+1)
        Gxd = np.vstack([hd[:, j], hdd[:, j]])
        Hl_b = np.vstack([dhf[:, j], np.zeros(nb)])    # beta feeds lambda row 0
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


def solve_state_costate(problem, cfg=None):
    """LS solve of the block system; boundary values exact by construction."""
    cfg = cfg or CollocationConfig(m=17, N=200)
    dmap = DomainMap(problem.t0, problem.tf)
    nb = cfg.m + 1
    M, rhs = assemble_state_costate(problem, cfg)

    norms = np.linalg.norm(M, axis=0)
    keep = norms > ZERO_COLUMN_TOL * max(norms.max(), 1.0)
    dropped = tuple(int(i) for i in np.nonzero(~keep)[0])

    ls_cfg = CollocationConfig(m=cfg.m, N=4 * cfg.N, scaling=cfg.scaling)
    sol = solve_ls(M[:, keep], rhs, ls_cfg)
    coeffs = np.zeros(3 * nb)
    coeffs[keep] = sol.xi
    alpha, beta, gamma = coeffs[:nb], coeffs[nb:2 * nb], coeffs[2 * nb:]

    h0 = _basis_in_t(dmap, cfg.m, [problem.t0])
    hf = _basis_in_t(dmap, cfg.m, [problem.tf])
    x0 = np.asarray(problem.x0, dtype=float)
    lf = np.asarray(problem.lambda_f, dtype=float)
    bg = np.vstack([beta, gamma])

    def state(t):
        h, hd, _ = _basis_in_t(dmap, cfg.m, t)
        return x0[:, None] + np.vstack([alpha @ (h - h0[0]), alpha @ (hd - h0[1])])

    def costate(t):
        h, _, _ = _basis_in_t(dmap, cfg.m, t)
        return lf[:, None] + bg @ (h - hf[0])

    return StateCostateSolution(
        state=state, costate=costate,
        alpha=alpha, beta=beta, gamma=gamma,
        residual_mean=sol.residual_mean, residual_std=sol.residual_std,
        cond_PtP=sol.cond_PtP, rank_deficient=sol.rank_deficient,
        dropped_columns=dropped,
    )


def alternative_embeddings(pattern):
    """Constrained-expression pairs for other boundary-condition patterns.

    "state_ic_pair": x(t0) = x0 and xdot(t0) = xdot0, costate free.
    "terminal_transversality": x(t0) = x0 and lambda(tf) = x(tf).

    Returns a builder taking the free functions and constants and giving
    (x(t), lambda(t)) callables that satisfy the constraints identically.
    """
    if pattern == "state_ic_pair":

        def build(g_x, dg_x, g_lam, t0, x0, xdot0):
            x0 = np.asarray(x0, dtype=float)
            xdot0 = np.asarray(xdot0, dtype=float)
            gx0 = np.asarray(g_x(t0), dtype=float)
            dgx0 = np.asarray(dg_x(t0), dtype=float)

            def x_fn(t):
                t = np.atleast_1d(np.asarray(t, dtype=float))
                return (np.asarray(g_x(t)) + (x0 - gx0)[:, None]
                        + np.outer(xdot0 - dgx0, t - t0))

            def lam_fn(t):
                return np.asarray(g_lam(np.atleast_1d(t)))

            return x_fn, lam_fn

        return build

    if pattern == "terminal_transversality":

        def build(g_x, g_lam, t0, tf, x0):
            x0 = np.asarray(x0, dtype=float)
            gx0 = np.asarray(g_x(t0), dtype=float)
            gxf = np.asarray(g_x(tf), dtype=float)
            glf = np.asarray(g_lam(tf), dtype=float)

            def x_fn(t):
                return np.asarray(g_x(np.atleast_1d(t))) + (x0 - gx0)[:, None]

            def lam_fn(t):
                return (np.asarray(g_lam(np.atleast_1d(t)))
                        + (gxf + x0 - gx0 - glf)[:, None])

            return x_fn, lam_fn

        return build

    raise ValueError(f"unknown embedding pattern {pattern!r}")
