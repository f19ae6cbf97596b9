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
least squares over (alpha, beta, gamma) with the scalar solver's kernel,
`solver.solve_ls`. The constant basis element vanishes exactly from
h - h0, hdot, hddot and h - hf, so its three coefficients are zero and
the block system has columns for basis elements 1..m only.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chebyshev import _clip_to_interval, eval_basis_grid
from .errors import NodeSingularity
from .mapping import DomainMap
from .solver import CollocationConfig, solve_ls


@dataclass(frozen=True)
class StateCostateProblem:
    """d/dt {x, lambda} = [[A11, A12], [A21, A22]] {x, lambda} on [t0, tf].

    Each block is a callable of t. Called with an array of N times it may
    return the block at every time, shape (2, 2, N), or one constant (2, 2)
    matrix, which is used at every time when the calls at the first and the
    last time return the same bits. Otherwise (it raises TypeError or
    ValueError there, or returns another shape) it is called once per time
    and must return a (2, 2) matrix.
    """

    A11: Callable
    A12: Callable
    A21: Callable
    A22: Callable
    x0: Sequence
    lambda_f: Sequence
    t0: float
    tf: float


def _basis_in_t(dmap, m, t, d_max=2):
    """h, hdot, hddot rows (t-derivatives) at times t in [t0, tf] up to order
    d_max; (d_max + 1, m + 1, len(t))."""
    x = _clip_to_interval(dmap.to_x(np.atleast_1d(np.asarray(t, dtype=float))))
    grid = eval_basis_grid(m, d_max, x)
    if d_max >= 1:
        dmap.dydx_to_dydt(grid[1], out=grid[1])
    if d_max >= 2:
        dmap.d2ydx2_to_d2ydt2(grid[2], out=grid[2])
    return grid


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


def _bits(v):
    v = np.asarray(v, dtype=float)
    return v.shape, v.tobytes()


def _blocks_at(fn, name, tnodes):
    """One block of A at every node, as a finite (N, 2, 2) array.

    fn is called once with the whole node array and its value is used when
    it has shape (2, 2, N). A (2, 2) value, such as that of a constant
    `lambda t: a`, is broadcast to every node when fn at the first and at
    the last node returns the same bits. Otherwise (a TypeError or
    ValueError, any other shape, or a (2, 2) the end nodes disagree with)
    fn is called once per node, and each value must be (2, 2).
    """
    n = len(tnodes)
    try:
        a = np.asarray(fn(tnodes), dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is not None and a.shape == (2, 2, n):
        # contiguous like a per-node (2, 2), so each batched product below
        # runs the same matmul kernel the per-node form did
        a = np.ascontiguousarray(np.moveaxis(a, -1, 0))
    elif a is not None and a.shape == (2, 2) and all(
            _bits(fn(t)) == _bits(a) for t in tnodes[[0, -1]]):
        # every node sees one contiguous (2, 2), as the per-node stack holds
        a = np.broadcast_to(np.ascontiguousarray(a), (n, 2, 2))
    else:
        values = [fn(t) for t in tnodes]
        try:
            a = np.array(values, dtype=float)
        except ValueError as exc:  # values of different shapes, or not numbers
            raise ValueError(f"{name} must return a 2x2 matrix at each node: {exc}") from None
        if a.shape[1:] != (2, 2):
            raise ValueError(
                f"{name} must return a 2x2 matrix at each node, got shape {a.shape[1:]}")
    bad = ~np.isfinite(a)
    if bad.any():
        j, r, c = np.unravel_index(np.argmax(bad), bad.shape)
        raise NodeSingularity(f"{name}[{r}][{c}]", int(j), float(tnodes[j]))
    return a


def assemble_state_costate(problem, cfg):
    """Block system M (alpha, beta, gamma) = rhs over the collocation nodes.

    Rows per node: the two state equations then the two costate equations.
    Columns: basis elements 1..m of alpha, then of beta, then of gamma. M is
    Fortran-ordered, like the kernel's row-block buffer. No temporary of M's
    size is made: every product goes through one (N, 2, m) scratch.
    """
    dmap = DomainMap(problem.t0, problem.tf)
    tnodes = dmap.to_t(dmap.nodes(cfg.N, cfg.nodes))
    m = cfg.m
    # nodes, then t0 and tf, in one evaluation; each point's rows are its own
    basis = _basis_in_t(dmap, m, np.r_[tnodes, problem.t0, problem.tf])[:, 1:]
    h, hd, hdd = basis[:, :, :-2]
    h0, hf = basis[:, :, -2:-1], basis[:, :, -1:]
    A11, A12, A21, A22 = (_blocks_at(getattr(problem, name), name, tnodes)
                          for name in ("A11", "A12", "A21", "A22"))

    # Node-major stack Hx[j] = [h - h0; hdot - hdot0] at node j, (N, 2, m).
    Hx = np.subtract(basis[:2, :, :-2].transpose(2, 0, 1), h0[:2, :, 0], order="C")
    dhf = (h - hf[0]).T[:, None, :]          # (N, 1, m)
    hdT = hd.T

    # M4[j, row, block, k]: row 0-1 state, 2-3 costate; block alpha/beta/gamma.
    # It is a view of the C-ordered buf[block, k, j, row], whose (3m, 4N)
    # reshape is the transpose of M. Products go through the contiguous
    # scratch prod, so each batched one runs the kernel a new array gets.
    buf = np.empty((3, m, cfg.N, 4))
    M4 = buf.transpose(2, 3, 0, 1)
    prod = A11 @ Hx
    np.subtract(hdT, prod[:, 0], out=M4[:, 0, 0])
    np.subtract(hdd.T, prod[:, 1], out=M4[:, 1, 0])
    # (-A21) @ Hx: negating the product instead would turn +0.0 into -0.0
    M4[:, 2:, 0] = np.matmul(-A21, Hx, out=prod)
    # Beta (k = 0) feeds lambda row 0 and gamma (k = 1) row 1, so a @ [dhf; 0]
    # is a[:, 0] * dhf and a @ [0; dhf] is a[:, 1] * dhf. "0.0 -" and "+ 0.0"
    # keep its zeros +0.0, as the 2x2 matrix products of the per-node form did.
    for k in (0, 1):
        np.subtract(0.0, np.multiply(A12[:, :, k:k + 1], dhf, out=prod), out=M4[:, :2, 1 + k])
        a22_dhf = np.add(np.multiply(A22[:, :, k:k + 1], dhf, out=prod), 0.0, out=prod)
        np.subtract(0.0, a22_dhf, out=M4[:, 2:, 1 + k])
        np.subtract(hdT, a22_dhf[:, k], out=M4[:, 2 + k, 1 + k])

    x0 = np.asarray(problem.x0, dtype=float)
    lf = np.asarray(problem.lambda_f, dtype=float)
    rhs = np.concatenate([A11 @ x0 + A12 @ lf, A21 @ x0 + A22 @ lf], axis=1)
    return buf.reshape(3 * m, 4 * cfg.N).T, rhs.ravel()


def solve_state_costate(problem, cfg=None):
    """LS solve of the block system; boundary values exact by construction."""
    cfg = cfg or CollocationConfig(m=17, N=200)
    dmap = DomainMap(problem.t0, problem.tf)
    M, rhs = assemble_state_costate(problem, cfg)
    # each node's weight applies to its four rows
    weights = None if cfg.weights is None else np.repeat(cfg.weights, 4)
    sol = solve_ls(M, rhs, weights, cfg.scaling)
    alpha, beta, gamma = (np.r_[0.0, xi] for xi in sol.xi.reshape(3, cfg.m))

    ends = _basis_in_t(dmap, cfg.m, [problem.t0, problem.tf], 1)
    h0, hf = ends[:, :, :1], ends[:, :, 1:]
    x0 = np.asarray(problem.x0, dtype=float)
    lf = np.asarray(problem.lambda_f, dtype=float)
    bg = np.vstack([beta, gamma])

    def state(t):
        h, hd = _basis_in_t(dmap, cfg.m, t, 1)
        return x0[:, None] + np.vstack([alpha @ (h - h0[0]), alpha @ (hd - h0[1])])

    def costate(t):
        h, = _basis_in_t(dmap, cfg.m, t, 0)
        return lf[:, None] + bg @ (h - hf[0])

    return StateCostateSolution(
        state=state, costate=costate,
        alpha=alpha, beta=beta, gamma=gamma,
        residual_mean=sol.residual_mean, residual_std=sol.residual_std,
        cond_PtP=sol.cond_PtP, rank_deficient=sol.rank_deficient,
    )
