"""State/costate two-point problems solved by block collocation.

The coupled first-order system for z = (x1, x2, lambda1, lambda2),

    d/dt {x, lambda} = [[A11, A12], [A21, A22]] {x, lambda} = A z,
    x(t0) = x0,  lambda(tf) = lambda_f,

is solved with the scalar solver's embedding (`embedding._eliminate`): a
component's boundary values are constraint rows over T_0..T_m, and its
series is c_K = xi, c_S = a - W xi (`embedding._coefficient_map`), so the
boundary values hold for any xi.
The collocated dynamics residual is minimized by least squares over the xi
of every block with the scalar solver's kernel, `solver.solve_ls`. Which
embedding is used is read off A at the nodes:

- companion form (A11 row 0 is (0, 1) and A12 row 0 is (0, 0) at every
  node, exactly): x1 carries both x0[0] and x0[1] (pivots S = {0, 1} at
  t0) and x2 = x1', so the first state equation holds identically. The
  system has the x1'' row and the two costate rows per node, and m - 1 + 2m
  columns: 3N x (3m - 1).
- any other A: each component carries its own boundary value (S = {0} at
  its end), and all four equations are collocated: 4N x 4m.

Each costate component carries its terminal value (S = {0} at x = +1) in
both. The solution is one Chebyshev series per component of z.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chebyshev import _clip_to_interval, derivative_series, eval_basis_grid
from .embedding import ConstraintSpec, _coefficient_map, _eliminate
from .errors import NodeSingularity
from .mapping import DomainMap
from .solver import CollocationConfig, solve_ls


@dataclass(frozen=True)
class StateCostateProblem:
    """d/dt {x, lambda} = [[A11, A12], [A21, A22]] {x, lambda} on [t0, tf].

    Any A is supported. When A11's row 0 is exactly (0, 1) and A12's row 0
    exactly (0, 0) at every node (-0.0 counts as 0), x2 = x1' and the
    smaller companion-form system is solved; otherwise every component gets
    its own series and all four equations are collocated.

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
    """state(t) is (x1, x2) and costate(t) is (lambda1, lambda2), (2, len(t)).

    coefficients[i] holds the Chebyshev coefficients c_0..c_m, in the mapped
    variable x, of x1, x2, lambda1 and lambda2 for i = 0..3. The residual
    statistics and cond_PtP are those of the system solved: 3N rows for
    companion-form A, 4N otherwise.
    """

    state: Callable
    costate: Callable
    coefficients: np.ndarray
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
        a = np.moveaxis(a, -1, 0)
    elif a is not None and a.shape == (2, 2) and all(
            _bits(fn(t)) == _bits(a) for t in tnodes[[0, -1]]):
        a = np.broadcast_to(a, (n, 2, 2))
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


def _dynamics(problem, tnodes):
    """A at every node, (4, 4, N), from one `_blocks_at` per block; each
    entry's values over the nodes are contiguous."""
    A = np.empty((4, 4, len(tnodes)))
    for name, r, c in (("A11", 0, 0), ("A12", 0, 2), ("A21", 2, 0), ("A22", 2, 2)):
        A[r:r + 2, c:c + 2] = np.moveaxis(_blocks_at(getattr(problem, name), name, tnodes), 0, -1)
    return A


def _is_companion(A):
    """x1' = x2 exactly at every node: row 0 of A is (0, 1, 0, 0)."""
    return bool(np.all(A[0] == np.array([0.0, 1.0, 0.0, 0.0])[:, None]))


def _costate_blocks(lf):
    """lambda1 and lambda2, each fixed at tf."""
    return [((ConstraintSpec(0, 1.0, lf[i]),), ((2 + i, 0),)) for i in (0, 1)]


def _companion_embedding(dmap, x0, lf):
    """x1 with x1(t0) = x0[0] and x1'(t0) = x0[1], and x2 = x1'; rows 1..3.

    A block is (constraints, feeds): x-domain constraint rows and values
    for one series, and the (component, derivative order) pairs of z it
    gives."""
    x1 = (ConstraintSpec(0, -1.0, x0[0]),
          ConstraintSpec(1, -1.0, dmap.scale_derivative_constraint(1, x0[1])))
    return [(x1, ((0, 0), (1, 1)))] + _costate_blocks(lf), (1, 2, 3)


def _general_embedding(dmap, x0, lf):
    """One series per component of z, each with its own boundary value; rows
    0..3."""
    state = [((ConstraintSpec(0, -1.0, x0[i]),), ((i, 0),)) for i in (0, 1)]
    return state + _costate_blocks(lf), (0, 1, 2, 3)


def _block_system(dmap, tnodes, A, m, blocks, rows):
    """M xi = rhs: z_r' - (A z)_r = 0 for r in rows at every node.

    A block's series is phi xi + p; each of its feeds (c, d) makes z_c that
    series' d-th t-derivative. Rows are equation-major: equation rows[i] at
    node j is row i N + j. Columns are the blocks' xi in order. M is
    Fortran-ordered, like the kernel's row-block buffer, and filled in
    place: an entry is sum_c (-A[r, c]) z_c over the block's feeds, c
    ascending, plus z_r' where the block feeds r. Also returns the map from
    a solution xi to the (4, m + 1) coefficients of z.
    """
    n = len(tnodes)
    G = _basis_in_t(dmap, m, tnodes, 1 + max(d for _, f in blocks for _, d in f))
    Qs = [_coefficient_map(_eliminate(constraints, m), m) for constraints, _ in blocks]
    widths = [Q.shape[1] - 1 for Q in Qs]
    negA = -A
    buf = np.empty((sum(widths), len(rows), n))
    scratch = np.empty((max(widths), n))
    z = np.empty((4, n))    # particular part of z, and of z'
    dz = np.empty((4, n))
    col = 0
    for (_, feeds), Q, w in zip(blocks, Qs, widths):
        F = np.matmul(Q.T, G[:2 + max(d for _, d in feeds)])
        phi, p = F[:, :w], F[:, w]
        for i, r in enumerate(rows):
            o = buf[col:col + w, i]
            for j, (c, d) in enumerate(feeds):
                if j:
                    o += np.multiply(negA[r, c], phi[d], out=scratch[:w])
                else:
                    np.multiply(negA[r, c], phi[d], out=o)
            for c, d in feeds:
                if c == r:
                    o += phi[d + 1]
        for c, d in feeds:
            z[c], dz[c] = p[d], p[d + 1]
        col += w
    rows = list(rows)
    rhs = -dz[rows]
    for c in range(4):
        rhs += A[rows, c] * z[c]

    def coefficients(xi):
        out = np.empty((4, m + 1))
        for (_, feeds), Q, xi_b in zip(blocks, Qs, np.split(xi, np.cumsum(widths)[:-1])):
            c = Q @ np.append(xi_b, 1.0)
            for comp, d in feeds:  # d is 0 or 1
                out[comp] = dmap.dydx_to_dydt(derivative_series(c)) if d else c
        return out

    return buf.reshape(len(buf), -1).T, rhs.ravel(), coefficients


def assemble_state_costate(problem, cfg):
    """The block system (M, rhs) over the collocation nodes, and the map from
    its solution xi to the (4, m + 1) coefficients of x1, x2, lambda1 and
    lambda2: 3N x (3m - 1) for companion-form A, 4N x 4m otherwise."""
    dmap = DomainMap(problem.t0, problem.tf)
    tnodes = dmap.to_t(dmap.nodes(cfg.N, cfg.nodes))
    A = _dynamics(problem, tnodes)
    x0, lf = (np.asarray(v, dtype=float) for v in (problem.x0, problem.lambda_f))
    if x0.shape != (2,) or lf.shape != (2,):
        raise ValueError("x0 and lambda_f must each hold 2 values")
    embedding = _companion_embedding if _is_companion(A) else _general_embedding
    return _block_system(dmap, tnodes, A, cfg.m, *embedding(dmap, x0, lf))


def solve_state_costate(problem, cfg=None):
    """LS solve of the block system; boundary values exact by construction."""
    cfg = cfg or CollocationConfig(m=17, N=200)
    dmap = DomainMap(problem.t0, problem.tf)
    M, rhs, coefficients = assemble_state_costate(problem, cfg)
    # each node's weight applies to its row of every equation
    weights = None if cfg.weights is None else np.tile(cfg.weights, len(rhs) // cfg.N)
    sol = solve_ls(M, rhs, weights, cfg.scaling)
    coef = coefficients(sol.xi)

    def state(t):
        return coef[:2] @ _basis_in_t(dmap, cfg.m, t, 0)[0]

    def costate(t):
        return coef[2:] @ _basis_in_t(dmap, cfg.m, t, 0)[0]

    return StateCostateSolution(
        state=state, costate=costate, coefficients=coef,
        residual_mean=sol.residual_mean, residual_std=sol.residual_std,
        cond_PtP=sol.cond_PtP, rank_deficient=sol.rank_deficient,
    )
