"""State/costate two-point problems solved by block collocation.

The coupled first-order system for z = (x1, x2, lambda1, lambda2),

    d/dt {x, lambda} = [[A11, A12], [A21, A22]] {x, lambda} = A z,
    x(t0) = x0,  lambda(tf) = lambda_f,

is solved with the scalar solver's embedding (`embedding._eliminate`): a
component's boundary values are constraint rows over T_0..T_m, and its
series is c_K = xi, c_S = a - W xi, so the boundary values hold for any xi.
The collocated dynamics residual is minimized by least squares over the xi
of every block with the scalar solver's kernel (`solver._solve`), handed
the one [M | rhs] array `_collocate` builds, whose row blocks it factors as
views when unweighted. Which embedding is used is read off A at the nodes:

- companion form (A11 row 0 is (0, 1) and A12 row 0 is (0, 0) at every
  node, exactly): x1 carries both x0[0] and x0[1] (pivots S = {0, 1} at
  t0) and x2 = x1', so the first state equation holds identically. The
  system has the x1'' row and the two costate rows per node, and m - 1 + 2m
  columns: 3N x (3m - 1).
- any other A: each component carries its own boundary value (S = {0} at
  its end), and all four equations are collocated: 4N x 4m.

Each costate component carries its terminal value (S = {0} at x = +1) in
both. The system is assembled as the scalar solver's is
(`solver._collocate`), over the same kept node table of T_k, T_k', T_k''
(`solver._node_table`): each equation puts A's entries, times the map's
factor for a d-th t-derivative (`DomainMap.derivative_factor`), on the
table's rows. A is evaluated at the table's nodes mapped to t. The solution
is one Chebyshev series per component of z; `state` and `costate` sum them
by Clenshaw's recurrence (`chebyshev.clenshaw`).
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chebyshev import _clip_to_interval, clenshaw, derivative_series
from .embedding import ConstraintSpec, _eliminate
from .errors import NodeSingularity
from .mapping import DomainMap
from .solver import CollocationConfig, _collocate, _node_table, _series, _solve


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


def _x_at(dmap, t):
    """The mapped points x of times t in [t0, tf], as a 1-d array."""
    return _clip_to_interval(dmap.to_x(np.atleast_1d(np.asarray(t, dtype=float))))


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


def _weights(dmap, A, r, feeds):
    """Equation r's weights on one block's T^(D), ..., T', T, with g_d the
    map's `derivative_factor(d)`: a feed (c, d) puts -A[r, c] g_d on T^(d),
    and, where c = r, z_r' puts g_(d + 1) on T^(d + 1)."""
    top = max(d + (c == r) for c, d in feeds)
    w = np.zeros((top + 1, A.shape[-1]))
    for c, d in feeds:
        w[top - d] -= A[r, c] * dmap.derivative_factor(d)
        if c == r:
            w[top - d - 1] += dmap.derivative_factor(d + 1)
    return w


def _block_system(dmap, grid, A, blocks, rows):
    """[M | rhs] of M xi = rhs: z_r' - (A z)_r = 0 for r in rows at every
    node, built by `solver._collocate` over the node table grid. Each block
    is one series over T_0..T_m, and each of its feeds (c, d) makes z_c that
    series' d-th t-derivative. Rows are equation-major, columns the blocks'
    xi in order. Also returns the map from a solution xi to the (4, m + 1)
    coefficients of z.
    """
    m = grid.shape[1] - 1
    elims = [_eliminate(constraints, m) for constraints, _ in blocks]

    def coefficients(xi):
        out = np.empty((4, m + 1))
        widths = np.cumsum([len(K) for _, K, _, _ in elims])[:-1]
        for (_, feeds), elim, xi_b in zip(blocks, elims, np.split(xi, widths)):
            c = _series(elim, m, xi_b)
            for comp, d in feeds:  # d is 0 or 1
                out[comp] = dmap.to_t_derivative(d, derivative_series(c) if d else c)
        return out

    weights = [[_weights(dmap, A, r, feeds) for _, feeds in blocks] for r in rows]
    return _collocate(grid, elims, weights, 0.0), coefficients


def _system(dmap, problem, cfg):
    """The block system [M | rhs] over the collocation nodes, as
    `_collocate`'s one array, and the map from its solution xi to the
    (4, m + 1) coefficients of x1, x2, lambda1 and lambda2: 3N x (3m - 1)
    for companion-form A, 4N x 4m otherwise."""
    x, grid = _node_table(dmap, cfg.N, cfg.nodes, cfg.m)
    A = _dynamics(problem, dmap.to_t(x))
    x0, lf = (np.asarray(v, dtype=float) for v in (problem.x0, problem.lambda_f))
    if x0.shape != (2,) or lf.shape != (2,):
        raise ValueError("x0 and lambda_f must each hold 2 values")
    embedding = _companion_embedding if _is_companion(A) else _general_embedding
    return _block_system(dmap, grid, A, *embedding(dmap, x0, lf))


def solve_state_costate(problem, cfg=None):
    """LS solve of the block system; boundary values exact by construction."""
    cfg = cfg or CollocationConfig(m=17, N=200)
    dmap = DomainMap(problem.t0, problem.tf)
    system, coefficients = _system(dmap, problem, cfg)
    # each node's weight applies to its row of every equation
    weights = None if cfg.weights is None else np.tile(cfg.weights, len(system) // cfg.N)
    sol = _solve(system, weights, cfg.scaling)
    coef = coefficients(sol.xi)

    def state(t):
        return clenshaw(coef[:2], _x_at(dmap, t))

    def costate(t):
        return clenshaw(coef[2:], _x_at(dmap, t))

    return StateCostateSolution(
        state=state, costate=costate, coefficients=coef,
        residual_mean=sol.residual_mean, residual_std=sol.residual_std,
        cond_PtP=sol.cond_PtP, rank_deficient=sol.rank_deficient,
    )
