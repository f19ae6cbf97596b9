"""Collocation least-squares core.

y is a Chebyshev series sum_k c_k T_k, k = 0..m. Its two constraints, of
order 0, 1 or 2 at t1 or t2, are the rows C of T_k^(d)(-1 or +1) values
(`chebyshev.endpoint_rows`), and C c must equal their values. Eliminating C
with the package's one elimination (`embedding._eliminate`, the null-space
method; Bjorck 1996, section 5.1) leaves the kept columns K free: any c_K =
xi with c_S = a - W xi (`_series`) meets the constraints. One assembly,
`_collocate`, builds the scalar ODE's system (`_system`, for
`solve_problem` and `m_sweep`) and the state/costate blocks': column j is a
linear operator L applied to T_{K_j} - T_S^T W_j, L T_S^T a comes off the
right-hand side, and the result is one Fortran-order [P | lambda] array. The
solution callable sums its series by Clenshaw's recurrence, so the basis
recurrence runs at the collocation nodes only.

Every problem is mapped onto x in [-1, +1] before it is collocated, so the
nodes x and their table of T_k, T_k' and T_k'' depend on N, the node kind and
m alone. `_node_table` keeps them between calls, one read-only (3, m + 1, N)
table per (N, node kind), built at the largest m asked for so far; a smaller
m reads its leading rows [:, :m + 1], which hold the bits a table built at
that m would, since row k of the recurrence reads only x and rows k - 1 and
k - 2. The tables held together take at most _NODE_TABLE_BYTES; the least
recently used goes first, and a table larger than that is built for its
call and not kept.

`_solve(system, weights, scaling)` is the least-squares kernel shared with
the state/costate block solver, and `_factor(system, weights, scaling)` its
QR: system is always the Fortran-order [P | lambda] `_collocate` built. A
QR of the row-weighted [P | lambda] is taken as the Householder QR of each
block of rows followed by one QR of their stacked triangles, then the
column scaling applied to the small triangle R. Unweighted row blocks are
factored as views; weighted ones are weighted a block at a time into one
reused buffer.
xi comes from the scaled triangle: its singular values give cond(P^T P)
(`_singular_values`), then a solve on R (`_solve`), or a full SVD of R
where lstsq's cut-off drops a value. The residual statistics
(`_residual_statistics`) come from one product for any number of solutions.
`m_sweep` assembles and factors once; each m reads a leading block of R,
which any QR's triangle provides, in ascending m. The rows before the first
one whose cut-off drops a value read xi off one inverse of their largest
triangle (`_leading_xi`), since a leading block of a triangle's inverse is
the inverse of its leading block.

No temporary of the system's size is made besides the system matrix and the
W^T (L T_S) `_collocate` subtracts; sums go into existing arrays (`out=`).
"""

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics
from .chebyshev import _clip_to_interval, clenshaw, derivative_series, eval_basis_grid
from .embedding import ConstraintSpec, _case_constraints, _eliminate
from .errors import TfcSolveError
from .mapping import NODE_KINDS
from .problem import map_ode

RANK_DEFICIENT_TOL = 1e-13
# rows per Householder QR block in _factor; a block of 1024 x 64 doubles is
# 512 KiB, and stays in cache while it is factored
_QR_BLOCK_ROWS = 1024
# bytes the kept node tables hold together: the (3, 31, N) table of m = 30
# up to N = 44620 nodes, or 44 such tables at N = 1000
_NODE_TABLE_BYTES = 32 << 20
# (N, node kind) -> (x, table), least recently used first; the lock makes
# each call's look-up, eviction and insertion one step for other threads
_node_tables = {}
_node_lock = threading.Lock()


def _check_kinds(scaling, nodes="uniform"):
    if scaling not in ("column_norm", "none"):
        raise ValueError(f"unknown scaling {scaling!r}")
    if nodes not in NODE_KINDS:
        raise ValueError(f"unknown node kind {nodes!r}")


@dataclass(frozen=True)
class CollocationConfig:
    m: int = 17
    N: int = 1000
    weights: Optional[np.ndarray] = None
    scaling: str = "column_norm"
    nodes: str = "uniform"

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.N < self.m + 1:
            raise ValueError("need N >= m + 1")
        _check_kinds(self.scaling, self.nodes)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.N,) or not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError("weights must be length-N, finite and strictly positive")
            object.__setattr__(self, "weights", w)


@dataclass
class LSSolution:
    """From `solve_problem`, xi holds the coefficients of the kept columns T_K."""

    xi: np.ndarray
    residuals: np.ndarray
    residual_mean: float
    residual_abs_mean: float
    residual_std: float
    cond_PtP: float
    rank_deficient: bool
    solution: object = None


def _node_table(dmap, N, nodes, m):
    """The N nodes x of the kind nodes and the read-only (3, m + 1, N) table
    of T_k, T_k' and T_k'' at them, kept between calls (see the module
    docstring)."""
    key = (N, nodes)
    with _node_lock:
        x, grid = _node_tables.pop(key, (None, None))
        if grid is None or grid.shape[1] <= m:
            if x is None:
                x = dmap.nodes(N, nodes)
                x.flags.writeable = False
            grid = eval_basis_grid(m, 2, x)
            grid.flags.writeable = False
        size = x.nbytes + grid.nbytes
        if size <= _NODE_TABLE_BYTES:
            while size + sum(a.nbytes + b.nbytes for a, b in _node_tables.values()) \
                    > _NODE_TABLE_BYTES:
                del _node_tables[next(iter(_node_tables))]
            _node_tables[key] = x, grid
    return x, grid[:, :m + 1]


def _collocate(grid, elims, weights, rhs):
    """[P | lambda] of equations over constrained series, one Fortran-order
    array whose row blocks `_factor` takes as views. Rows are
    equation-major (row i N + j is equation i at node j), columns the
    series' xi in order.

    grid is the (3, m + 1, N) node table, only read; elims[b] = (S, K, W, a)
    is series b's `_eliminate`; weights[i][b], (D + 1, N), weight its T^(D),
    ..., T', T in equation i, highest first, L their sum; rhs broadcasts to
    (equations, N). One einsum forms L T_K straight into the column rows, a
    run of kept k between two pivots at a time, summed in the weights' order
    from +0.0; W^T (L T_S) comes off them and a^T (L T_S) off rhs.
    """
    widths = [len(K) for _, K, _, _ in elims]
    # row j of buf[:, i] is column j of equation i's rows of [P | lambda]
    buf = np.empty((sum(widths) + 1, len(weights), grid.shape[2]))
    buf[-1] = rhs
    for i, row in enumerate(weights):
        col = 0
        for (S, K, W, a), w, n in zip(elims, row, widths):
            table = grid[len(w) - 1::-1]
            LS = np.einsum("dki,di->ki", table[:, S], w)
            cols = buf[col:col + n, i]
            # S and K ascend, so the kept k between the pivots S[j - 1] and
            # S[j] are consecutive rows of the table, and rows k - j of cols
            for j, (lo, hi) in enumerate(zip([-1, *S], [*S, grid.shape[1]])):
                if hi > lo + 1:
                    np.einsum("dki,di->ki", table[:, lo + 1:hi], w, out=cols[lo + 1 - j:hi - j])
            cols -= W.T @ LS
            buf[-1, i] -= a @ LS
            col += n
    return buf.reshape(len(buf), -1).T


def _system(constraints, mapped, cfg):
    """The constraints' `_eliminate` at cfg.m, and the N x (m - 1) system
    P xi = lambda over the kept columns K as one [P | lambda] array: with L
    the mapped homogeneous operator, P = L T_K - (L T_S)^T W and lambda =
    f - (L T_S)^T a. One equation over one series (`_collocate`), with L's
    bits on the whole table save that three -0.0 products read +0.0.
    """
    elim = _eliminate(constraints, cfg.m)
    x, grid = _node_table(mapped.map, cfg.N, cfg.nodes, cfg.m)
    coeffs = mapped.coefficients_at(x)
    return elim, _collocate(grid, [elim], [[mapped.operator_weights(coeffs)]], coeffs[3])


def _require_finite(name, a):
    """ValueError naming a's first row with a NaN or an infinity. A finite sum
    means every entry is; only a sum that is not (or overflows) is scanned."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(a, axis=None)
    if not np.isfinite(total):
        bad = ~np.isfinite(a)
        if bad.any():
            raise ValueError(f"{name} is non-finite at row {int(np.argwhere(bad)[0][0])}")


def _factor(system, weights, scaling):
    """The triangle R of a QR factorization of the row-weighted [P | lambda]
    system, its first n columns divided by the scales s, and s.

    Rows are weighted by sqrt(weights). The system is factored a block of
    _QR_BLOCK_ROWS rows at a time, then the blocks' triangles stacked and
    factored again (the tall-skinny QR); a system of one block is factored
    as a whole. With no weights its blocks are factored as views; otherwise
    each block is weighted into one reused Fortran-order buffer.

    Householder QR's backward error is column-wise (Higham 2002, section
    19.3), so dividing R's columns by s gives the triangle of the
    column-scaled system as accurately as scaling P's columns first would,
    without a pass over P. s_j is the 2-norm of R's column j, which is the
    (weighted) norm of P's; a zero column keeps s_j = 1.
    """
    _check_kinds(scaling)
    _require_finite("P", system[:, :-1])
    _require_finite("lam", system[:, -1])
    rows, n = system.shape[0], system.shape[1] - 1
    if weights is not None:
        _require_finite("weights", weights)
        if np.less(weights, 0.0).any():
            raise ValueError(f"weights is negative at row {np.argmax(np.less(weights, 0.0))}")
        sw = np.sqrt(weights)[:, None]
        buf = np.empty((min(max(rows, 1), _QR_BLOCK_ROWS), n + 1), order="F")
    Rs = []
    for i in range(0, max(rows, 1), _QR_BLOCK_ROWS):
        block = slice(i, min(rows, i + _QR_BLOCK_ROWS))
        A = system[block]
        if weights is not None:
            A = np.multiply(A, sw[block], out=buf[:block.stop - i])
        Rs.append(np.linalg.qr(A, mode="r"))
    R = Rs[0] if len(Rs) == 1 else np.linalg.qr(np.vstack(Rs), mode="r")
    if scaling != "column_norm":
        return R, np.ones(n)
    with np.errstate(over="ignore"):
        s = np.linalg.norm(R[:, :n], axis=0)
    big = ~np.isfinite(s)  # past about 1.3e154 the squares overflow
    if big.any():
        top = np.max(np.abs(R[:, :n][:, big]), axis=0)
        s[big] = top * np.linalg.norm(R[:, :n][:, big] / top, axis=0)
    s[s == 0.0] = 1.0
    R[:, :n] /= s
    return R, s


def _singular_values(R, rows, n, s, cut=False):
    """The full-SVD xi on the leading n columns of a factored system of rows
    rows where lstsq's cut-off drops a singular value, else None; and
    cond(P^T P) and the rank-deficiency flag.

    R is the triangle of a QR factorization of [Ps | lw], whose first n
    columns are P weighted and divided by the scales s[:n] (`_factor`
    divides the triangle's columns, which is the same). R is upper
    triangular, so [Ps | lw] = QR gives Ps = Q[:, :n] R[:n, :n]: T = R[:n, :n]
    is the triangle of those n columns, R[:n, -1] is Q^T lw for them, and the
    singular values of T are those of the scaled P. A square T whose singular
    values all pass the cut-off needs only those values, and its xi is the
    caller's (a solve in `_solve`, one inverse for a sweep in
    `_leading_xi`). Otherwise xi is the minimum-norm solution from a full SVD
    of T, keeping the values above the cut-off, divided by s[:n]. A T with
    fewer rows than n takes the full SVD at once, and so does cut=True:
    singular values of leading columns interlace (Golub & Van Loan, section
    8.6), so a cut-off that drops a value on fewer leading columns drops one
    on more.
    """
    T, b = R[:n, :n], R[:n, -1]
    eps_rows = np.finfo(float).eps * max(rows, n)
    z = None
    cut = cut or len(T) < n
    if not cut:
        sv = np.linalg.svd(T, compute_uv=False)
        cut = sv[-1] <= eps_rows * sv[0]
    if cut:
        U, sv, Vt = np.linalg.svd(T, full_matrices=False)
        keep = sv > eps_rows * sv[0]
        z = Vt[keep].T @ ((U[:, keep].T @ b) / sv[keep]) / s[:n]
    smax, smin = sv[0], sv[-1]
    cond = np.inf if smin == 0.0 else (smax / smin) ** 2
    return z, float(cond), bool(smin < RANK_DEFICIENT_TOL * smax)


def _leading_xi(R, n, s):
    """xi on the leading k columns for every k = 1..n at once: column k - 1
    holds it in its first k entries.

    The leading block of a triangle's inverse is the inverse of its leading
    block (Higham 2002, chapter 14), so with R_inv = R[:n, :n]^-1 the solve
    on T_k = R[:k, :k] is T_k^-1 R[:k, -1] = sum_{j < k} R_inv[:k, j]
    R[j, -1], which the cumulative sum along the rows of R_inv R[:n, -1]
    gives for every k; R_inv is upper triangular, so its entries below
    row k add nothing to column k - 1. Rows divide by s[:n] as in
    `_solve`.
    """
    Z = np.cumsum(np.linalg.inv(R[:n, :n]) * R[:n, -1], axis=1)
    Z /= s[:n, None]
    return Z


def _mean(a):
    """Each column's sum over len(a). A column of finite entries whose sum
    overflows is summed again divided by its largest |entry|."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(a, axis=0) / len(a)
    for j in (~np.isfinite(mean)).nonzero()[0]:
        top = np.max(np.abs(a[:, j]))
        if np.isfinite(top):
            mean[j] = np.add.reduce(a[:, j] / top) / len(a) * top
    return mean


def _residual_statistics(P, Xi, lam, scratch):
    """The residuals P Xi - lambda of every column of Xi, one product into a
    Fortran-order (rows x columns) array, and each column's mean, mean |r|
    and standard deviation. These are the add-reduce and divide of np.mean /
    np.std without their dispatch; a column's sum runs along contiguous
    memory, so it is numpy's pairwise sum and keeps np.std's bits. scratch,
    Fortran-order with len(P) rows and at least Xi's columns, is written
    once the product is formed, so it may be P itself."""
    rows = len(P)
    r = np.matmul(P[:, :len(Xi)], Xi, out=np.empty((rows, Xi.shape[1]), order="F"))
    r -= lam[:, None]
    dev = np.abs(r, out=scratch[:, :r.shape[1]])
    abs_mean, mean = _mean(dev), _mean(r)
    np.subtract(r, mean, out=dev)
    with np.errstate(over="ignore"):
        dev *= dev
        std = np.sqrt(np.add.reduce(dev, axis=0) / rows)
    for j in np.isinf(std).nonzero()[0]:  # a square past about 1.3e154 overflows; hypot does not
        std[j] = np.hypot.reduce(r[:, j] - mean[j]) / np.sqrt(rows)
    return r, mean, abs_mean, std


def _solve(system, weights, scaling):
    """Scaled least-squares solve of the [P | lambda] system, with residual
    and conditioning diagnostics.

    Rows are weighted by sqrt(weights), one weight per row; scaling is
    "column_norm" or "none". One QR of the weighted [P | lambda] (`_factor`),
    whose triangle R is then column-scaled; xi is the full-SVD xi of
    `_singular_values` where the cut-off drops a value, else the QR
    least-squares solution (Bjorck 1996), a solve on R[:n, :n]. Raises
    ValueError on an unknown scaling, a non-finite input or a negative weight.
    """
    R, s = _factor(system, weights, scaling)
    P, lam = system[:, :-1], system[:, -1]
    n = P.shape[1]
    xi, cond, rank_deficient = _singular_values(R, *P.shape, s)
    if xi is None:
        xi = np.linalg.solve(R[:n, :n], R[:n, -1]) / s[:n]
    r, mean, abs_mean, std = _residual_statistics(P, xi[:, None], lam, np.empty((len(P), 1)))
    return LSSolution(
        xi=xi,
        residuals=r[:, 0],
        residual_mean=float(mean[0]),
        residual_abs_mean=float(abs_mean[0]),
        residual_std=float(std[0]),
        cond_PtP=cond,
        rank_deficient=rank_deficient,
    )


def _expression(mapped, constraints):
    """x-domain ConstraintSpecs, sorted by location then order, from either
    encoding solve_problem takes. Each `at` must be t1 or t2 within 1e-12 of
    the interval width; derivative values are scaled to x."""
    if constraints and isinstance(constraints[0], str):
        return _case_constraints(*constraints)
    dmap = mapped.map
    tol = 1e-12 * max(dmap.delta_t, 1.0)
    tagged = []
    for order, at, value in constraints:
        if min(abs(at - dmap.t1), abs(at - dmap.t2)) > tol:
            raise ValueError(f"constraint location {at!r} is neither t1 nor t2")
        tagged.append((-1.0 if abs(at - dmap.t1) <= tol else 1.0, order, float(value)))
    tagged.sort()
    pairs = tuple((order, loc) for loc, order, _ in tagged)
    if len(pairs) != 2 or any(order not in (0, 1, 2) for order, _ in pairs):
        raise ValueError(f"need two constraints of order 0, 1 or 2, not the pairs {pairs}")
    return tuple(ConstraintSpec(order, loc, dmap.scale_derivative_constraint(order, v))
                 for loc, order, v in tagged)


def solve_problem(ode, constraints, cfg=None):
    """Full pipeline: map, eliminate, assemble, solve, package a t-callable.
    constraints: two (order, at, value) triples in the t-domain, or a
    (case_id, values_x) pair with values already x-scaled."""
    cfg = cfg or CollocationConfig()
    mapped = map_ode(ode)
    elim, system = _system(_expression(mapped, constraints), mapped, cfg)
    sol = _solve(system, cfg.weights, cfg.scaling)
    sol.solution = _make_solution(elim, mapped, cfg.m, sol.xi)
    return sol


def _series(elim, m, xi):
    """The coefficients c_0..c_m of the series with c_K = xi and c_S = a - W xi."""
    S, K, W, a = elim
    c = np.empty(m + 1)
    c[K], c[S] = xi, a - W @ xi
    return c


def _make_solution(elim, mapped, m, xi):
    """The `_series` of xi as a t-callable, each derivative taken to t by the map."""
    c = _series(elim, m, xi)
    dc = derivative_series(c)
    series = np.stack([c, dc, derivative_series(dc)])

    def solution(t):
        """(y, ydot, yddot) in the t-domain at times t within [t1, t2]."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        y, *dy = clenshaw(series, _clip_to_interval(mapped.map.to_x(t)))
        return y, *(mapped.map.to_t_derivative(d, v, out=v) for d, v in enumerate(dy, 1))

    return solution


# Failures recorded as an m row; anything else is a programming error.
_ROW_ERRORS = (TfcSolveError, np.linalg.LinAlgError, ValueError)


def m_sweep(ode, constraints, m_range, N=1000, nodes="uniform",
            scaling="column_norm"):
    """Solve for each m and classify the sweep.

    The pivots S are the same for every m >= max S, so the kept columns of a
    smaller m lead those of a larger one: the system is assembled and factored
    once at the largest valid m, and each m reads the leading (m - 1) x (m - 1)
    block T of R. An m below max S gets an error row. Each row takes T's
    singular values, in ascending m; the rows before the first one whose
    cut-off drops a value get xi from one inverse (`_leading_xi`), and that
    row and every larger one from a full SVD of T (`_singular_values`). The
    residuals of every row come from one product P Xi - lambda. An unknown
    nodes or scaling raises ValueError before any row.
    """
    _check_kinds(scaling, nodes)
    ms = [int(m) for m in m_range]
    cfgs, errors = {}, {}
    for m in ms:
        try:
            cfgs[m] = CollocationConfig(m=m, N=int(N), nodes=nodes, scaling=scaling)
        except ValueError as exc:
            errors[m] = str(exc)
    if cfgs:
        try:
            mapped = map_ode(ode)
            constraints = _expression(mapped, constraints)
            elim, system = _system(constraints, mapped, cfgs[max(cfgs)])
            P, lam = system[:, :-1], system[:, -1]
            R, s = _factor(system, None, scaling)
        except _ROW_ERRORS as exc:
            errors.update(dict.fromkeys(cfgs, str(exc)))

    # rows in ascending m, whatever m_range's order, so that a row's bits
    # do not depend on it; once the cut-off drops a value, it drops one at
    # every larger m
    solved, cut = {}, False
    for m in sorted(set(cfgs) - set(errors)):
        try:
            if m < elim[0][-1]:
                _eliminate(constraints, m)  # raises: T_0..T_m hold too few pivots
            solved[m] = _singular_values(R, len(P), m - 1, s, cut)
            cut = solved[m][0] is not None
        except _ROW_ERRORS as exc:
            errors[m] = str(exc)
    # the rows before the first cut one read xi off one inverse
    uncut = [m for m, (xi, *_) in solved.items() if xi is None]
    Z = _leading_xi(R, uncut[-1] - 1, s) if uncut else None
    if solved:
        Xi = np.zeros((max(solved) - 1, len(solved)))
        for j, (m, (xi, *_)) in enumerate(solved.items()):
            Xi[:m - 1, j] = Z[:m - 1, m - 2] if xi is None else xi
        # P is spent once the product is formed: its columns take the deviations
        _, *stats = _residual_statistics(P, Xi, lam, P)
        for j, (m, (_, cond, rank_deficient)) in enumerate(solved.items()):
            solved[m] = diagnostics.SweepRow(m, *(float(a[j]) for a in stats),
                                             cond, rank_deficient)

    rows = []
    for m in ms:
        rows.append(solved[m] if m in solved else diagnostics.SweepRow(
            m=m, residual_mean=np.nan, residual_abs_mean=np.nan,
            residual_std=np.nan, cond_PtP=np.nan, rank_deficient=False,
            error=errors[m]))
    return diagnostics.make_report(rows)
