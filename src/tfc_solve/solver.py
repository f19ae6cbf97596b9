"""Collocation least-squares core.

The free function g is expanded in Chebyshev polynomials T_k. Column k of
the collocation matrix applies the mapped homogeneous ODE operator to the
constrained expression evaluated with g = T_k and zero constraint values;
the right-hand side is f minus the operator applied to the pure-constraint
part. Indices k = 0, 1 are dropped: the constraint embedding already
reproduces (or absorbs) the constant and linear directions, so the
remaining columns span a complement of the embedding's null space.

Constraints reach the solver as t-domain (order, at, value) triples, which
are mapped to one of the twelve published cases of `embedding.FIXED_CASES`.
Every constraint sits at x = -1 or +1, so its row of T_k^(d) values comes
from the closed forms of `chebyshev.endpoint_rows`; the basis recurrence
runs once per point set (the nodes, or the points a solution is asked at)
and never at a single point.

`solve_ls(P, lam, weights, scaling)` is the least-squares kernel shared with
the state/costate block solver: a QR of the scaled [P | lambda], taken as
the Householder QR of each block of rows followed by one QR of their stacked
triangles, and an SVD of the small triangle R. `m_sweep` assembles and
factors once; each m reads a leading block of R, which any QR's triangle
provides.

No temporary of the system's size is made besides the system matrix and one
scratch; products go into existing arrays (`out=`) and keep their bits.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics
from .chebyshev import _clip_to_interval, endpoint_rows, eval_basis_grid
from .embedding import FIXED_CASES, fixed_case_expression
from .errors import TfcSolveError
from .problem import map_ode

RANK_DEFICIENT_TOL = 1e-13
# rows per Householder QR block in _factor; a block of 1024 x 64 doubles is
# 512 KiB, and stays in cache while it is factored
_QR_BLOCK_ROWS = 1024
# published case ids by their x-domain (order, location) pairs
_CASE_IDS = {specs: case_id for case_id, (specs, _) in FIXED_CASES.items()}


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
        if self.scaling not in ("column_norm", "none"):
            raise ValueError(f"unknown scaling {self.scaling!r}")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.N,) or not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError("weights must be length-N, finite and strictly positive")
            object.__setattr__(self, "weights", w)


@dataclass
class LSSolution:
    xi: np.ndarray
    residuals: np.ndarray
    residual_mean: float
    residual_abs_mean: float
    residual_std: float
    cond_PtP: float
    rank_deficient: bool
    solution: object = None

    def sweep_row(self, m):
        return diagnostics.SweepRow(
            m=m,
            residual_mean=self.residual_mean,
            residual_abs_mean=self.residual_abs_mean,
            residual_std=self.residual_std,
            cond_PtP=self.cond_PtP,
            rank_deficient=self.rank_deficient,
        )


def _constraint_basis_values(expr, m):
    """g_at_constraints for g = T_k, all k: array of shape (n, m + 1).

    Row i is T_k^(d_i)(x_i) from the closed forms at x_i = -1 or +1; any
    other location raises ValueError.
    """
    cs = expr.constraints
    return endpoint_rows(m, [c.order for c in cs], [c.location for c in cs])


def assemble(expr, mapped, cfg):
    """Build the N x (m - 1) system P xi = lambda for columns k = 2..m."""
    x = mapped.map.nodes(cfg.N, cfg.nodes)
    coeffs = mapped.coefficients_at(x)
    grid = eval_basis_grid(cfg.m, 2, x)  # (3, m+1, N)
    g_at = _constraint_basis_values(expr, cfg.m)  # (n, m+1)
    b = [expr.betas.eval(x, d) for d in range(3)]  # (n, N) each

    # y_k = T_k - sum_i beta_i * T_k^(d_i)(x_i), likewise its derivatives,
    # for the kept k = 2..m only, formed in the grid itself through one
    # buffer for the product, which then takes the columns: P keeps that
    # buffer alive, not the grid.
    cols = np.empty_like(grid[0, 2:])  # (m-1, N)
    for d in range(3):
        grid[d, 2:] -= np.matmul(g_at[:, 2:].T, b[d], out=cols)
    mapped.homogeneous_operator(x, *grid[:, 2:], coeffs, out=cols)

    vals = expr.values
    lam = coeffs[3] - mapped.homogeneous_operator(x, *(vals @ bd for bd in b), coeffs)

    return cols.T, lam


def _require_finite(name, a):
    ok = np.isfinite(a)
    if not ok.all():
        raise ValueError(f"{name} is non-finite at row {int(np.argwhere(~ok)[0][0])}")


def _factor(P, lam, weights, scaling):
    """The triangle R of a QR factorization of [Ps | lw], and the scales s.

    Rows are weighted by sqrt(weights); with column_norm scaling each column
    of P is divided by its (weighted) 2-norm, zero columns left as they are.
    [Ps | lw] is never formed whole: each block of _QR_BLOCK_ROWS rows is
    weighted and scaled into one reused Fortran-order buffer and factored,
    then the blocks' triangles stacked (the tall-skinny QR); a system of one
    block is factored as a whole. The norms square eight columns at a time
    into a Fortran-order scratch, so each column keeps the pairwise sum
    np.linalg.norm gives a Fortran-order array. A weight or scale of 1.0 is
    applied too: it changes no bit.
    """
    _require_finite("P", P)
    _require_finite("lam", lam)
    rows, n = P.shape
    if weights is not None:
        _require_finite("weights", weights)
    sw = np.broadcast_to(1.0, (rows, 1)) if weights is None else np.sqrt(weights)[:, None]
    s = np.ones(n)
    if scaling == "column_norm":
        sq = np.empty((rows, min(n, 8)), order="F")
        for j in range(0, n, 8):
            c = min(8, n - j)
            np.multiply(P[:, j:j + c], sw, out=sq[:, :c])
            np.square(sq[:, :c], out=sq[:, :c])
            np.sqrt(np.add.reduce(sq[:, :c], axis=0), out=s[j:j + c])
        s[s == 0.0] = 1.0
        del sq  # freed before the block buffer is made
    buf = np.empty((min(max(rows, 1), _QR_BLOCK_ROWS), n + 1), order="F")
    Rs = []
    for i in range(0, max(rows, 1), _QR_BLOCK_ROWS):
        A = buf[:min(rows - i, _QR_BLOCK_ROWS)]
        block = slice(i, i + len(A))
        np.multiply(P[block], sw[block], out=A[:, :n])
        np.multiply(lam[block], sw[block, 0], out=A[:, n])
        A[:, :n] /= s
        Rs.append(np.linalg.qr(A, mode="r"))
    return (Rs[0] if len(Rs) == 1 else np.linalg.qr(np.vstack(Rs), mode="r")), s


def _solve_from_r(R, P, lam, s):
    """The least-squares solve on P, the leading n columns of a factored system.

    R is the triangle of the QR factorization of [Ps | lw], whose first n
    columns are P weighted and divided by the scales s[:n]. R is upper
    triangular, so [Ps | lw] = QR gives Ps = Q[:, :n] R[:n, :n]: R[:n, :n] is
    the triangle of those n columns and R[:n, -1] is Q^T lw for them. The
    singular values of R[:n, :n] are those of the scaled P; xi is the
    minimum-norm solution with lstsq's default cut-off, and the residuals are
    formed explicitly from the unscaled P.
    """
    rows, n = P.shape
    U, sv, Vt = np.linalg.svd(R[:n, :n], full_matrices=False)
    smax, smin = sv[0], sv[-1]
    rank_deficient = bool(smin < RANK_DEFICIENT_TOL * smax)
    cond = np.inf if smin == 0.0 else (smax / smin) ** 2

    keep = sv > np.finfo(float).eps * max(rows, n) * smax
    z = Vt[keep].T @ ((U[:, keep].T @ R[:n, -1]) / sv[keep])
    xi = z / s[:n]

    # the add-reduce and divide of np.mean / np.std, without their
    # dispatch, so the statistics keep numpy's bits
    r = P @ xi - lam
    mean = r.sum() / rows
    dev = r - mean
    dev *= dev
    return LSSolution(
        xi=xi,
        residuals=r,
        residual_mean=float(mean),
        residual_abs_mean=float(np.abs(r).sum() / rows),
        residual_std=float(np.sqrt(dev.sum() / rows)),
        cond_PtP=float(cond),
        rank_deficient=rank_deficient,
    )


def solve_ls(P, lam, weights=None, scaling="column_norm"):
    """Scaled least-squares solve with residual and conditioning diagnostics.

    Rows are weighted by sqrt(weights), one weight per row; scaling is
    "column_norm" or "none". One QR of the scaled [P | lambda], over blocks
    of rows, then an SVD of the small triangle; raises ValueError on a
    non-finite P, lambda or weight.
    """
    P = np.asarray(P, dtype=float)
    lam = np.asarray(lam, dtype=float)
    R, s = _factor(P, lam, weights, scaling)
    return _solve_from_r(R, P, lam, s)


def _expression(mapped, constraints):
    """The published constrained expression for either encoding solve_problem takes.

    t-domain (order, at, value) triples, `at` equal to t1 or t2 within 1e-12
    of the interval width, become x-domain (order, -1 or 1) pairs sorted by
    location then order, the order each case lists its constraints in.
    """
    if constraints and isinstance(constraints[0], str):
        return fixed_case_expression(*constraints)
    dmap = mapped.map
    tol = 1e-12 * max(dmap.delta_t, 1.0)
    tagged = []
    for order, at, value in constraints:
        if abs(at - dmap.t1) <= tol:
            tagged.append((-1.0, order, float(value)))
        elif abs(at - dmap.t2) <= tol:
            tagged.append((1.0, order, float(value)))
        else:
            raise ValueError(f"constraint location {at!r} is neither t1 nor t2")
    tagged.sort()
    pairs = tuple((order, loc) for loc, order, _ in tagged)
    if pairs not in _CASE_IDS:
        raise ValueError(f"no published case has the (order, location) pairs {pairs}")
    return fixed_case_expression(
        _CASE_IDS[pairs], [dmap.scale_derivative_constraint(o, v) for _, o, v in tagged])


def solve_problem(ode, constraints, cfg=None):
    """Full pipeline: map, embed, assemble, solve, package a t-callable.

    constraints: list of two (order, at, value) triples in the t-domain,
    or a (case_id, values_x) pair with values already x-scaled.
    """
    cfg = cfg or CollocationConfig()
    mapped = map_ode(ode)
    expr = _expression(mapped, constraints)
    P, lam = assemble(expr, mapped, cfg)
    sol = solve_ls(P, lam, cfg.weights, cfg.scaling)
    sol.solution = _make_solution(expr, mapped, cfg.m, sol.xi)
    return sol


def _make_solution(expr, mapped, m, xi):
    xi_full = np.zeros(m + 1)
    xi_full[2:] = xi
    g_at = _constraint_basis_values(expr, m) @ xi_full

    def solution(t):
        """(y, ydot, yddot) in the t-domain at times t within [t1, t2]."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = _clip_to_interval(mapped.map.to_x(t))
        grid = eval_basis_grid(m, 2, x)
        g = xi_full @ grid[0]
        dg = xi_full @ grid[1]
        ddg = xi_full @ grid[2]
        y, yp, ypp = expr.eval(x, g, dg, ddg, g_at)
        return y, mapped.map.dydx_to_dydt(yp), mapped.map.d2ydx2_to_d2ydt2(ypp)

    return solution


# Failures recorded as an m row; anything else is a programming error.
_ROW_ERRORS = (TfcSolveError, np.linalg.LinAlgError, ValueError)


def m_sweep(ode, constraints, m_range, N=1000, nodes="uniform",
            scaling="column_norm", **thresholds):
    """Solve for each m and classify the sweep.

    Column k of P and its scale depend on T_k alone and lambda on no basis
    element, so the system is assembled and factored once at the largest
    valid m; each m reads the leading (m - 1) x (m - 1) block of R.
    """
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
            P, lam = assemble(_expression(mapped, constraints), mapped,
                              cfgs[max(cfgs)])
            R, s = _factor(P, lam, None, scaling)
        except _ROW_ERRORS as exc:
            errors.update(dict.fromkeys(cfgs, str(exc)))

    rows = []
    for m in ms:
        if m not in errors:
            try:
                rows.append(_solve_from_r(R, P[:, :m - 1], lam, s).sweep_row(m))
            except _ROW_ERRORS as exc:
                errors[m] = str(exc)
        if m in errors:
            rows.append(diagnostics.SweepRow(
                m=m, residual_mean=np.nan, residual_abs_mean=np.nan,
                residual_std=np.nan, cond_PtP=np.nan, rank_deficient=False,
                error=errors[m]))
    return diagnostics.make_report(rows, **thresholds)
