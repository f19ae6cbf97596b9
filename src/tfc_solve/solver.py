"""Collocation least-squares core.

y is a Chebyshev series sum_k c_k T_k, k = 0..m. Its two constraints, of
order 0, 1 or 2 at t1 or t2, are the rows C of T_k^(d)(-1 or +1) values
(`chebyshev.endpoint_rows`), and C c must equal their values. Eliminating C
with the package's one elimination (`embedding._eliminate`, the null-space
method; Bjorck 1996, section 5.1) leaves the kept columns K free: any c_K =
xi with c_S = a - W xi meets the constraints. Column j of the collocation
matrix is the mapped homogeneous ODE operator L applied to T_{K_j} - T_S^T
W_j; the right-hand side is f - L T_S^T a. The basis recurrence runs once
per point set, never at a single point.

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
from .chebyshev import _clip_to_interval, eval_basis_grid
from .embedding import ConstraintSpec, _eliminate, fixed_case_expression
from .errors import TfcSolveError
from .problem import map_ode

RANK_DEFICIENT_TOL = 1e-13
# rows per Householder QR block in _factor; a block of 1024 x 64 doubles is
# 512 KiB, and stays in cache while it is factored
_QR_BLOCK_ROWS = 1024


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
    """From `solve_problem`, xi holds the coefficients of the kept columns T_K."""

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


def assemble(constraints, mapped, cfg, *, _elim=None):
    """The N x (m - 1) system P xi = lambda over the kept columns K: with L
    the mapped homogeneous operator, P = L T_K - (L T_S)^T W and lambda =
    f - (L T_S)^T a. constraints are x-domain ConstraintSpecs, and _elim is
    their `_eliminate` at cfg.m when the caller has it."""
    S, K, W, a = _elim or _eliminate(constraints, cfg.m)
    x = mapped.map.nodes(cfg.N, cfg.nodes)
    coeffs = mapped.coefficients_at(x)
    grid = eval_basis_grid(cfg.m, 2, x)  # (3, m+1, N)
    # L T_k for every k into grid[2]; the product goes through a spent slice
    LT = mapped.homogeneous_operator(x, *grid, coeffs, out=grid[2])
    LS = LT[S]
    cols = np.take(LT, K, axis=0)
    cols -= np.matmul(W.T, LS, out=grid[0, :len(K)])
    return cols.T, coeffs[3] - a @ LS


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
    np.linalg.norm gives a Fortran-order array. Without weights P is squared
    into it directly; a scale of 1.0 is applied too: it changes no bit.
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
            Pj = P[:, j:j + c]
            np.square(Pj if weights is None else np.multiply(Pj, sw, out=sq[:, :c]), out=sq[:, :c])
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
    """x-domain ConstraintSpecs, sorted by location then order, from either
    encoding solve_problem takes. Each `at` must be t1 or t2 within 1e-12 of
    the interval width; derivative values are scaled to x."""
    if constraints and isinstance(constraints[0], str):
        return fixed_case_expression(*constraints).constraints
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
    constraints = _expression(mapped, constraints)
    elim = _eliminate(constraints, cfg.m)
    P, lam = assemble(constraints, mapped, cfg, _elim=elim)
    sol = solve_ls(P, lam, cfg.weights, cfg.scaling)
    sol.solution = _make_solution(elim, mapped, cfg.m, sol.xi)
    return sol


def _make_solution(elim, mapped, m, xi):
    """The Chebyshev series with c_K = xi and c_S = a - W xi, as a t-callable."""
    S, K, W, a = elim
    c = np.empty(m + 1)
    c[K] = xi
    c[S] = a - W @ xi

    def solution(t):
        """(y, ydot, yddot) in the t-domain at times t within [t1, t2]."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = _clip_to_interval(mapped.map.to_x(t))
        y, yp, ypp = (c @ g for g in eval_basis_grid(m, 2, x))
        return y, mapped.map.dydx_to_dydt(yp, out=yp), mapped.map.d2ydx2_to_d2ydt2(ypp, out=ypp)

    return solution


# Failures recorded as an m row; anything else is a programming error.
_ROW_ERRORS = (TfcSolveError, np.linalg.LinAlgError, ValueError)


def m_sweep(ode, constraints, m_range, N=1000, nodes="uniform",
            scaling="column_norm", **thresholds):
    """Solve for each m and classify the sweep.

    The pivots S are the same for every m >= max S, so the kept columns of a
    smaller m lead those of a larger one: the system is assembled and factored
    once at the largest valid m, and each m reads the leading (m - 1) x (m - 1)
    block of R. An m below max S gets an error row.
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
            constraints = _expression(mapped, constraints)
            elim = _eliminate(constraints, max(cfgs))
            P, lam = assemble(constraints, mapped, cfgs[max(cfgs)], _elim=elim)
            R, s = _factor(P, lam, None, scaling)
        except _ROW_ERRORS as exc:
            errors.update(dict.fromkeys(cfgs, str(exc)))

    rows = []
    for m in ms:
        if m not in errors:
            try:
                if m < elim[0][-1]:
                    _eliminate(constraints, m)  # raises: T_0..T_m hold too few pivots
                rows.append(_solve_from_r(R, P[:, :m - 1], lam, s).sweep_row(m))
            except _ROW_ERRORS as exc:
                errors[m] = str(exc)
        if m in errors:
            rows.append(diagnostics.SweepRow(
                m=m, residual_mean=np.nan, residual_abs_mean=np.nan,
                residual_std=np.nan, cond_PtP=np.nan, rank_deficient=False,
                error=errors[m]))
    return diagnostics.make_report(rows, **thresholds)
