"""Collocation least-squares core.

The free function g is expanded in Chebyshev polynomials T_k. Column k of
the collocation matrix applies the mapped homogeneous ODE operator to the
constrained expression evaluated with g = T_k and zero constraint values;
the right-hand side is f minus the operator applied to the pure-constraint
part. Indices k = 0, 1 are dropped: the constraint embedding already
reproduces (or absorbs) the constant and linear directions, so the
remaining columns span a complement of the embedding's null space.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics
from .chebyshev import _clip_to_interval, eval_basis, eval_basis_grid
from .embedding import fixed_case_expression
from .errors import TfcSolveError
from .problem import map_ode

DROPPED_K = (0, 1)
RANK_DEFICIENT_TOL = 1e-13


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
            if w.shape != (self.N,) or np.any(w <= 0):
                raise ValueError("weights must be length-N and strictly positive")
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
    expr: object = None

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
    """g_at_constraints for g = T_k, all k: array of shape (n, m + 1)."""
    out = np.zeros((len(expr.constraints), m + 1))
    for i, c in enumerate(expr.constraints):
        be = eval_basis(m, max(c.order, 1), c.location)
        out[i] = be.values if c.order == 0 else be.derivs[c.order]
    return out


def assemble(expr, mapped, cfg):
    """Build the N x (m - 1) system P xi = lambda for columns k = 2..m."""
    x = mapped.map.nodes(cfg.N, cfg.nodes)
    coeffs = mapped.coefficients_at(x)
    grid = eval_basis_grid(cfg.m, 2, x)  # (3, m+1, N)
    g_at = _constraint_basis_values(expr, cfg.m)  # (n, m+1)

    b0 = expr.betas.eval(x, 0)  # (n, N)
    b1 = expr.betas.eval(x, 1)
    b2 = expr.betas.eval(x, 2)

    # y_k = T_k - sum_i beta_i * T_k^(d_i)(x_i), likewise its derivatives.
    yk = grid[0] - g_at.T @ b0  # (m+1, N)
    ypk = grid[1] - g_at.T @ b1
    yppk = grid[2] - g_at.T @ b2
    cols = mapped.homogeneous_operator(x, yk, ypk, yppk, coeffs)  # (m+1, N)

    vals = expr.values
    yc = vals @ b0
    ypc = vals @ b1
    yppc = vals @ b2
    lam = coeffs[3] - mapped.homogeneous_operator(x, yc, ypc, yppc, coeffs)

    P = cols[2:].T  # drop k = 0, 1
    dropped = cols[list(DROPPED_K)].T
    return P, lam, x, dropped


def solve_ls(P, lam, cfg):
    """Scaled least-squares solve with residual and conditioning diagnostics."""
    P = np.asarray(P, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if cfg.weights is not None:
        sw = np.sqrt(cfg.weights)
        Pw = P * sw[:, None]
        lw = lam * sw
    else:
        Pw, lw = P, lam

    if cfg.scaling == "column_norm":
        s = np.linalg.norm(Pw, axis=0)
        s[s == 0.0] = 1.0
    else:
        s = np.ones(P.shape[1])
    Ps = Pw / s

    sv = np.linalg.svd(Ps, compute_uv=False)
    smax, smin = sv[0], sv[-1]
    rank_deficient = bool(smin < RANK_DEFICIENT_TOL * smax)
    cond = np.inf if smin == 0.0 else (smax / smin) ** 2

    z, *_ = np.linalg.lstsq(Ps, lw, rcond=None)
    xi = z / s

    r = P @ xi - lam
    return LSSolution(
        xi=xi,
        residuals=r,
        residual_mean=float(np.mean(r)),
        residual_abs_mean=float(np.mean(np.abs(r))),
        residual_std=float(np.std(r)),
        cond_PtP=float(cond),
        rank_deficient=rank_deficient,
    )


def case_from_constraints(ode, constraints):
    """Resolve t-domain (order, at, value) triples to a fixed case id.

    `at` must equal t1 or t2 (within 1e-12 of the interval width).
    Returns (case_id, x-scaled constraint values ordered as the case
    expects: the t1 constraint first, then the t2 constraint; for IVPs
    the lower derivative order first).
    """
    if len(constraints) != 2:
        raise ValueError("the second-order solver takes exactly 2 constraints")
    dt = ode.t2 - ode.t1
    tol = 1e-12 * max(abs(dt), 1.0)
    tagged = []
    for order, at, value in constraints:
        if abs(at - ode.t1) <= tol:
            tagged.append((0, int(order), float(value)))
        elif abs(at - ode.t2) <= tol:
            tagged.append((1, int(order), float(value)))
        else:
            raise ValueError(f"constraint location {at!r} is neither t1 nor t2")
    tagged.sort()
    names = {0: "y", 1: "dy", 2: "ddy"}
    (e1, d1, v1), (e2, d2, v2) = tagged
    if e1 == 0 and e2 == 0:
        if d1 == d2:
            raise ValueError("duplicate constraint order at t1")
        case = f"IVP_{names[d1]}_{names[d2]}"
    elif e1 == 0 and e2 == 1:
        case = f"BVP_{names[d1]}_{names[d2]}"
    else:
        raise ValueError("constraints must involve t1, optionally t2")
    return case, (d1, v1), (d2, v2)


def _embed(mapped, constraints):
    """The constrained expression for either encoding solve_problem takes."""
    if isinstance(constraints, tuple) and isinstance(constraints[0], str):
        case, values_x = constraints
    else:
        case, (d1, v1), (d2, v2) = case_from_constraints(mapped.ode, constraints)
        values_x = (
            mapped.map.scale_derivative_constraint(d1, v1),
            mapped.map.scale_derivative_constraint(d2, v2),
        )
    return fixed_case_expression(case, values_x)


def solve_problem(ode, constraints, cfg=None):
    """Full pipeline: map, embed, assemble, solve, package a t-callable.

    constraints: list of two (order, at, value) triples in the t-domain,
    or a (case_id, values_x) pair with values already x-scaled.
    """
    cfg = cfg or CollocationConfig()
    mapped = map_ode(ode)
    expr = _embed(mapped, constraints)
    P, lam, x, _ = assemble(expr, mapped, cfg)
    sol = solve_ls(P, lam, cfg)
    sol.expr = expr
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
    element, so the system is assembled once at the largest valid m and
    each m solves on the first m - 1 columns.
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
            P, lam, _, _ = assemble(_embed(mapped, constraints), mapped,
                                    cfgs[max(cfgs)])
        except _ROW_ERRORS as exc:
            errors.update(dict.fromkeys(cfgs, str(exc)))

    rows = []
    for m in ms:
        if m not in errors:
            try:
                rows.append(solve_ls(P[:, :m - 1], lam, cfgs[m]).sweep_row(m))
            except _ROW_ERRORS as exc:
                errors[m] = str(exc)
        if m in errors:
            rows.append(diagnostics.SweepRow(
                m=m, residual_mean=np.nan, residual_abs_mean=np.nan,
                residual_std=np.nan, cond_PtP=np.nan, rank_deficient=False,
                error=errors[m]))
    return diagnostics.make_report(rows, **thresholds)
