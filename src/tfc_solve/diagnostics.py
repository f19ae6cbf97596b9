"""Solvability classification from residual/conditioning sweeps.

A BVP solved by least squares betrays its character in how the residual
standard deviation and cond(P^T P) evolve with the basis size m: clean
convergence, divergence with a blown-up condition number (no solution),
or convergence at modest accuracy alongside a blown-up condition number
(infinitely many solutions).
"""

from dataclasses import dataclass, field
from typing import Optional

DEFAULT_TOL_CONV = 1e-10
DEFAULT_TOL_FAIL = 1e-6
DEFAULT_COND_BAD = 1e15

CONVERGED = "converged"
NO_SOLUTION = "no_solution"
INFINITE_SOLUTIONS = "infinite_solutions"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SweepRow:
    m: int
    residual_mean: float
    residual_abs_mean: float
    residual_std: float
    cond_PtP: float
    rank_deficient: bool
    error: Optional[str] = None


@dataclass(frozen=True)
class SolveReport:
    per_m: tuple
    classification: str
    best_m: int

    def row(self, m):
        for r in self.per_m:
            if r.m == m:
                return r
        raise KeyError(m)


def classify(rows, tol_conv=DEFAULT_TOL_CONV, tol_fail=DEFAULT_TOL_FAIL,
             cond_bad=DEFAULT_COND_BAD):
    """Classify sweep rows as converged / no_solution / infinite_solutions."""
    ok = [r for r in rows if r.error is None]
    if len(ok) < 5:
        return INDETERMINATE
    best = min(ok, key=lambda r: r.residual_std)
    cond_exceeded = any(r.cond_PtP > cond_bad for r in ok)
    if best.residual_std <= tol_conv and best.cond_PtP < cond_bad:
        return CONVERGED
    if best.residual_std > tol_fail and cond_exceeded:
        return NO_SOLUTION
    if best.residual_std <= tol_fail and cond_exceeded:
        return INFINITE_SOLUTIONS
    return INDETERMINATE


def make_report(rows):
    ok = [r for r in rows if r.error is None]
    best_m = min(ok, key=lambda r: r.residual_std).m if ok else -1
    return SolveReport(
        per_m=tuple(rows),
        classification=classify(rows),
        best_m=best_m,
    )
