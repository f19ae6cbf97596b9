"""Least-squares solutions of second-order linear ODEs via constrained
expressions and Chebyshev collocation."""

from .chebyshev import BasisEval, endpoint_values, eval_basis, eval_basis_grid
from .control import StateCostateProblem, solve_state_costate
from .diagnostics import SolveReport, SweepRow, classify
from .embedding import (
    BetaSet,
    ConstrainedExpression,
    ConstraintSpec,
    RelativeConstraintSpec,
    build_betas,
    build_relative_betas,
    fixed_case_expression,
)
from .errors import (
    DivisorZero,
    DomainError,
    NodeSingularity,
    NoSignChange,
    ParseError,
    SingularConstraintSet,
    TfcSolveError,
)
from .exprparse import parse_expression
from .mapping import DomainMap
from .problem import LinearODE2, MappedODE, implied_initial_value, map_ode
from .oracle import integrate_ivp, rk4_integrate, shoot_bvp, shoot_state_costate
from .solver import (
    CollocationConfig,
    LSSolution,
    assemble,
    m_sweep,
    solve_ls,
    solve_problem,
)

__version__ = "0.1.0"
