"""Command-line front end: solve, sweep, classify, control.

Problems come from JSON problem files or the built-in catalog
(``catalog:<id>``). Results are written as solution.csv / sweep.csv /
report.json with fixed 17-significant-digit formatting so identical
inputs produce byte-identical outputs.

Exit codes: 0 success (converged, infinite_solutions, or indeterminate),
2 no_solution, 3 parse, configuration or solve error (including a sweep
in which every m failed, and a sweep or classify of a problem file with
solver.weights).
"""

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import catalog, diagnostics
from .control import StateCostateProblem, solve_state_costate
from .errors import ParseError, TfcSolveError
from .exprparse import parse_expression
from .problem import LinearODE2
from .solver import CollocationConfig, m_sweep, solve_problem

EXIT_OK = 0
EXIT_NO_SOLUTION = 2
EXIT_CONFIG = 3

# subcommands whose --m is a range a..b; the others take one integer
SWEEP_COMMANDS = ("sweep", "classify")


class ProblemFileError(TfcSolveError):
    pass


def _fmt(v):
    return f"{float(v):.17g}"


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tfc-solve-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    """Write a flat report dict as strict JSON; non-finite floats become null."""
    payload = {k: None if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in payload.items()}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, text + "\n")


def _compile_coefficient(name, src, t1, t2):
    fn = parse_expression(src)
    for t in (t1, t2):
        v = float(fn(t))
        if not np.isfinite(v):
            raise ProblemFileError(
                f"coefficient {name} = {src!r} is non-finite at t = {t}")
    return fn


class LoadedProblem:
    def __init__(self, data, catalog_id=None):
        self.catalog_id = catalog_id
        if data.get("schema_version") != 1:
            raise ProblemFileError("schema_version must be 1")
        self.kind = data.get("kind")
        if self.kind not in ("ivp", "bvp", "control"):
            raise ProblemFileError(f"unknown kind {self.kind!r}")
        try:
            t1, t2 = (float(v) for v in data["interval"])
        except (KeyError, TypeError, ValueError):
            raise ProblemFileError("interval must be [t1, t2]") from None
        if not t2 > t1:
            raise ProblemFileError("interval must satisfy t2 > t1")
        self.interval = (t1, t2)
        self.solver = dict(data.get("solver") or {})
        if self.kind == "control":
            self._load_control(data)
        else:
            self._load_scalar(data)

    def _load_scalar(self, data):
        coeffs = data.get("coefficients") or {}
        missing = {"f2", "f1", "f0", "f"} - set(coeffs)
        if missing:
            raise ProblemFileError(f"missing coefficients: {sorted(missing)}")
        t1, t2 = self.interval
        self.ode = LinearODE2(
            f2=_compile_coefficient("f2", coeffs["f2"], t1, t2),
            f1=_compile_coefficient("f1", coeffs["f1"], t1, t2),
            f0=_compile_coefficient("f0", coeffs["f0"], t1, t2),
            f=_compile_coefficient("f", coeffs["f"], t1, t2),
            t1=t1, t2=t2,
        )
        raw = data.get("constraints") or []
        if len(raw) != 2:
            raise ProblemFileError("ivp/bvp problems take exactly 2 constraints")
        at = {"t1": t1, "t2": t2}
        self.constraints = []
        for c in raw:
            try:
                loc = c["at"]
                loc = at[loc] if isinstance(loc, str) else float(loc)
                order, value = c["order"], float(c["value"])
            except (KeyError, TypeError, ValueError):
                raise ProblemFileError(f"bad constraint entry {c!r}") from None
            if order not in (0, 1, 2):
                raise ProblemFileError(f"constraint order {order!r} is not 0, 1 or 2")
            self.constraints.append((int(order), loc, value))

    def _load_control(self, data):
        t1, t2 = self.interval
        blocks = {}
        for name in ("A11", "A12", "A21", "A22"):
            rows = data.get(name)
            if (not isinstance(rows, list) or len(rows) != 2
                    or any(len(r) != 2 for r in rows)):
                raise ProblemFileError(f"{name} must be a 2x2 expression matrix")
            fns = [[_compile_coefficient(f"{name}[{i}][{j}]", rows[i][j], t1, t2)
                    for j in range(2)] for i in range(2)]
            blocks[name] = fns
        for key in ("x0", "lambda_f"):
            v = data.get(key)
            if not isinstance(v, list) or len(v) != 2:
                raise ProblemFileError(f"{key} must be a 2-vector")

        def matfn(fns):
            # (2, 2) at a scalar t, (2, 2, N) at an array of N times
            return lambda t: np.array([[fns[i][j](t) for j in range(2)]
                                       for i in range(2)])

        self.control = StateCostateProblem(
            A11=matfn(blocks["A11"]), A12=matfn(blocks["A12"]),
            A21=matfn(blocks["A21"]), A22=matfn(blocks["A22"]),
            x0=[float(v) for v in data["x0"]],
            lambda_f=[float(v) for v in data["lambda_f"]],
            t0=t1, tf=t2,
        )

    def config(self, args):
        m = self.solver.get("m", 17)
        n = self.solver.get("N", 1000)
        scaling = self.solver.get("scaling", "column_norm")
        if args.m is not None and args.subcommand not in SWEEP_COMMANDS:
            m = args.m
        if args.N is not None:
            n = args.N
        if args.scaling is not None:
            scaling = args.scaling
        weights = self.solver.get("weights")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
        try:
            return CollocationConfig(m=int(m), N=int(n), weights=weights,
                                     scaling=scaling, nodes=args.nodes)
        except ValueError as exc:
            raise ProblemFileError(str(exc)) from None


def load_problem(ref):
    if ref.startswith("catalog:"):
        pid = ref.split(":", 1)[1]
        try:
            entry = catalog.get(pid)
        except KeyError as exc:
            raise ProblemFileError(str(exc)) from None
        return LoadedProblem(entry.to_problem_file(), catalog_id=pid)
    try:
        with open(ref) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {ref}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{ref} is not valid JSON: {exc}") from None
    return LoadedProblem(data)


def _solution_rows(problem, sol, n_out):
    t1, t2 = problem.interval
    tt = np.linspace(t1, t2, n_out)
    y, yd, ydd = sol.solution(tt)
    ode = problem.ode
    resid = ode.f2(tt) * ydd + ode.f1(tt) * yd + ode.f0(tt) * y - ode.f(tt)
    return zip(tt, y, yd, ydd, resid)


def _analytic_errors(problem, sol):
    if problem.catalog_id is None:
        return None
    entry = catalog.get(problem.catalog_id)
    if entry.analytic is None:
        return None
    t1, t2 = problem.interval
    tt = np.linspace(t1, t2, 1001)
    y, yd, ydd = sol.solution(tt)
    ya, yda, ydda = entry.analytic(tt)
    return {
        "max_error": float(np.max(np.abs(y - ya))),
        "max_error_dy": float(np.max(np.abs(yd - yda))),
        "max_error_ddy": float(np.max(np.abs(ydd - ydda))),
    }


def _parse_m(subcommand, text):
    """--m as the subcommand takes it: one integer, or a..b for a sweep."""
    if subcommand not in SWEEP_COMMANDS:
        try:
            return int(text)
        except ValueError:
            raise ProblemFileError(
                f"{subcommand} takes --m as one integer, not {text!r}") from None
    try:
        lo, hi = (int(v) for v in text.split(".."))
    except ValueError:
        raise ProblemFileError(
            f"{subcommand} takes --m as a range a..b, not {text!r}") from None
    if hi < lo:
        raise ProblemFileError(f"--m range {text} is empty")
    return range(lo, hi + 1)


def _sweep_range(args, problem):
    if args.m is not None:
        return args.m
    if problem.catalog_id is not None:
        lo, hi = catalog.get(problem.catalog_id).sweep
        return range(lo, hi + 1)
    return range(3, 24)


def cmd_solve(problem, args, out):
    cfg = problem.config(args)
    sol = solve_problem(problem.ode, problem.constraints, cfg)
    write_csv(os.path.join(out, "solution.csv"),
              ["t", "y", "ydot", "yddot", "residual"],
              _solution_rows(problem, sol, cfg.N))
    report = {
        "problem": problem.catalog_id,
        "m": cfg.m,
        "N": cfg.N,
        "residual_mean": sol.residual_mean,
        "residual_abs_mean": sol.residual_abs_mean,
        "residual_std": sol.residual_std,
        "cond_PtP": sol.cond_PtP,
        "rank_deficient": sol.rank_deficient,
    }
    errs = _analytic_errors(problem, sol)
    if errs:
        report.update(errs)
    write_json(os.path.join(out, "report.json"), report)
    return EXIT_OK


def _run_sweep(problem, args):
    cfg = problem.config(args)
    if cfg.weights is not None:  # m_sweep assembles the unweighted system
        raise ProblemFileError(f"{args.subcommand} does not take solver.weights")
    report = m_sweep(problem.ode, problem.constraints, _sweep_range(args, problem),
                     N=cfg.N, nodes=cfg.nodes, scaling=cfg.scaling)
    if all(r.error is not None for r in report.per_m):
        first = report.per_m[0]
        raise TfcSolveError(
            f"every m in the sweep failed; first failure at m = {first.m}: {first.error}")
    return report


def _write_sweep(report, out):
    rows = [(r.m, r.residual_mean, r.residual_abs_mean, r.residual_std, r.cond_PtP)
            for r in report.per_m if r.error is None]
    write_csv(os.path.join(out, "sweep.csv"),
              ["m", "residual_mean", "residual_abs_mean", "residual_std", "cond_PtP"],
              rows)


def cmd_sweep(problem, args, out):
    report = _run_sweep(problem, args)
    _write_sweep(report, out)
    write_json(os.path.join(out, "report.json"), {
        "problem": problem.catalog_id,
        "classification": report.classification,
        "best_m": report.best_m,
    })
    return EXIT_OK


def cmd_classify(problem, args, out):
    report = _run_sweep(problem, args)
    _write_sweep(report, out)
    best = report.row(report.best_m)
    write_json(os.path.join(out, "report.json"), {
        "problem": problem.catalog_id,
        "classification": report.classification,
        "best_m": report.best_m,
        "best_residual_std": best.residual_std,
        "best_cond_PtP": best.cond_PtP,
    })
    if report.classification == diagnostics.NO_SOLUTION:
        return EXIT_NO_SOLUTION
    return EXIT_OK


def cmd_control(problem, args, out):
    if problem.kind != "control":
        raise ProblemFileError("control subcommand needs a control-kind problem")
    cfg = problem.config(args)
    sol = solve_state_costate(problem.control, cfg)
    t1, t2 = problem.interval
    tt = np.linspace(t1, t2, cfg.N)
    xs = sol.state(tt)
    ls = sol.costate(tt)
    write_csv(os.path.join(out, "solution.csv"),
              ["t", "x1", "x2", "lambda1", "lambda2"],
              zip(tt, xs[0], xs[1], ls[0], ls[1]))
    write_json(os.path.join(out, "report.json"), {
        "problem": problem.catalog_id,
        "m": cfg.m,
        "N": cfg.N,
        "residual_mean": sol.residual_mean,
        "residual_std": sol.residual_std,
        "cond_PtP": sol.cond_PtP,
        "rank_deficient": sol.rank_deficient,
    })
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "classify": cmd_classify,
    "control": cmd_control,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tfc-solve",
        description="Least-squares ODE solver via constrained expressions "
                    "and Chebyshev collocation.",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("problem", help="problem file path or catalog:<id>")
    parser.add_argument("--m", default=None,
                        help="basis size for solve/control, a..b range for "
                             "sweep/classify")
    parser.add_argument("--N", type=int, default=None, help="collocation node count")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--scaling", choices=["column_norm", "none"], default=None)
    parser.add_argument("--nodes", choices=["uniform", "lobatto"], default="uniform")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = load_problem(args.problem)
        os.makedirs(args.out, exist_ok=True)
        if args.m is not None:
            args.m = _parse_m(args.subcommand, args.m)
        return COMMANDS[args.subcommand](problem, args, args.out)
    except ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProblemFileError, ValueError) as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TfcSolveError as exc:
        print(f"error[solve]: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
