"""The benchmark's four workloads.

Each workload turns a seed into inputs, prepares them through the package
(the part ``setup_s`` times), builds its own references outside any timed
region, yields an endless seeded schedule of ops, runs one op, and checks
one op's output against the reference.

Schedules are blocks of a fixed design in seeded order, so every run sees
the same mix of op kinds and the median lands at the same place in it;
the seed changes the order, the grid sizes and the problems.

Only the package's public API is used, so that later refactors of its
internals leave the benchmark runnable.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np

import tfc_solve

TOL = 1e-6

# Unique solvability is a property of the problem and the constraint pair,
# not of the solver: these three are excluded, every other miss is a failure.
NOT_UNIQUE = {
    ("eq19", "BVP_ddy_ddy"): "homogeneous solution t has y'' = 0 at both ends",
    ("eq26", "BVP_y_dy"): "homogeneous solution t*exp(-t) has y(0) = 0 and y'(1) = 0",
    ("eq26", "BVP_dy_ddy"): "y'(0) and y''(1) both fix only a - b of a*exp(-t) + b*t*exp(-t)",
}

DERIV = {0: "y", 1: "dy", 2: "ddy"}
# The twelve two-constraint cases as ((order, end), (order, end)).
CASES = (
    [((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 0), (2, 0))]
    + [((a, 0), (b, 1)) for a in range(3) for b in range(3)]
)


def identity_wrap(name, fn, amount=None):
    """The `wrap` of an untraced run: fn itself."""
    return fn


def first_arg_size(args, kwargs):
    """Span count of a callable evaluated at an array of points."""
    return np.size(args[0])


class Workload:
    """Interface the runner drives; see the module docstring."""

    name = ""
    traced_ops = 0  # ops in the fixed list a traced run repeats

    def write_inputs(self, seed, workdir):
        """Generate input files (benchmark work, not timed)."""

    def prepare(self, seed, workdir, wrap=identity_wrap):
        """Inputs prepared through the package: what setup_s times."""
        raise NotImplementedError

    def references(self, seed, inputs):
        """The benchmark's own references, built outside every timed region."""
        return None

    def schedule(self, seed, inputs, refs):
        raise NotImplementedError

    def before(self, inputs, spec):
        """Untimed preparation of one op."""

    def run(self, inputs, spec, wrap=identity_wrap):
        raise NotImplementedError

    def run_traced(self, inputs, spec, wrap=identity_wrap):
        """The op as a traced run performs it."""
        return self.run(inputs, spec, wrap)

    def check(self, inputs, refs, spec, out):
        """(ok, error or None, description) for one op's output."""
        raise NotImplementedError


def case_id(case):
    (a, ea), (b, eb) = case
    return f"{'IVP' if ea == eb else 'BVP'}_{DERIV[a]}_{DERIV[b]}"


def relative_error(value, ref):
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if value.shape != ref.shape or not np.all(np.isfinite(value)):
        return math.inf
    return float(np.max(np.abs(value - ref) / np.maximum(1.0, np.abs(ref))))


# ---------------------------------------------------------------- solve --

@dataclass
class SolvePair:
    problem: str
    case: str
    ode: object
    constraints: list
    analytic: object
    interval: tuple


@dataclass
class SolveSpec:
    pair: int
    m: int
    N: int
    t: np.ndarray
    y_ref: np.ndarray


class Solve(Workload):
    """solve_problem, then the solution callable on a dense grid."""

    name = "solve"
    traced_ops = 42
    GRID = (101, 10001)
    M = range(15, 24)
    NS = (1000, 4000)

    def prepare(self, seed, workdir, wrap=identity_wrap):
        from tfc_solve import catalog

        pairs = []
        for pid in ("eq19", "eq26"):
            entry = catalog.get(pid)
            ode = entry.ode()
            t1, t2 = entry.interval
            for case in CASES:
                cid = case_id(case)
                if (pid, cid) in NOT_UNIQUE:
                    continue
                constraints = []
                for order, end in case:
                    at = (t1, t2)[end]
                    value = float(entry.analytic(np.array([at]))[order][0])
                    constraints.append((order, at, value))
                pairs.append(SolvePair(pid, cid, ode, constraints, entry.analytic, (t1, t2)))
        return pairs

    def schedule(self, seed, inputs, refs):
        """Blocks of every (pair, m) once, grid sizes stratified, N balanced."""
        rng = np.random.default_rng([seed, 1])
        combos = [(p, m) for p in range(len(inputs)) for m in self.M]
        n = len(combos)
        lo, hi = np.log(self.GRID[0]), np.log(self.GRID[1])
        while True:
            order = rng.permutation(n)
            # Grid strata alternate between the two N, so each N spans the
            # whole grid range and the slowest ops are the same kinds on
            # every seed.
            strata = rng.permutation(n)
            ns = np.where(strata % 2 == 0, self.NS[1], self.NS[0])
            u = (strata + rng.random(n)) / n
            grids = np.rint(np.exp(lo + u * (hi - lo))).astype(int)
            for k, c in enumerate(order):
                pair, m = combos[c]
                t = np.linspace(*inputs[pair].interval, int(grids[k]))
                yield SolveSpec(pair, m, int(ns[k]), t, inputs[pair].analytic(t)[0])

    def run(self, inputs, spec, wrap=identity_wrap):
        pair = inputs[spec.pair]
        cfg = tfc_solve.CollocationConfig(m=spec.m, N=spec.N)
        sol = tfc_solve.solve_problem(pair.ode, pair.constraints, cfg)
        y, _, _ = wrap("solver.solution", sol.solution, first_arg_size)(spec.t)
        return y

    def check(self, inputs, refs, spec, y):
        err = relative_error(y, spec.y_ref)
        pair = inputs[spec.pair]
        return err <= TOL, err, f"{pair.problem} {pair.case} m={spec.m} N={spec.N}"


# ---------------------------------------------------------------- sweep --

@dataclass
class SweepProblem:
    problem: str
    ode: object
    constraints: list
    m_range: range
    expected: str


class Sweep(Workload):
    """One m_sweep over a catalog problem's own m range, N = 1000."""

    name = "sweep"
    traced_ops = 7
    PROBLEMS = ("eq26", "sec42", "eq27", "eq28")
    # Indices into PROBLEMS, one block of the schedule. eq26, sec42 and
    # eq27 take about the same time and eq28 half as long again. With eq28
    # one op in seven the median falls inside that cluster, and the tail
    # percentile (ten samples beyond it) inside the eq28 ops: near their
    # middle rather than among their slowest few, where interference from
    # other processes decides the value, and still above their fastest when
    # a slow machine completes half as many ops.
    BLOCK = (0, 0, 1, 1, 2, 2, 3)
    N = 1000

    def prepare(self, seed, workdir, wrap=identity_wrap):
        from tfc_solve import catalog

        out = []
        for pid in self.PROBLEMS:
            entry = catalog.get(pid)
            lo, hi = entry.sweep
            out.append(SweepProblem(pid, entry.ode(), entry.constraint_triples(),
                                    range(lo, hi + 1), entry.expected_class))
        return out

    def schedule(self, seed, inputs, refs):
        rng = np.random.default_rng([seed, 2])
        while True:
            yield from (self.BLOCK[i] for i in rng.permutation(len(self.BLOCK)))

    def run(self, inputs, spec, wrap=identity_wrap):
        p = inputs[spec]
        return tfc_solve.m_sweep(p.ode, p.constraints, p.m_range, N=self.N)

    def check(self, inputs, refs, spec, report):
        p = inputs[spec]
        ok = report.classification == p.expected
        err = None
        if p.expected == "converged":
            best = [r for r in report.per_m if r.m == report.best_m]
            err = best[0].residual_std if best else math.inf
        return ok, err, f"{p.problem}: {report.classification}, expected {p.expected}"


# -------------------------------------------------------------- control --

CONTROL_TF = 2.0
CONTROL_OMEGA = 2.0
CONTROL_STEPS = 4000
CONTROL_EVAL_STRIDE = 4  # 1001 evaluation points on the RK4 grid itself


def lqr_params(rng):
    """LQR family: seeded weights and a seeded time-varying stiffness.

    Ranges are narrow enough that every member keeps m = 17 errors near
    1e-10, far inside the 1e-6 check and far above the oracle's own error.
    """
    phi = rng.uniform(0.0, 2.0 * np.pi)
    return {
        "q1": rng.uniform(0.5, 2.0), "q2": rng.uniform(0.5, 2.0),
        "r": rng.uniform(0.5, 2.0),
        "k0": rng.uniform(0.8, 1.2), "k1": rng.uniform(0.4, 0.6),
        "x0": [float(np.cos(phi)), float(np.sin(phi))],
    }


def lqr_numpy(p, wrap=identity_wrap):
    """x'' = -k(t) x + u with cost q1 x^2 + q2 x'^2 + r u^2; numpy A(t)."""
    k0, k1, q1, q2, r = p["k0"], p["k1"], p["q1"], p["q2"], p["r"]
    a12 = np.array([[0.0, 0.0], [0.0, -1.0 / r]])
    a21 = np.array([[-q1, 0.0], [0.0, -q2]])

    def a11(t):
        return np.array([[0.0, 1.0], [-(k0 + k1 * np.sin(CONTROL_OMEGA * t)), 0.0]])

    def a22(t):
        return np.array([[0.0, k0 + k1 * np.sin(CONTROL_OMEGA * t)], [-1.0, 0.0]])

    return tfc_solve.StateCostateProblem(
        A11=wrap("control.A", a11), A12=wrap("control.A", lambda t: a12),
        A21=wrap("control.A", lambda t: a21), A22=wrap("control.A", a22),
        x0=p["x0"], lambda_f=[0.0, 0.0], t0=0.0, tf=CONTROL_TF)


def lqr_document(p, solver=None):
    """The same problem as a CLI problem file, A as parsed expressions."""
    f = lambda v: repr(float(v))  # noqa: E731  (17 significant digits)
    k = f"({f(p['k0'])} + {f(p['k1'])}*sin({f(CONTROL_OMEGA)}*t))"
    doc = {
        "schema_version": 1, "kind": "control", "interval": [0.0, CONTROL_TF],
        "A11": [["0", "1"], ["-" + k, "0"]],
        "A12": [["0", "0"], ["0", f(-1.0 / p["r"])]],
        "A21": [[f(-p["q1"]), "0"], ["0", f(-p["q2"])]],
        "A22": [["0", k], ["-1", "0"]],
        "x0": p["x0"], "lambda_f": [0.0, 0.0],
    }
    if solver:
        doc["solver"] = solver
    return doc


def shoot_reference(p):
    """(t, z) on every CONTROL_EVAL_STRIDE-th RK4 node, z rows x1 x2 l1 l2."""
    ts, zs = tfc_solve.shoot_state_costate(lqr_numpy(p), steps=CONTROL_STEPS)
    return ts[::CONTROL_EVAL_STRIDE], zs[::CONTROL_EVAL_STRIDE].T


@dataclass
class ControlProblem:
    kind: str
    family: int
    problem: object


@dataclass
class ControlSpec:
    problem: int
    m: int
    N: int
    t: np.ndarray


class Control(Workload):
    """solve_state_costate, then state and costate at 1001 points."""

    name = "control"
    traced_ops = 27
    FAMILY = 2
    M = (17, 20)
    # Ops per (problem, m) in one block, by N. Parsed A at N = 1000 is the
    # slowest kind; at one op in 13.5 the tail percentile falls inside those
    # ops, whether a run completes 300 ops or 600. Numpy A at N = 1000 is
    # the largest share, so the median falls inside its latency mode
    # instead of in the gap between two.
    NS = {"parsed": {200: 4, 1000: 2}, "numpy": {200: 4, 1000: 17}}

    def _params(self, seed):
        rng = np.random.default_rng([seed, 3])
        return [lqr_params(rng) for _ in range(self.FAMILY)]

    def write_inputs(self, seed, workdir):
        for i, p in enumerate(self._params(seed)):
            with open(os.path.join(workdir, f"control-{i}.json"), "w") as fh:
                json.dump(lqr_document(p), fh)

    def prepare(self, seed, workdir, wrap=identity_wrap):
        import tfc_solve.cli

        out = []
        for i, p in enumerate(self._params(seed)):
            loaded = tfc_solve.cli.load_problem(os.path.join(workdir, f"control-{i}.json"))
            parsed = loaded.control
            parsed = replace(parsed, **{a: wrap("control.A", getattr(parsed, a))
                                        for a in ("A11", "A12", "A21", "A22")})
            out.append(ControlProblem("parsed", i, parsed))
            out.append(ControlProblem("numpy", i, lqr_numpy(p, wrap)))
        return out

    def references(self, seed, inputs):
        return [shoot_reference(p) for p in self._params(seed)]

    def schedule(self, seed, inputs, refs):
        rng = np.random.default_rng([seed, 4])
        combos = [ControlSpec(i, m, n, refs[p.family][0])
                  for i, p in enumerate(inputs) for m in self.M
                  for n, count in self.NS[p.kind].items() for _ in range(count)]
        while True:
            yield from (combos[i] for i in rng.permutation(len(combos)))

    def run(self, inputs, spec, wrap=identity_wrap):
        p = inputs[spec.problem]
        sol = tfc_solve.solve_state_costate(
            p.problem, tfc_solve.CollocationConfig(m=spec.m, N=spec.N))
        return np.vstack([wrap("control.eval", sol.state, first_arg_size)(spec.t),
                          wrap("control.eval", sol.costate, first_arg_size)(spec.t)])

    def check(self, inputs, refs, spec, z):
        p = inputs[spec.problem]
        err = relative_error(z, refs[p.family][1])
        return err <= TOL, err, f"{p.kind} #{p.family} m={spec.m} N={spec.N}"


# ------------------------------------------------------------------ cli --

CLI_COMMANDS = (
    # (subcommand, problem, expected exit code, expected class)
    ("solve", "catalog:eq19", 0, None),
    ("sweep", "catalog:eq26", 0, "converged"),
    ("classify", "catalog:eq27", 2, "no_solution"),
    ("control", "control", 0, None),
)


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def digest(outdir):
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Cli(Workload):
    """One `python -m tfc_solve.cli` subprocess per op.

    A traced run calls cli.main in process instead, so that the spans of
    loading, computing and writing can be recorded.
    """

    name = "cli"
    traced_ops = 4

    @staticmethod
    def _params(seed):
        return lqr_params(np.random.default_rng([seed, 5]))

    def write_inputs(self, seed, workdir):
        # N = 1001 puts the CSV rows on the reference's RK4 nodes.
        doc = lqr_document(self._params(seed),
                           {"m": 20, "N": CONTROL_STEPS // CONTROL_EVAL_STRIDE + 1})
        with open(os.path.join(workdir, "cli-control.json"), "w") as fh:
            json.dump(doc, fh)

    def prepare(self, seed, workdir, wrap=identity_wrap):
        import tfc_solve.cli

        path = os.path.join(workdir, "cli-control.json")
        tfc_solve.cli.load_problem(path)
        return {"control": path, "workdir": workdir}

    def references(self, seed, inputs):
        # digests: the first output of each command in this run.
        return {"control": shoot_reference(self._params(seed)), "digests": {}}

    def schedule(self, seed, inputs, refs):
        rng = np.random.default_rng([seed, 6])
        while True:
            yield from (int(i) for i in rng.permutation(len(CLI_COMMANDS)))

    def _argv(self, inputs, spec):
        sub, problem, _, _ = CLI_COMMANDS[spec]
        outdir = os.path.join(inputs["workdir"], "out", sub)
        return [sub, inputs.get(problem, problem), "--out", outdir], outdir

    def before(self, inputs, spec):
        # A stale file must not pass for a missing one.
        _, outdir = self._argv(inputs, spec)
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)

    def run(self, inputs, spec, wrap=identity_wrap):
        argv, outdir = self._argv(inputs, spec)
        proc = subprocess.run([sys.executable, "-m", "tfc_solve.cli", *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        return proc.returncode, outdir, proc.stderr.decode(errors="replace")

    def run_traced(self, inputs, spec, wrap=identity_wrap):
        import tfc_solve.cli

        argv, outdir = self._argv(inputs, spec)
        return tfc_solve.cli.main(argv), outdir, ""

    def check(self, inputs, refs, spec, result):
        code, outdir, stderr = result
        sub, problem, want_code, want_class = CLI_COMMANDS[spec]
        what = f"{sub} {problem}"
        if code != want_code:
            return False, None, f"{what}: exit {code}, expected {want_code}: {stderr.strip()[-200:]}"
        try:
            with open(os.path.join(outdir, "report.json")) as fh:
                report = strict_json(fh.read())
        except (OSError, ValueError) as exc:
            return False, None, f"{what}: report.json: {exc}"
        err = None
        if want_class is not None and report.get("classification") != want_class:
            return False, None, f"{what}: class {report.get('classification')}"
        if sub == "solve":
            err = report.get("max_error")
            if isinstance(err, bool) or not isinstance(err, (int, float)) or not err <= TOL:
                return False, err, f"{what}: max_error {err!r}"
        if sub == "control":
            err = self._control_error(outdir, refs["control"])
            if not err <= TOL:
                return False, err, f"{what}: solution.csv error {err:.3e}"
        d = digest(outdir)
        first = refs["digests"].setdefault(spec, d)
        if d != first:
            return False, err, f"{what}: outputs differ from the first run of this command"
        return True, err, what

    @staticmethod
    def _control_error(outdir, ref):
        t_ref, z_ref = ref
        try:
            data = np.loadtxt(os.path.join(outdir, "solution.csv"), delimiter=",",
                              skiprows=1, ndmin=2)
        except (OSError, ValueError):
            return math.inf
        if data.shape != (t_ref.size, 5):
            return math.inf
        return max(relative_error(data[:, 0], t_ref), relative_error(data[:, 1:].T, z_ref))


WORKLOADS = {w.name: w for w in (Solve, Sweep, Control, Cli)}
