#!/usr/bin/env python3
"""Benchmark for tfc_solve.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. With ``--trace 0`` it prints the
end-to-end metrics (op latency, throughput, set-up time, memory, accuracy;
timings scaled to a reference host, see calibrate.py), with ``--trace 1``
the per-layer metrics of a traced run. Every op is
checked against a reference the benchmark builds itself; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for the workloads and the meaning of each metric.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("solve", "sweep", "control", "cli")

SETUP_REPEATS = 7
PROBE_REPEATS = 5
WARMUP_OPS = 2
# One BLAS thread: one client in one process, and steadier timings on a
# shared machine. Children inherit the same environment.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
ERROR_FLOOR = 1e-17  # error_digits of an exact answer
UNITS = {"op_ms_p50": "ms", "op_ms_tail": "ms", "ops_per_s": "1/s", "setup_s": "s"}

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import tfc_solve
t1 = time.perf_counter()
sys.path.insert(0, {bench!r})
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[{name!r}]().prepare({seed}, {workdir!r})
t3 = time.perf_counter()
print((t1 - t0) + (t3 - t2))
"""

IMPORT_CHILD = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import tfc_solve
t2 = time.perf_counter()
import tfc_solve.catalog
t3 = time.perf_counter()
import tfc_solve.cli
t4 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "package": t4 - t1, "self_check": t3 - t2}))
"""


def run_child(code, timeout=120):
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def setup_seconds(name, seed, workdir):
    """Import plus input preparation, in a fresh interpreter."""
    code = SETUP_CHILD.format(bench=str(BENCH_DIR), name=name, seed=seed, workdir=str(workdir))
    return float(run_child(code))


def startup_probes():
    """CLI start-up split, each part a median over fresh interpreters."""
    starts = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        run_child("pass")
        starts.append(time.perf_counter() - t0)
    parts = [json.loads(run_child(IMPORT_CHILD)) for _ in range(PROBE_REPEATS)]
    out = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    out["python_start"] = statistics.median(starts)
    return out


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Runner:
    def __init__(self, workload, inputs, refs):
        self.wl = workload
        self.inputs = inputs
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.failures = []

    def op(self, spec, run, wrap, tracer=None, op_id=-1):
        """Run and check one op; its latency in seconds, failed or not."""
        self.wl.before(self.inputs, spec)
        self.attempted += 1
        if tracer:
            tracer.begin_op(op_id)
        t0 = time.perf_counter()
        try:
            out = run(self.inputs, spec, wrap)
        except Exception as exc:  # a failed op is counted, the loop goes on
            out = exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_op()
        if isinstance(out, Exception):
            ok, err, what = False, None, f"{type(out).__name__}: {out}"
        else:
            ok, err, what = self.wl.check(self.inputs, self.refs, spec, out)
        if err is not None:
            self.errors.append(err)
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return dt

    def error_digits(self):
        if not self.errors:
            return 0.0
        worst = max(self.errors)
        return -math.log10(max(worst, ERROR_FLOOR)) if worst < math.inf else 0.0


def end_to_end(wl, runner, args, workdir):
    from calibrate import Calibration
    from workloads import identity_wrap

    specs = wl.schedule(args.seed, runner.inputs, runner.refs)
    for spec in islice(wl.schedule(args.seed, runner.inputs, runner.refs), WARMUP_OPS):
        runner.op(spec, wl.run, identity_wrap)
    cal = Calibration()
    # Set-up samples are spread over the run, between ops, so that one
    # slow stretch of a shared machine does not decide their median.
    # Each timing keeps the time it was taken at, for its calibration scale.
    setups, setup_at = [], []
    latencies, op_at = [], []
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < args.seconds:
        cal.maybe_sample()
        start = time.perf_counter()
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(setup_seconds(wl.name, args.seed, workdir))
            setup_at.append(start + 0.5 * (time.perf_counter() - start))
            continue
        latencies.append(runner.op(next(specs), wl.run, identity_wrap))
        op_at.append(start + 0.5 * latencies[-1])
    while len(setups) < SETUP_REPEATS:
        start = time.perf_counter()
        setups.append(setup_seconds(wl.name, args.seed, workdir))
        setup_at.append(start + 0.5 * (time.perf_counter() - start))
    cal.sample()
    scaled = cal.to_reference(op_at, latencies)
    scaled_setups = cal.to_reference(setup_at, setups)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.name == "cli"
                               else resource.RUSAGE_SELF)

    def timings(ops_s, setups_s):
        return {
            "op_ms_p50": 1e3 * statistics.median(ops_s),
            "op_ms_tail": 1e3 * tail(ops_s)[0],
            "ops_per_s": len(ops_s) / sum(ops_s),
            "setup_s": statistics.median(setups_s),
        }

    # Timings in reference time (see calibrate.py); the raw ones go to notes.
    ref = timings(list(scaled), list(scaled_setups))
    metrics = {k: (v, UNITS[k]) for k, v in ref.items()}
    metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024.0, "MB")
    metrics["error_digits"] = (runner.error_digits(), "digits")
    notes = {"ops_timed": len(latencies), "tail_percentile": round(tail(latencies)[1], 2),
             "calibration_ms": cal.median_ms(), "calibration_samples": len(cal.samples),
             "raw": timings(latencies, setups)}
    return metrics, notes


def traced(wl, runner, args, workdir, inputs_plain):
    """Alternate untraced and traced passes over one fixed op list."""
    from tracer import Tracer
    from workloads import identity_wrap

    tracer = Tracer()
    tracer.install()
    try:
        inputs_traced = wl.prepare(args.seed, str(workdir), tracer.wrap)
        runner.refs = wl.references(args.seed, inputs_plain)
    finally:
        tracer.uninstall()
    ops = list(islice(wl.schedule(args.seed, inputs_plain, runner.refs), wl.traced_ops))
    for spec in ops[:WARMUP_OPS]:
        runner.op(spec, wl.run_traced, identity_wrap)

    plain, with_trace = [], []
    n_traced = 0
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or not with_trace:
        runner.inputs = inputs_plain
        for spec in ops:
            plain.append(runner.op(spec, wl.run_traced, identity_wrap))
        runner.inputs = inputs_traced
        tracer.install()
        try:
            for spec in ops:
                with_trace.append(runner.op(spec, wl.run_traced, tracer.wrap, tracer, n_traced))
                n_traced += 1
        finally:
            tracer.uninstall()
    runner.inputs = inputs_plain
    probes = startup_probes()
    cli_probe(tracer, runner, args.seed, workdir)
    tracer.save(workdir / "spans.npz")
    overhead_ms = 1e3 * (statistics.median(with_trace) - statistics.median(plain))
    metrics = layer_metrics(tracer, n_traced, probes, overhead_ms)
    return metrics, {"ops_traced": n_traced, "passes": n_traced // len(ops)}


def cli_probe(tracer, runner, seed, workdir):
    """Each CLI command once through an in-process, traced cli.main.

    The spans fall outside every op, so the per-op metrics do not see them;
    they give the cli.* split on every workload. The commands are checked
    like the cli workload's ops and count in the run's attempted and failed.
    """
    import workloads

    cli = workloads.Cli()
    probe_dir = workdir / "cli-probe"
    probe_dir.mkdir(exist_ok=True)
    cli.write_inputs(seed, str(probe_dir))
    inputs = cli.prepare(seed, str(probe_dir))
    probe = Runner(cli, inputs, cli.references(seed, inputs))
    tracer.install()
    try:
        for spec in range(len(workloads.CLI_COMMANDS)):
            probe.op(spec, cli.run_traced, tracer.wrap)
    finally:
        tracer.uninstall()
    runner.attempted += probe.attempted
    runner.failed += probe.failed
    runner.failures += probe.failures


def cli_split(tracer):
    """(cli.main calls, its seconds, load seconds and write seconds within it)."""
    import numpy as np

    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    dur = a["end"] - a["start"]
    main_id = ids.get("cli.main", -1)

    def inside_main(i):
        while i >= 0:
            if a["name"][i] == main_id:
                return True
            i = a["parent"][i]
        return False

    def within(name):
        idx = np.flatnonzero(a["name"] == ids.get(name, -1))
        return float(sum(dur[i] for i in idx if inside_main(a["parent"][i])))

    main = a["name"] == main_id
    return int(main.sum()), float(dur[main].sum()), within("cli.load_problem"), within("cli.write")


def layer_metrics(tracer, n_ops, probes, overhead_ms):
    summary = tracer.summarize()
    op, every = summary["op"], summary["all"]
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "amount": 0.0}

    def per_op(name, field="calls"):
        return op.get(name, zero)[field] / n_ops

    def self_ms(name):
        return 1e3 * per_op(name, "self_s")

    def per_call_ms(name):
        s = every.get(name, zero)
        return 1e3 * s["incl_s"] / s["calls"] if s["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    root = op.get("op", zero)
    layer_self = sum(v["self_s"] for k, v in op.items() if k != "op")
    cli_calls, cli_s, load, write = cli_split(tracer)
    shoot = every.get("oracle.shoot", zero)
    rk4 = every.get("oracle.rk4", zero)
    m = {
        "embedding.beta_eval.ms": (self_ms("embedding.beta_eval"), "ms"),
        "embedding.beta_eval.calls": (per_op("embedding.beta_eval"), "count"),
        "embedding.beta_eval.points": (per_op("embedding.beta_eval", "amount"), "count"),
        "embedding.beta_eval.useful_ratio": (
            ratio(tracer.beta_distinct, tracer.beta_points), "ratio"),
        "embedding.expr_eval.ms": (self_ms("embedding.expr_eval"), "ms"),
        "chebyshev.grid.ms": (self_ms("chebyshev.grid"), "ms"),
        "chebyshev.grid.calls": (per_op("chebyshev.grid"), "count"),
        "chebyshev.grid.cells": (per_op("chebyshev.grid", "amount"), "count"),
        "chebyshev.point.calls": (per_op("chebyshev.point"), "count"),
        "problem.coefficients.ms": (self_ms("problem.coefficients"), "ms"),
        "problem.coefficients.calls": (per_op("problem.coefficients"), "count"),
        "exprparse.compile.ms": (per_call_ms("exprparse.compile"), "ms"),
        "exprparse.eval.ms": (self_ms("exprparse.eval"), "ms"),
        "exprparse.eval.calls": (per_op("exprparse.eval"), "count"),
        "exprparse.eval.scalar_calls": (per_op("exprparse.eval", "amount"), "count"),
        "solver.solve_problem.ms": (self_ms("solver.solve_problem"), "ms"),
        "solver.assemble.ms": (self_ms("solver.assemble"), "ms"),
        "solver.assemble.calls": (per_op("solver.assemble"), "count"),
        "solver.assemble.column_reuse": (
            ratio(tracer.columns_distinct, tracer.columns_assembled), "ratio"),
        "solver.solve_ls.ms": (self_ms("solver.solve_ls"), "ms"),
        "solver.solve_ls.calls": (per_op("solver.solve_ls"), "count"),
        "solver.solve_ls.cells": (per_op("solver.solve_ls", "amount"), "count"),
        "solver.solution.ms": (self_ms("solver.solution"), "ms"),
        "solver.solution.points": (per_op("solver.solution", "amount"), "count"),
        "solver.m_sweep.ms": (self_ms("solver.m_sweep"), "ms"),
        "diagnostics.classify.ms": (self_ms("diagnostics.classify"), "ms"),
        "diagnostics.classify.calls": (per_op("diagnostics.classify"), "count"),
        "control.solve.ms": (self_ms("control.solve"), "ms"),
        "control.assemble.ms": (self_ms("control.assemble"), "ms"),
        "control.assemble.calls": (per_op("control.assemble"), "count"),
        "control.A.calls": (per_op("control.A"), "count"),
        "control.solve_ls.ms": (self_ms("control.solve_ls"), "ms"),
        "control.eval.ms": (self_ms("control.eval"), "ms"),
        "oracle.shoot.ms": (1e3 * ratio(shoot["incl_s"], shoot["calls"]), "ms"),
        "oracle.rk4.steps": (ratio(rk4["amount"], shoot["calls"]), "count"),
        "catalog.self_check.ms": (1e3 * probes["self_check"], "ms"),
        "cli.python_start.ms": (1e3 * probes["python_start"], "ms"),
        "cli.numpy_import.ms": (1e3 * probes["numpy"], "ms"),
        "cli.package_import.ms": (1e3 * probes["package"], "ms"),
        "cli.load_problem.ms": (per_call_ms("cli.load_problem"), "ms"),
        "cli.compute.ms": (1e3 * ratio(cli_s - load - write, cli_calls), "ms"),
        "cli.write.ms": (1e3 * ratio(write, cli_calls), "ms"),
        "cli.write.bytes": (ratio(every.get("cli.write", zero)["amount"], cli_calls), "B"),
        "trace.overhead": (overhead_ms, "ms"),
        "trace.coverage": (ratio(layer_self, root["incl_s"]), "ratio"),
    }
    return m


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def context(seed):
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(deps.get(k, "")) for k in ("name", "version", "openblas configuration"))
    except Exception:  # older numpy: no dict mode
        pass
    loc = sum(len(p.read_text().splitlines()) for p in (SRC / "tfc_solve").glob("*.py"))
    return {
        "git_sha": git_sha(), "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": blas.strip(), "nproc": len(os.sched_getaffinity(0)), "seed": seed,
        "src_loc": loc, "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
    }


def bootstrap():
    """Make the checkout's package importable; a reason if it is not."""
    if not (SRC / "tfc_solve" / "__init__.py").is_file():
        return f"no tfc_solve sources under {SRC}; run from a source checkout"
    # Before numpy loads BLAS; every child process inherits both.
    os.environ.update(THREAD_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import tfc_solve

    if Path(tfc_solve.__file__).resolve().parent != (SRC / "tfc_solve").resolve():
        return f"imported tfc_solve from {tfc_solve.__file__}, not from {SRC}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = bootstrap()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    # One directory per workload, overwritten by each run, so repeated
    # runs do not pile up span files.
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl.write_inputs(args.seed, str(workdir))
    inputs = wl.prepare(args.seed, str(workdir))
    runner = Runner(wl, inputs, None)

    if args.trace:
        metrics, notes = traced(wl, runner, args, workdir, inputs)
    else:
        runner.refs = wl.references(args.seed, inputs)
        metrics, notes = end_to_end(wl, runner, args, workdir)

    ctx = context(args.seed)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, context=ctx,
                  notes=notes, failures=runner.failures)
    with open(workdir / f"record-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print("notes " + json.dumps(notes))
    print("context " + json.dumps(ctx))
    for what in runner.failures:
        print(f"FAILED {what}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
