#!/usr/bin/env python3
"""Measure each row of ROADMAP.md's baseline table, printed beside its value.

    python3 perfbench/roadmap_rows.py

Each row is the best of five runs, as the table states its own numbers.
Stage rows (assemble, BetaSet.eval, ...) are inclusive span times from the
benchmark's tracer around one solve_problem call. The ROADMAP values are
copied here as they stand; this script never edits ROADMAP.md. Rows whose
problem the table does not name use the regulator problem from the control
tests (double integrator, constant A, t in [0, 2]).
"""

import json
import os
import subprocess
import sys
import time

import run

REPEATS = 5

LQR = {
    "schema_version": 1, "kind": "control", "interval": [0.0, 2.0],
    "A11": [["0", "1"], ["0", "0"]], "A12": [["0", "0"], ["0", "-1"]],
    "A21": [["-1", "0"], ["0", "0"]], "A22": [["0", "0"], ["-1", "0"]],
    "x0": [1.0, 0.0], "lambda_f": [0.0, 0.0], "solver": {"m": 17, "N": 1000},
}


def best_ms(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def span_ms(tracer, fn, names, repeats=REPEATS):
    """Best-of inclusive ms per span name (summed over calls in one run)."""
    best = {n: float("inf") for n in names}
    for _ in range(repeats):
        start = len(tracer.start)
        fn()
        for n in names:
            i = tracer.names.index(n) if n in tracer.names else -1
            total = sum(tracer.end[k] - tracer.start[k]
                        for k in range(start, len(tracer.start)) if tracer.name[k] == i)
            best[n] = min(best[n], 1e3 * total)
    return best


def main():
    problem = run.bootstrap()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import numpy as np
    import tfc_solve
    import tfc_solve.cli
    from tfc_solve import catalog
    from tracer import Tracer

    workdir = run.WORK / "roadmap"
    workdir.mkdir(parents=True, exist_ok=True)
    lqr_path = str(workdir / "lqr.json")
    with open(lqr_path, "w") as fh:
        json.dump(LQR, fh)

    rows = []
    eq19 = catalog.get("eq19")
    ode, constraints = eq19.ode(), eq19.constraint_triples()
    cfg = tfc_solve.CollocationConfig(m=17, N=1000)
    rows.append(("solve_problem eq19, m=17, N=1000", "10.5 ms",
                 best_ms(lambda: tfc_solve.solve_problem(ode, constraints, cfg))))

    tracer = Tracer()
    tracer.install()
    try:
        stages = span_ms(tracer, lambda: tfc_solve.solve_problem(ode, constraints, cfg),
                         ["solver.assemble", "embedding.beta_eval", "chebyshev.grid",
                          "problem.coefficients", "solver.solve_ls"])
    finally:
        tracer.uninstall()
    for label, roadmap, name in (
            ("  assemble", "9.3 ms", "solver.assemble"),
            ("  BetaSet.eval x3 (x5 counting the solution's)", "7.0 ms", "embedding.beta_eval"),
            ("  eval_basis_grid (all calls)", "0.45 ms", "chebyshev.grid"),
            ("  coefficients_at", "0.10 ms", "problem.coefficients"),
            ("  solve_ls", "0.74 ms", "solver.solve_ls")):
        rows.append((label, roadmap, stages[name]))

    sol = tfc_solve.solve_problem(ode, constraints, cfg)
    t = np.linspace(1.0, 4.0, 1001)
    rows.append(("sol.solution at 1001 points", "8.0 ms", best_ms(lambda: sol.solution(t))))

    for pid, roadmap in (("eq26", "201 ms"), ("sec42", "136 ms"), ("eq27", "108 ms"),
                         ("eq28", "170-210 ms")):
        entry = catalog.get(pid)
        lo, hi = entry.sweep
        e_ode, e_con = entry.ode(), entry.constraint_triples()
        rows.append((f"m_sweep {pid} ({lo}..{hi})", roadmap, best_ms(
            lambda: tfc_solve.m_sweep(e_ode, e_con, range(lo, hi + 1), N=1000))))

    parsed = tfc_solve.cli.load_problem(lqr_path).control
    consts = {k: np.array([[float(v) for v in r] for r in LQR[k]])
              for k in ("A11", "A12", "A21", "A22")}
    lam = tfc_solve.StateCostateProblem(
        **{k: (lambda t, a=a: a) for k, a in consts.items()},
        x0=LQR["x0"], lambda_f=LQR["lambda_f"], t0=0.0, tf=2.0)
    for label, roadmap, prob, n in (
            ("solve_state_costate m=17, N=1000, CLI-parsed A", "128 ms", parsed, 1000),
            ("  same with constant-lambda A", "50 ms", lam, 1000),
            ("  same with N=200 (parsed A)", "34 ms", parsed, 200)):
        c = tfc_solve.CollocationConfig(m=17, N=n)
        rows.append((label, roadmap, best_ms(lambda: tfc_solve.solve_state_costate(prob, c))))
    rows.append(("shoot_state_costate (4000 steps, constant-lambda A)", "1.26 s",
                 best_ms(lambda: tfc_solve.shoot_state_costate(lam, steps=4000), 3)))

    outdir = str(workdir / "out")
    for label, roadmap, argv in (
            ("CLI subprocess: solve eq19", "252 ms", ["solve", "catalog:eq19"]),
            ("CLI subprocess: sweep eq26", "351 ms", ["sweep", "catalog:eq26"]),
            ("CLI subprocess: classify eq27", "367 ms", ["classify", "catalog:eq27"]),
            ("CLI subprocess: control (regulator file)", "291 ms", ["control", lqr_path]),
            ("CLI subprocess: sweep eq28", "452 ms", ["sweep", "catalog:eq28"])):
        cmd = [sys.executable, "-m", "tfc_solve.cli", *argv, "--out", outdir]
        rows.append((label, roadmap, best_ms(
            lambda: subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))))

    rows.append(('bare python -c "import numpy"', "123 ms", best_ms(
        lambda: subprocess.run([sys.executable, "-c", "import numpy"]))))
    parts = [json.loads(run.run_child(run.IMPORT_CHILD)) for _ in range(REPEATS)]
    numpy_ms = 1e3 * min(p["numpy"] for p in parts)
    package_ms = 1e3 * min(p["numpy"] + p["package"] for p in parts)
    rows.append(("import tfc_solve (+ catalog, cli), cumulative", "83 ms", package_ms))
    rows.append(("  of which numpy", "52 ms", numpy_ms))

    from tfc_solve import shoot_bvp
    e26 = catalog.get("eq26")
    rows.append(("shoot_bvp eq26, 1000 steps (the slowest test's call)", "3.3 s (whole test)",
                 best_ms(lambda: shoot_bvp(e26.ode(), 1.0, 3.0, e26.shoot_bracket, steps=1000),
                         3)))

    print(f"{'row':58s} {'ROADMAP':>20s} {'measured':>12s}")
    for label, roadmap, ms in rows:
        print(f"{label:58s} {roadmap:>20s} {ms:10.2f} ms")
    print("context " + json.dumps(run.context(0)))
    return 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
