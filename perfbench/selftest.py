#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

For every workload it runs real ops, confirms that each passes its check,
then hands the runner a perturbed answer and confirms that the op is
counted as failed. It also confirms that the three (problem, constraint)
pairs the solve workload excludes are the singular ones and that no other
pair is left out. Exits non-zero on the first check that does not hold.
"""

import dataclasses
import json
import os
import sys
from itertools import islice

import run


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def counts_as_failed(wl, inputs, refs, spec, perturbed_run):
    from workloads import identity_wrap

    runner = run.Runner(wl, inputs, refs)
    runner.op(spec, perturbed_run, identity_wrap)
    return runner.failed == 1 and runner.attempted == 1


def check_workload(workloads, name, perturb, n_ops=2):
    wl = workloads.WORKLOADS[name]()
    workdir = run.WORK / "selftest" / name
    workdir.mkdir(parents=True, exist_ok=True)
    wl.write_inputs(0, str(workdir))
    inputs = wl.prepare(0, str(workdir))
    refs = wl.references(0, inputs)
    for spec in islice(wl.schedule(0, inputs, refs), n_ops):
        runner = run.Runner(wl, inputs, refs)
        runner.op(spec, wl.run, workloads.identity_wrap)
        expect(runner.failed == 0, f"{name}: a real op passes its check")

        def perturbed_run(inputs_, spec_, wrap):
            return perturb(wl, inputs_, spec_, wl.run(inputs_, spec_, wrap))

        expect(counts_as_failed(wl, inputs, refs, spec, perturbed_run),
               f"{name}: a perturbed answer counts as failed")


def perturb_cli(wl, inputs, spec, result):
    code, outdir, stderr = result
    sub = os.path.basename(outdir)
    if sub == "classify":
        return 0, outdir, stderr  # wrong exit code for a no_solution problem
    path = os.path.join(outdir, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    report["max_error" if sub == "solve" else "problem"] = float("nan")
    with open(path, "w") as fh:
        json.dump(report, fh)  # NaN is not strict JSON
    return code, outdir, stderr


def main():
    problem = run.bootstrap()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import numpy as np
    import tfc_solve
    import workloads

    check_workload(workloads, "solve", lambda wl, i, s, y: y + 1e-5 * np.maximum(1.0, np.abs(y)))
    check_workload(workloads, "sweep", lambda wl, i, s, r: dataclasses.replace(
        r, classification="indeterminate"), n_ops=4)
    check_workload(workloads, "control", lambda wl, i, s, z: z * (1.0 + 1e-5))
    check_workload(workloads, "cli", perturb_cli, n_ops=4)

    # Byte-identity: a second run of a command whose output changed fails.
    wl = workloads.WORKLOADS["cli"]()
    workdir = run.WORK / "selftest" / "cli"
    inputs = wl.prepare(0, str(workdir))
    refs = wl.references(0, inputs)
    solve = 0  # index of `solve catalog:eq19`
    first = run.Runner(wl, inputs, refs)
    first.op(solve, wl.run, workloads.identity_wrap)

    def drifted(inputs_, spec_, wrap):
        code, outdir, stderr = wl.run(inputs_, spec_, wrap)
        with open(os.path.join(outdir, "solution.csv"), "a") as fh:
            fh.write("\n")
        return code, outdir, stderr

    expect(first.failed == 0 and counts_as_failed(wl, inputs, refs, solve, drifted),
           "cli: output that differs between repeats counts as failed")

    # The solve workload leaves out exactly the singular pairs.
    solve_wl = workloads.WORKLOADS["solve"]()
    pairs = solve_wl.prepare(0, str(workdir))
    expect(len(pairs) == 21, "solve: 21 of the 24 (problem, case) pairs are inputs")
    from tfc_solve import catalog

    for (pid, cid), reason in workloads.NOT_UNIQUE.items():
        entry = catalog.get(pid)
        case = next(c for c in workloads.CASES if workloads.case_id(c) == cid)
        t1, t2 = entry.interval
        constraints = [(o, (t1, t2)[e], float(entry.analytic(np.array([(t1, t2)[e]]))[o][0]))
                       for o, e in case]
        sol = tfc_solve.solve_problem(entry.ode(), constraints,
                                      tfc_solve.CollocationConfig(m=17, N=1000))
        expect(sol.cond_PtP > 1e25, f"solve: {pid} {cid} excluded, cond(PtP) = "
               f"{sol.cond_PtP:.1e} ({reason})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
