"""Outside-in span tracer for the tfc_solve package.

Nothing in ``src/`` knows about this module. ``Tracer.install`` rebinds the
package's public functions at run time (in every module that imported
them) and patches three methods on their classes; ``uninstall`` puts the
originals back. Each call into a wrapped function becomes one span:
(name, start, end, parent, op id, amount), where ``amount`` is the one
count that span type carries (points, cells, steps, bytes, ...).

Spans stay in memory in flat arrays and are aggregated (and written) after
the run. A span's self time is its duration minus the time covered by its
direct children; the tracer is single-threaded, so children nest.
"""

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

ROOT = "op"


def _size(x):
    return int(np.size(x))


def _count(amount, args, kwargs):
    """A span's count; a changed call signature loses the count, not the op."""
    if amount is None:
        return 0
    try:
        return amount(args, kwargs)
    except (IndexError, KeyError, TypeError, AttributeError, OSError):
        return 0


def _grid_cells(args, kwargs):
    m_max, d_max, x = args[:3]
    return (int(d_max) + 1) * (int(m_max) + 1) * _size(x)


def _matrix_cells(args, kwargs):
    return int(np.size(args[0]))


def _steps(args, kwargs):
    return int(args[4] if len(args) > 4 else kwargs["steps"])


def _scalar(args, kwargs):
    return 1 if np.ndim(args[0]) == 0 else 0


def _method_points(args, kwargs):
    return _size(args[1])


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


# (defining module, attribute, span name, amount, per-module span names).
# A function is rebound under every name, in every tfc_solve module, that
# refers to the same object; the last field renames the span where a second
# module's call site is a layer of its own (control's solve_ls).
FUNCTIONS = (
    ("solver", "solve_problem", "solver.solve_problem", None, {}),
    ("solver", "assemble", "solver.assemble", None, {}),
    ("solver", "solve_ls", "solver.solve_ls", _matrix_cells,
     {"tfc_solve.control": "control.solve_ls"}),
    ("solver", "m_sweep", "solver.m_sweep", None, {}),
    ("chebyshev", "eval_basis_grid", "chebyshev.grid", _grid_cells, {}),
    ("chebyshev", "eval_basis", "chebyshev.point", None, {}),
    ("diagnostics", "classify", "diagnostics.classify", None, {}),
    ("control", "assemble_state_costate", "control.assemble", None, {}),
    ("control", "solve_state_costate", "control.solve", None, {}),
    ("oracle", "shoot_state_costate", "oracle.shoot", None, {}),
    ("oracle", "rk4_integrate", "oracle.rk4", _steps, {}),
    ("cli", "main", "cli.main", None, {}),
    ("cli", "load_problem", "cli.load_problem", None, {}),
    ("cli", "write_csv", "cli.write", _file_bytes, {}),
    ("cli", "write_json", "cli.write", _file_bytes, {}),
)

METHODS = (
    ("embedding", "BetaSet", "eval", "embedding.beta_eval", _method_points),
    ("embedding", "ConstrainedExpression", "eval", "embedding.expr_eval", None),
    ("problem", "MappedODE", "coefficients_at", "problem.coefficients", None),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = []
        self.op_id = -1
        # Per-op raw material for the ratio metrics, reduced in end_op.
        self._beta_x = []
        self._columns = []
        self.beta_points = 0
        self.beta_distinct = 0
        self.columns_assembled = 0
        self.columns_distinct = 0
        self._restore = []

    # -- spans -------------------------------------------------------------
    def _name_id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.amount.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx, amount=0):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if amount:
            self.amount[idx] = amount

    def wrap(self, name, fn, amount=None):
        """A callable that records one span per call of fn."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx, _count(amount, args, kwargs))

        return traced

    def begin_op(self, op_id):
        self.op_id = op_id
        self._root = self.open(self._name_id(ROOT))

    def end_op(self):
        self.close(self._root)
        self.op_id = -1
        by_deriv = {}
        for deriv, x in self._beta_x:
            by_deriv.setdefault(deriv, []).append(np.ravel(x))
        for xs in by_deriv.values():
            cat = np.concatenate(xs)
            self.beta_points += cat.size
            self.beta_distinct += np.unique(cat).size
        widest = {}
        for key, ncols in self._columns:
            self.columns_assembled += ncols
            widest[key] = max(widest.get(key, 0), ncols)
        self.columns_distinct += sum(widest.values())
        self._beta_x.clear()
        self._columns.clear()

    # -- installation ------------------------------------------------------
    def _package_modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "tfc_solve" or n.startswith("tfc_solve."))]

    def install(self):
        """Rebind the package's public functions and methods to traced ones.

        A target that a later version of the package no longer has is
        skipped; its metrics then read 0.
        """
        importlib.import_module("tfc_solve.cli")  # loads every module to scan
        modules = self._package_modules()
        for modname, attr, span, amount, per_module in FUNCTIONS:
            original = getattr(sys.modules.get(f"tfc_solve.{modname}"), attr, None)
            if original is None:
                continue
            wrappers = {}
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    label = per_module.get(mod.__name__, span)
                    if label not in wrappers:
                        wrappers[label] = self.wrap(label, original, amount)
                    self._rebind(mod, name, wrappers[label], original)

        for modname, cls_name, attr, span, amount in METHODS:
            cls = getattr(sys.modules.get(f"tfc_solve.{modname}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is not None:
                self._rebind(cls, attr, self.wrap(span, original, amount), original)

        self._hook_ratio_inputs(modules)
        self._hook_parse_expression(modules)

    def _rebind(self, owner, name, new, original):
        self._restore.append((owner, name, original))
        setattr(owner, name, new)

    def _hook_ratio_inputs(self, modules):
        """Note the inputs of BetaSet.eval and assemble for the ratio metrics."""
        tracer = self
        betas_cls = getattr(sys.modules.get("tfc_solve.embedding"), "BetaSet", None)
        if betas_cls is not None and "eval" in vars(betas_cls):
            beta_eval = betas_cls.eval

            def beta_eval_noting(*args, **kwargs):
                if len(args) > 1:
                    deriv = args[2] if len(args) > 2 else kwargs.get("deriv", 0)
                    tracer._beta_x.append((deriv, args[1]))
                return beta_eval(*args, **kwargs)

            betas_cls.eval = beta_eval_noting  # the restore entry exists already

        assemble = getattr(sys.modules.get("tfc_solve.solver"), "assemble", None)
        if assemble is None:
            return

        def assemble_noting(*args, **kwargs):
            try:
                _, mapped, cfg = args[:3]
                tracer._columns.append(((id(mapped.ode), cfg.N, cfg.nodes), cfg.m + 1))
            except (ValueError, AttributeError):
                pass
            return assemble(*args, **kwargs)

        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is assemble:
                    setattr(mod, name, assemble_noting)  # restore entries exist already

    def _hook_parse_expression(self, modules):
        """Trace compiling, and every call of a compiled expression."""
        original = getattr(sys.modules.get("tfc_solve.exprparse"), "parse_expression", None)
        if original is None:
            return
        compile_traced = self.wrap("exprparse.compile", original)
        wrap = self.wrap

        def parse_expression(*args, **kwargs):
            return wrap("exprparse.eval", compile_traced(*args, **kwargs), _scalar)

        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, name, parse_expression, original)

    def uninstall(self):
        for owner, name, original in self._restore:
            setattr(owner, name, original)
        self._restore.clear()

    # -- aggregation -------------------------------------------------------
    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "amount": np.array(self.amount, dtype=float),
        }

    def summarize(self):
        """Per span name: calls, self seconds, inclusive seconds, amount.

        Two scopes: "op" holds spans inside timed ops, "all" every span
        (preparation and reference building included).
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        in_op = a["op"] >= 0
        out = {"op": {}, "all": {}}
        for i, name in enumerate(self.names):
            sel = a["name"] == i
            for scope, mask in (("op", sel & in_op), ("all", sel)):
                out[scope][name] = {
                    "calls": int(mask.sum()),
                    "self_s": float(self_time[mask].sum()),
                    "incl_s": float(dur[mask].sum()),
                    "amount": float(a["amount"][mask].sum()),
                }
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
