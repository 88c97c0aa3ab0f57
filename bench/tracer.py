"""Outside-in layer trace: wraps the public functions each deltavar module
calls into, in the namespace where the caller looks them up.

``solver`` imports ``functional_gradient`` and friends by name, so the
wrapper must replace ``deltavar.solver.functional_gradient``; patching
``deltavar.euler_lagrange`` alone would read zero.  ``functional`` binds
``expr.evaluate`` and ``_first_partials`` re-imports it from ``expr`` at
call time, so both names are patched.  ``solver`` reaches LAPACK through the
module objects ``scipy`` and ``np``; those names are replaced by copies of
the modules whose ``linalg`` holds wrapped functions, so other callers of
``scipy.linalg`` (the oracle) are not counted as solver work.

Spans live in memory as parallel arrays (name, start, end, parent, op id,
time covered by children, error flag) and are written out with
:meth:`Tracer.dump` when the run ends.  Self time is a span's duration minus
the time its child spans cover.  Hot, tiny functions get a call counter
instead of a span.
"""
from __future__ import annotations

import functools
import time
import types
from array import array
from collections import Counter

import numpy as np


def _module_copy(module, **overrides):
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(module.__dict__)
    copy.__dict__.update(overrides)
    return copy


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("d")
        self.error = array("b")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: list[Counter] = []
        self.splu_nnz: list[tuple[int, int]] = []
        self._counted: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts.append(Counter())

    def _span(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        names, parent, op = self.name, self.parent, self.op
        start, end, child, error = self.start, self.end, self.child, self.error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            child.append(0.0)
            error.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                t = clock()
                end[idx] = t
                stack.pop()
                if stack:
                    child[stack[-1]] += t - start[idx]

        return wrapper

    def _counter(self, name: str, fn):
        self._counted.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[-1][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _splu(self, fn):
        traced = self._span("solver.splu", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lu = traced(*args, **kwargs)
            # SuperLU's own count of stored L+U entries; building lu.L and
            # lu.U to count them would copy every factor.
            self.splu_nnz.append((self.op_id, int(lu.nnz)))
            return lu

        return wrapper

    # -- installation ---------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        import scipy
        import scipy.linalg

        from deltavar import cli, euler_lagrange, expr, functional, oracle, solver

        span = self._span
        gradient = span("euler_lagrange.gradient", euler_lagrange.functional_gradient)
        c_gradient = span("euler_lagrange.gradient", euler_lagrange.constraint_gradient)
        embed = span("euler_lagrange.embed_decision", euler_lagrange.embed_decision)
        value = span("functional.value", functional.value)
        inner = span("functional.inner_values", functional.inner_values)
        evaluate = span("expr.evaluate", expr.evaluate)
        table = [
            (cli, "main", span("cli.main", cli.main)),
            (cli, "load_problem", span("problemfile.load", cli.load_problem)),
            (cli, "solve_unconstrained", span("solver.solve", cli.solve_unconstrained)),
            (cli, "solve_isoperimetric", span("solver.solve", cli.solve_isoperimetric)),
            (cli, "scan_low_dim", span("oracle.scan_low_dim", cli.scan_low_dim)),
            (cli, "residual_report",
             span("euler_lagrange.residual_report", cli.residual_report)),
            (cli, "functional_gradient", gradient),
            (cli, "constraint_gradient", c_gradient),
            (cli, "value", value),
            (solver, "functional_gradient", gradient),
            (solver, "constraint_gradient", c_gradient),
            (solver, "functional_hessian",
             span("euler_lagrange.hessian", solver.functional_hessian)),
            (solver, "constraint_hessian",
             span("euler_lagrange.hessian", solver.constraint_hessian)),
            (solver, "hessian_parts", span("euler_lagrange.hessian", solver.hessian_parts)),
            (solver, "embed_decision", embed),
            (solver, "inner_values", inner),
            (solver, "value", value),
            (solver, "c1rd_distance", span("functional.c1rd_distance", solver.c1rd_distance)),
            (solver, "classify", span("solver.classify", solver.classify)),
            (solver, "splu", self._splu(solver.splu)),
            (solver, "scipy", _module_copy(scipy, linalg=_module_copy(
                scipy.linalg,
                lu_factor=span("solver.lu_factor", scipy.linalg.lu_factor),
                lstsq=span("solver.lstsq", scipy.linalg.lstsq),
            ))),
            (solver, "np", _module_copy(np, linalg=_module_copy(
                np.linalg, eigvalsh=span("solver.eigvalsh", np.linalg.eigvalsh),
            ))),
            (oracle, "embed_decision", embed),
            (oracle, "value", value),
            (euler_lagrange, "inner_values", inner),
            (functional, "inner_values", inner),
            (functional, "evaluate", evaluate),
            (expr, "evaluate", evaluate),
            (functional, "delta_derivative",
             self._counter("timescale.delta_derivative", functional.delta_derivative)),
            (functional, "delta_integral",
             self._counter("timescale.delta_integral", functional.delta_integral)),
        ]
        for module, attr, wrapper in table:
            self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results ----------------------------------------------------------------

    def layer_totals(self, last_op: int) -> dict[str, dict[str, float]]:
        """calls, s, self_s and errors per span name over ops 0..last_op-1,
        plus call counts of the counter-only names."""
        name = np.frombuffer(self.name, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        keep = (op >= 0) & (op < last_op)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        self_time = dur - np.frombuffer(self.child, dtype=float)
        err = np.frombuffer(self.error, dtype=np.int8)
        n = len(self.names)
        out = {}
        calls = np.bincount(name[keep], minlength=n)
        total = np.bincount(name[keep], weights=dur[keep], minlength=n)
        own = np.bincount(name[keep], weights=self_time[keep], minlength=n)
        errors = np.bincount(name[keep], weights=err[keep], minlength=n)
        for i, label in enumerate(self.names):
            out[label] = {
                "calls": int(calls[i]),
                "s": float(total[i]),
                "self_s": float(own[i]),
                "errors": int(errors[i]),
            }
        counted = Counter()
        for c in self.counts[:last_op]:
            counted.update(c)
        for label in self._counted:
            out[label] = {"calls": counted[label]}
        return out

    def splu_factor_nnz(self, last_op: int) -> list[int]:
        """Stored L+U entries of every splu factor over ops 0..last_op-1."""
        return [v for o, v in self.splu_nnz if o < last_op]

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            error=np.frombuffer(self.error, dtype=np.int8),
        )
