"""The benchmark tracer (bench/tracer.py) finds every name it patches,
uninstalling it puts each original back, and it still counts when it is
installed before SciPy's submodules load.

The tracer looks its names up on deltavar's modules (``solver.splu``,
``solver.functional_hessian``, ...), so a rename there breaks the traced
benchmark run; this test fails at once instead.
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from deltavar import cli, euler_lagrange, expr, functional, oracle, solver

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = (cli, euler_lagrange, expr, functional, oracle, solver)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_patched_name():
    before = [dict(vars(m)) for m in MODULES]
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for module, attr, original in patches:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for module, attr, original in patches:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    for module, names in zip(MODULES, before):
        now = vars(module)
        assert now.keys() == names.keys()
        assert all(now[k] is v for k, v in names.items()), module.__name__



FRESH_PROGRAM = """
import contextlib, importlib.util, io, json, sys
from deltavar import cli, solver

spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
tracer = module.Tracer()
tracer.install()
patches = list(tracer._patches)
try:
    lazy = "sparse" not in vars(solver.scipy)
    tracer.begin_op(0)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", "quotient1", "--h-override", "1e-2", "--restarts", "4"])
        scan_code = cli.main(["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "-10,10"])
    totals = tracer.layer_totals(1)
finally:
    tracer.uninstall()
print(json.dumps({
    "code": code,
    "scan_code": scan_code,
    "lazy": lazy,
    "calls": {name: totals.get(name, {}).get("calls", 0)
              for name in ("solver.splu", "solver.lu_factor", "solver.solve",
                           "oracle.scan_low_dim")},
    "unrestored": [f"{m.__name__}.{a}" for m, a, o in patches if getattr(m, a) is not o],
}))
"""


def test_tracer_installed_before_scipy_loads_still_counts():
    """The tracer replaces ``solver.scipy`` with a copy made at install time.
    In a fresh process scipy.sparse is not loaded yet, so the copy lacks
    ``sparse`` and reaches it through SciPy's lazy ``__getattr__``; the banded
    factor and the capacitance LU must still fire their spans.  The solve and
    the scan fire the spans the tracer puts on ``cli``'s names, so the
    commands call the solver and the oracle through those names."""
    src = str(Path(solver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_PROGRAM, str(TRACER)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert result["lazy"]  # the case under test: the copy holds no scipy.sparse
    assert result["calls"]["solver.splu"] > 0  # d = 199 > DENSE_NEWTON_LIMIT
    assert result["calls"]["solver.lu_factor"] > 0
    assert result["scan_code"] == 0
    assert result["calls"]["solver.solve"] == 1
    assert result["calls"]["oracle.scan_low_dim"] == 1
    assert result["unrestored"] == []
