"""The benchmark tracer (bench/tracer.py) finds every name it patches, and
uninstalling it puts each original back.

The tracer looks its names up on deltavar's modules (``solver.splu``,
``solver.functional_hessian``, ...), so a rename there breaks the traced
benchmark run; this test fails at once instead.
"""
from __future__ import annotations

import importlib.util
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
