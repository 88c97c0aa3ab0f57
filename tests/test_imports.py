"""A fresh interpreter loads only the code its commands run.

``deltavar`` resolves the names of ``deltavar.solver`` and ``deltavar.oracle``
on first access, and ``deltavar.cli`` imports them inside the commands that
use them: ``verify`` loads neither, ``scan`` only the oracle.  The solver
imports only the top-level ``scipy`` package and reaches ``scipy.linalg``
and ``scipy.sparse`` by attribute, so SciPy loads them on first use.  On a
machine without a bytecode cache every module loaded is compiled afresh, and
importing ``scipy.linalg`` alone roughly doubles a fresh ``verify``
process's time and memory.  A module-level import of any of them shows up
at once in the benchmark's ``setup_s``: an earlier change that added one was
refused for raising that metric.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltavar
from deltavar import euler_lagrange
from deltavar.cli import main

SRC = str(Path(deltavar.__file__).resolve().parents[1])
WATCHED = ("deltavar.solver", "deltavar.oracle", "scipy", "scipy.linalg", "scipy.sparse")

# Runs each step of argv[1] (a JSON list) in turn: an import, or the argv of
# a command.  Prints, per step, the command's exit code (None for an import)
# and which WATCHED modules are loaded after it.
PROGRAM = """
import contextlib, importlib, io, json, sys

watched = json.loads(sys.argv[2])
out = []
for step in json.loads(sys.argv[1]):
    code = None
    if isinstance(step, str):
        importlib.import_module(step)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            code = sys.modules["deltavar.cli"].main(step)
    out.append([code, [m for m in watched if m in sys.modules]])
print(json.dumps(out))
"""


def fresh(*steps):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, json.dumps(steps), json.dumps(WATCHED)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def solutions(tmp_path_factory):
    """Stored solutions of quotient2_3pt and of iso_3pt, whose verify fits multipliers."""
    out = tmp_path_factory.mktemp("solutions")
    for name in ("quotient2_3pt", "iso_3pt"):
        assert main(["solve", name, "--restarts", "8", "--seed", "1",
                     "--csv", str(out / f"{name}.csv")]) == 0
    return out


def test_verify_and_scan_load_neither_the_solver_nor_scipy(solutions, capsys):
    capsys.readouterr()
    steps = fresh(
        "deltavar",
        "deltavar.cli",
        ["verify", "quotient2_3pt", "--solution", str(solutions / "quotient2_3pt.csv")],
        ["verify", "iso_3pt", "--solution", str(solutions / "iso_3pt.csv")],
        ["scan", "quotient2_3pt", "--var", "x@0.5", "--range", "-10,10"],
    )
    assert steps == [
        [None, []],
        [None, []],
        [0, []],
        [0, []],
        [0, ["deltavar.oracle"]],
    ]


def test_scipy_submodules_load_only_for_the_solves_that_use_them():
    dense, banded = fresh(
        "deltavar.cli",
        ["solve", "quotient2_3pt", "--restarts", "4"],
        ["solve", "quotient1", "--h-override", "1e-2", "--restarts", "4"],
    )[1:]
    assert dense == [0, ["deltavar.solver", "scipy", "scipy.linalg"]]  # d = 1: dense LAPACK steps
    # d = 199 > DENSE_NEWTON_LIMIT: splu
    assert banded == [0, ["deltavar.solver", "scipy", "scipy.linalg", "scipy.sparse"]]


def test_every_exported_name_resolves():
    for name in deltavar.__all__:
        assert getattr(deltavar, name) is not None, name
    with pytest.raises(AttributeError, match="no_such_name"):
        deltavar.no_such_name


def test_moved_names_stay_names_of_the_solver():
    from deltavar import solver

    assert solver.fit_multipliers is euler_lagrange.fit_multipliers
    assert solver.SolveOptions is euler_lagrange.SolveOptions is deltavar.SolveOptions
    assert deltavar.classify is solver.classify
