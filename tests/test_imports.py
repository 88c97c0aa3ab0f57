"""A fresh interpreter loads only the SciPy it needs.

``deltavar.solver`` imports only the top-level ``scipy`` package and reaches
``scipy.linalg`` and ``scipy.sparse`` by attribute, so SciPy loads them on
first use.  ``verify`` and ``scan`` do no linear solve and never load them;
importing ``scipy.linalg`` alone roughly doubles a fresh ``verify``
process's time and memory.  A module-level import of it (or of anything that
pulls it in) shows up at once in the benchmark's ``setup_s``: an earlier
change that added one was refused for raising that metric.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import deltavar
from deltavar.cli import main

SRC = str(Path(deltavar.__file__).resolve().parents[1])

PROGRAM = """
import contextlib, io, json, sys
from deltavar import cli

def loaded(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    return [code] + [m in sys.modules for m in ("scipy.linalg", "scipy.sparse")]

print(json.dumps([
    loaded("verify", "quotient2_3pt", "--solution", sys.argv[1]),
    loaded("scan", "quotient2_3pt", "--var", "x@0.5", "--range", "-10,10"),
    loaded("solve", "quotient2_3pt", "--restarts", "4"),
    loaded("solve", "quotient1", "--h-override", "1e-2", "--restarts", "4"),
]))
"""


def test_scipy_submodules_load_only_for_the_solves_that_use_them(tmp_path, capsys):
    csv = tmp_path / "q.csv"
    assert main(["solve", "quotient2_3pt", "--restarts", "8", "--seed", "1",
                 "--csv", str(csv)]) == 0
    capsys.readouterr()
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(csv)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    verify, scan, dense, banded = json.loads(proc.stdout)
    # [exit code, scipy.linalg loaded, scipy.sparse loaded] after each command.
    assert verify == [0, False, False]
    assert scan == [0, False, False]
    assert dense == [0, True, False]  # d = 1: dense LAPACK steps only
    assert banded == [0, True, True]  # d = 199 > DENSE_NEWTON_LIMIT: splu
