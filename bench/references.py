"""Reference answers the checker compares every benchmark op against.

Three sources, in order of preference:

* closed forms from the fixture comments and the paper (``quotient1``,
  ``quotient2_3pt``, ``product_3pt`` and the 1-D scan roots);
* Sturm-Liouville values: eigenvalues of the discrete pencil that
  ``deltavar.oracle.rayleigh_pencil`` assembles by differencing the two
  quadratic forms, computed at start-up in a child process (see
  ``pencil_eigenvalues``) so that the dense pencil does not count towards
  the workload's peak memory;
* everything else pinned from the output of the seed commit
  (``deltavar solve`` with the flags noted next to each value), with the
  tolerance stated next to it.

Labels are the solver's advisory classification.  ``None`` leaves the label
unchecked.

Run as a script, this module prints the pencil eigenvalues for the step
sizes given with ``--h`` as one JSON object; ``run.py`` calls it that way.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

MIN, MAX, DEGENERATE = "local_min", "local_max", "degenerate"

# Relative value tolerance for solves at the default residual tolerance
# (1e-9).  Converged values from different restarts of one branch differ by
# about 1e-12 here, and the CLI prints 12 significant digits.
SOLVE_RTOL = 1e-8
# product_R is solved at the grid-matched --tol 1e-3; its value then agrees
# across restarts to about 1e-10.
PRODUCT_R_RTOL = 1e-6
# verify prints the functional value of a stored CSV with 12 digits.
VERIFY_RTOL = 1e-10
# scan prints bisection-refined roots with 12 significant digits.
SCAN_ATOL = 1e-9

SQRT2 = math.sqrt(2.0)

# -- closed forms ----------------------------------------------------------
# x = 2t is stationary on every grid: u1 = 4(b - a), u2 = 6(b - a).
QUOTIENT1 = [(2.0 / 3.0, MIN)]
# Interior value w = (2 -/+ sqrt(2))/2 gives 1/8 -/+ sqrt(2)/8.
QUOTIENT2_3PT = [(0.125 - SQRT2 / 8.0, MIN), (0.125 + SQRT2 / 8.0, MAX)]
QUOTIENT2_3PT_SCAN_ROOTS = [(2.0 - SQRT2) / 2.0, (2.0 + SQRT2) / 2.0]
# product_3pt has no real stationary interior value: solve exits with 3 and
# the scan finds no sign change.

# -- pinned from seed output -----------------------------------------------
# deltavar solve iso_3pt: one normal point; the tangent space of a single
# constrained decision variable is empty, so the label is degenerate.
ISO_3PT = [(10.0, DEGENERATE)]
# deltavar solve quotient2_R --h-override 1e-2 (seeds 0-2, 64 restarts).
QUOTIENT2_R_H2 = [(-0.0390091621572, MIN), (0.534009162157, MAX)]
# deltavar solve iso_R --h-override 1e-2; value 4 + 6/99.
ISO_R_H2 = [(4.06060606061, MIN)]
# deltavar solve quotient2_R --restarts 32 --seed 0 (h = 1e-3).
QUOTIENT2_R_H3 = [(-0.038708619215997775, MIN), (0.5382086192159982, MAX)]
# deltavar solve iso_R --restarts 2 --seed 0 (h = 1e-3); value 4 + 6/999.
ISO_R_H3 = [(4.006006006006, MIN)]
# deltavar solve product_R --restarts 2 --seed 0 --tol 1e-3
# --dedup-distance 1e-2 (h = 1e-3).  The exact Hessian is singular along
# the scaling direction, so the label is degenerate.
PRODUCT_R_H3 = [(0.4437782220589713, DEGENERATE)]

# Functional values of the stored solutions in data/ as ``verify`` prints
# them, with the exit code verify gave at the seed commit.  The CSVs were
# written by the solve commands above with --csv (sturm_liouville_1.csv:
# deltavar solve sturm_liouville --restarts 8 --seed 0; quotient2_3pt_*.csv:
# deltavar solve quotient2_3pt --seed 0).
VERIFY = {
    "quotient2_R_max.csv": ("quotient2_R", [], 0.538208619216, 0),
    "quotient2_R_min.csv": ("quotient2_R", [], -0.038708619216, 0),
    "sturm_liouville_1.csv": ("sturm_liouville", [], 9.86959628367, 0),
    # Grid-limited residual 2.0e-3, so the grid-matched tolerance applies.
    "product_R.csv": ("product_R", ["--tol", "1e-2"], 0.443778222059, 0),
    "iso_R.csv": ("iso_R", [], 4.00600600601, 0),
    "quotient2_3pt_max.csv": ("quotient2_3pt", [], 0.301776695297, 0),
    "quotient2_3pt_min.csv": ("quotient2_3pt", [], -0.0517766952966, 0),
}

# Failure reasons that are known defects of the program, not of the
# benchmark.  An op that fails only for these reasons still counts as
# failed, but does not make the run incorrect.
KNOWN_DEFECTS = {
    "duplicate points": (
        "multi-start dedup returns one branch more than once (seen at the seed "
        "commit on quotient2_R and sturm_liouville, at h = 1e-2 and h = 1e-3, "
        "and on quotient1)"
    ),
}


def pencil_eigenvalues(h: float) -> list[float]:
    """Generalized eigenvalues of the sturm_liouville pencil on a grid of step h."""
    import scipy.linalg

    from deltavar.cli import resolve_problem
    from deltavar.oracle import rayleigh_pencil

    spec = resolve_problem("sturm_liouville").build(h_override=h)
    A, B = rayleigh_pencil(spec)
    return [float(v) for v in scipy.linalg.eigh(A, B, eigvals_only=True)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the deltavar package")
    parser.add_argument("--h", type=float, action="append", default=[])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src)))
    print(json.dumps({repr(h): pencil_eigenvalues(h) for h in args.h}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
