"""The four benchmark workloads: which CLI ops one round runs, and why.

Every workload is a closed loop with one client: the next op starts when
the previous one returns.  A run holds a fixed number of rounds, set by
``--seconds`` and the workload's nominal round time (``run.py``).  Round
``r`` is a fixed list built from ``base = r * 1000``: its op ``k`` passes
``--seed <base + k>`` to ``solve``, so the rounds draw different restarts,
every run solves the same draws, and the benchmark's own ``--seed`` sets
the order in which a run's ops are sent.  Every run therefore attempts the
same ops and fails the same ones, and the traced run's counts are the same
at every seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import references as R
from check import Expect

DATA = Path(__file__).resolve().parent / "data"
H2, H3 = 1e-2, 1e-3


@dataclass
class Op:
    argv: list
    expect: Expect
    restarts: int = 0


@dataclass
class Workload:
    name: str
    problems: list  # (fixture, h_override or None) built during set-up
    expect_spans: list  # wrappers that must fire at least once when traced
    pencils: list  # step sizes whose sturm_liouville pencil the checker needs
    make_round: object  # (base, pencil eigenvalues by h) -> list[Op]
    round_s: float  # nominal seconds of one round; a run holds seconds / round_s rounds
    ref_parts: tuple  # parts of run.Reference that op costs are divided by


def _solve(base, k, problem, restarts, expect, h=None, extra=()):
    argv = ["solve", problem, "--restarts", str(restarts), "--seed", str(base + k)]
    if h is not None:
        argv += ["--h-override", repr(h)]
    return Op(argv + list(extra), expect, restarts)


def _refs(refs, rtol=R.SOLVE_RTOL, required=True, rc=0):
    return Expect("solve", rc, list(refs), list(refs) if required else [], rtol)


def _sturm(eigs):
    # Any eigenvalue of the pencil is a valid stationary value; a scale-
    # invariant quotient is always classified degenerate.
    return _refs([(v, R.DEGENERATE) for v in eigs], required=False)


# -- coarse_multistart ---------------------------------------------------------
# Many small problems (d <= 199) with many restarts: every Newton step takes
# the dense path, tree-walking expr.evaluate and the repeated first partials
# dominate, and linear algebra is a few per cent.  Bypass workload for the
# structured-solver and classification items: the prediction there is no
# change.  quotient2_3pt, and quotient2_R and sturm_liouville at h = 1e-2,
# keep the CLI default of 64 restarts; at h = 1e-2 the known duplicate-point
# defect shows there.  The other restart counts bring most ops to 0.3-0.5 s,
# so that no single op sets the round's time.  The isoperimetric solves run
# restart 0 only, which converges: a failing isoperimetric restart runs to
# --max-iters at up to 150 times the cost of a converging one, and about
# half of all 4-restart draws hold one (0.05 s or 0.3-1.0 s per op), so
# with random restarts these two ops alone would set the run's spread.

CLI_DEFAULT_RESTARTS = 64
COARSE_OPS = (
    ("quotient1", None, 32, R.QUOTIENT1, True),
    ("quotient2_3pt", None, CLI_DEFAULT_RESTARTS, R.QUOTIENT2_3PT, True),
    ("product_3pt", None, 24, [], True),
    ("iso_3pt", None, 1, R.ISO_3PT, True),
    ("quotient2_R", H2, CLI_DEFAULT_RESTARTS, R.QUOTIENT2_R_H2, False),
    ("sturm_liouville", H2, CLI_DEFAULT_RESTARTS, None, False),
    ("iso_R", H2, 1, R.ISO_R_H2, True),
    ("quotient1", H2, 16, R.QUOTIENT1, True),
)


def _coarse_round(base, eigs):
    ops = []
    for problem, h, restarts, refs, required in COARSE_OPS:
        if problem == "sturm_liouville":
            expect = _sturm(eigs[h])
        else:
            expect = _refs(refs, required=required, rc=0 if refs else 3)
        ops.append(_solve(base, len(ops), problem, restarts, expect, h))
    return ops


# -- fine_unconstrained --------------------------------------------------------
# d = 999 takes the _StructuredHessian/splu path and the O(d^2) FD classify.
# Random restarts of quotient2_R are where the splu factor fills in: restart
# 0 converges on factors of about 8,000 entries, random restarts run on
# factors of about 400,000.  sturm_liouville gets 5 restarts because restart
# 0 starts from x = 0, where the quotient's denominator vanishes, and about
# one random restart in 13 also ends on it (with 2, some seeds exit with
# code 4).  quotient2_R gets 8 restarts: 7 random restarts make splu the
# largest self time of the round, and a run still holds four rounds.
# product_R, with the grid-matched --tol 1e-3 --dedup-distance 1e-2, runs
# restart 0 only and costs the same in every round.

FINE_Q2_RESTARTS = 8


def _fine_round(base, eigs):
    pr = _refs(R.PRODUCT_R_H3, rtol=R.PRODUCT_R_RTOL)
    return [
        _solve(base, 0, "product_R", 1, pr,
               extra=("--tol", "1e-3", "--dedup-distance", "1e-2")),
        _solve(base, 1, "quotient2_R", FINE_Q2_RESTARTS,
               _refs(R.QUOTIENT2_R_H3, required=False)),
        _solve(base, 2, "sturm_liouville", 5, _sturm(eigs[H3])),
    ]


# -- fine_isoperimetric --------------------------------------------------------
# The constrained path: dense (d+1)^2 lu_factor Jacobian, constraint
# gradients and Hessians, tangent-projected classify.  Each op runs restart
# 0 only, which starts from the boundary interpolant and draws nothing from
# the seed.  About one random restart in nine fails here and then runs to
# --max-iters at about 5 s, ten times a converging restart, so with random
# restarts a run's throughput would depend on how many failures its seed
# draws.  Failing isoperimetric restarts are measured on coarse_multistart.

ISO_OPS = 4


def _iso_round(base, eigs):
    return [_solve(base, k, "iso_R", 1, _refs(R.ISO_R_H3)) for k in range(ISO_OPS)]


# -- verify_scan -----------------------------------------------------------------
# One evaluation per trajectory and no Newton: verify on stored solutions of
# the fine fixtures and quotient2_3pt, plus 1-D oracle scans.  These ops have
# no random input.  A round is VERIFY_SCAN_PASSES passes over the nine ops,
# so that each op repeats often enough in a run for run.py's lower decile.

VERIFY_SCAN_PASSES = 10


def _verify_scan_round(base, eigs):
    ops = []
    for csv, (problem, extra, value, rc) in R.VERIFY.items():
        expect = Expect("verify", rc, [(value, None)], rtol=R.VERIFY_RTOL)
        ops.append(Op(["verify", problem, "--solution", str(DATA / csv), *extra], expect))
    scan = ["--var", "x@0.5", "--range", "-10,10", "--resolution", "401"]
    ops.append(Op(["scan", "product_3pt", *scan], Expect("scan", 3, atol=R.SCAN_ATOL)))
    roots = [(r, None) for r in R.QUOTIENT2_3PT_SCAN_ROOTS]
    ops.append(Op(["scan", "quotient2_3pt", *scan],
                  Expect("scan", 0, roots, roots, atol=R.SCAN_ATOL)))
    return ops * VERIFY_SCAN_PASSES


_SOLVE_SPANS = [
    "cli.main", "problemfile.load", "solver.solve", "solver.classify",
    "euler_lagrange.gradient", "euler_lagrange.hessian",
    "euler_lagrange.embed_decision", "functional.inner_values",
    "functional.value", "expr.evaluate",
]

# Solves spend their time in the interpreter and in dense LAPACK; verify and
# scan do no dense linear algebra, and the eigenproblem only adds noise there.
_DENSE_REF = ("python", "eigvalsh")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fine_unconstrained",
            [("quotient2_R", None), ("sturm_liouville", None), ("product_R", None)],
            _SOLVE_SPANS + ["solver.splu", "solver.eigvalsh", "functional.c1rd_distance"],
            [H3],
            _fine_round,
            4.8,
            _DENSE_REF,
        ),
        Workload(
            "fine_isoperimetric",
            [("iso_R", None)],
            _SOLVE_SPANS + ["solver.lu_factor", "solver.eigvalsh"],
            [],
            _iso_round,
            3.4,
            _DENSE_REF,
        ),
        Workload(
            "coarse_multistart",
            [(problem, h) for problem, h, *_ in COARSE_OPS],
            _SOLVE_SPANS + ["solver.lu_factor", "solver.eigvalsh",
                            "functional.c1rd_distance"],
            [H2],
            _coarse_round,
            3.4,
            _DENSE_REF,
        ),
        Workload(
            "verify_scan",
            [("quotient2_R", None), ("sturm_liouville", None), ("product_R", None),
             ("iso_R", None), ("quotient2_3pt", None), ("product_3pt", None)],
            ["cli.main", "problemfile.load", "euler_lagrange.residual_report",
             "euler_lagrange.gradient", "euler_lagrange.embed_decision",
             "oracle.scan_low_dim", "functional.value", "functional.inner_values",
             "expr.evaluate"],
            [],
            _verify_scan_round,
            1.6,
            ("python",),
        ),
    )
}
