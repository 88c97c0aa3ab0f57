"""Command-line front end: solve, verify, scan, refine, examples.

Exit codes: 0 at least one stationary point (or a passing verification),
2 parse/validation errors, unreadable or unwritable files and grids or
scans too large to allocate, 3 no stationary point found (also: failed
verification), 4 vanishing denominator at every restart.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import __version__
from .euler_lagrange import (
    ProblemSpec,
    SolveOptions,
    constraint_gradient,
    decision_indices,
    fit_multipliers,
    functional_gradient,
    residual_report,
)
from .functional import DenominatorVanished, Trajectory, value
from .problemfile import ProblemFile, ProblemFileError, load_problem
from .timescale import PointNotFound
from .expr import ExprError, parse as parse_expr, evaluate as eval_expr

if TYPE_CHECKING:
    from .solver import StationaryPoint

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_POINT = 3
EXIT_SINGULAR = 4

FIXTURE_DESCRIPTIONS = {
    "product_R": "product of energy and weighted-velocity integrals on [0,1], fine grid",
    "product_3pt": "same product functional on the three-point scale {0, 1/2, 1} (no stationary trajectory)",
    "quotient1": "quotient functional on {0, 1, 2} whose stationary trajectory is the straight line 2t",
    "quotient2_R": "quotient of weighted-velocity over energy integrals on [0,1], fine grid (two branches)",
    "quotient2_3pt": "the same quotient on {0, 1/2, 1}: closed-form min/max pair",
    "sturm_liouville": "Rayleigh quotient with zero potential on [0,1]: smallest eigenvalue near pi^2",
    "iso_R": "constrained quotient on [0,1] with a weighted-velocity isoperimetric condition",
    "iso_3pt": "the same constrained problem on {0, 1/2, 1}: single feasible interior value -1",
}


def format_g17(v: float) -> str:
    return f"{float(v):.17g}"


# -- problem resolution -------------------------------------------------------


def resolve_problem(arg: str) -> ProblemFile:
    path = Path(arg)
    if path.exists():
        return load_problem(path)
    name = path.name.removesuffix(".dvp")
    candidate = resources.files("deltavar").joinpath("fixtures", name + ".dvp")
    if candidate.is_file():
        return load_problem(candidate)
    raise ValueError(f"no such problem file or bundled fixture: {arg!r}")


# The solver and the oracle load in the commands that use them, so verify
# loads neither and scan no solver (see the package docstring).  These three
# stay names of this module, as bench/tracer.py patches them here.


def solve_unconstrained(spec, opts):
    from .solver import solve_unconstrained
    return solve_unconstrained(spec, opts)


def solve_isoperimetric(spec, opts):
    from .solver import solve_isoperimetric
    return solve_isoperimetric(spec, opts)


def scan_low_dim(spec, ranges, resolution):
    from .oracle import scan_low_dim
    return scan_low_dim(spec, ranges, resolution=resolution)


def _solve_options(args) -> SolveOptions:
    return SolveOptions(
        restarts=args.restarts,
        seed=args.seed,
        tol_residual=args.tol,
        dedup_distance=args.dedup_distance,
    )


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--restarts", type=int, default=SolveOptions.restarts,
                   help="number of Newton restarts (default %(default)s)")
    p.add_argument("--seed", type=int, default=SolveOptions.seed)
    p.add_argument("--tol", type=float, default=SolveOptions.tol_residual,
                   help="residual max-norm tolerance (default %(default)s)")
    p.add_argument("--dedup-distance", type=float, default=SolveOptions.dedup_distance)


# -- output writers -------------------------------------------------------------


def _numbered_path(base: str, index: int) -> Path:
    """First point gets the exact path; later ones get _2, _3, ... suffixes."""
    p = Path(base)
    if index == 0:
        return p
    return p.with_name(f"{p.stem}_{index + 1}{p.suffix}")


def write_trajectory_csv(path: Path, t: np.ndarray, x: np.ndarray):
    lines = ["t,x"]
    for ti, xi in zip(t, x):
        lines.append(f"{format_g17(ti)},{format_g17(xi)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trajectory_svg(path: Path, t: np.ndarray, x: np.ndarray, title: str):
    width, height, margin = 640, 480, 60
    t0, t1 = float(t.min()), float(t.max())
    x0, x1 = float(x.min()), float(x.max())
    if x1 - x0 < 1e-300:
        x0 -= 1.0
        x1 += 1.0

    def sx(tv: float) -> float:
        return margin + (tv - t0) / (t1 - t0) * (width - 2 * margin)

    def sy(xv: float) -> float:
        return height - margin - (xv - x0) / (x1 - x0) * (height - 2 * margin)

    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    pts = " ".join(f"{sx(ti):.2f},{sy(xi):.2f}" for ti, xi in zip(t, x))
    markers = ""
    if t.size <= 64:
        markers = "".join(
            f'<circle cx="{sx(ti):.2f}" cy="{sy(xi):.2f}" r="3" fill="#1f6fb2"/>'
            for ti, xi in zip(t, x)
        )
    svg = f"""<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" viewBox="0 0 {width} {height}">
  <rect width="{width}" height="{height}" fill="white"/>
  <text x="{width / 2:.0f}" y="24" text-anchor="middle" font-family="sans-serif" font-size="14">{title}</text>
  <line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="black"/>
  <line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>
  <text x="{margin}" y="{height - margin + 18}" font-family="sans-serif" font-size="11">{t0:.6g}</text>
  <text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" font-family="sans-serif" font-size="11">{t1:.6g}</text>
  <text x="{margin - 6}" y="{height - margin}" text-anchor="end" font-family="sans-serif" font-size="11">{x0:.6g}</text>
  <text x="{margin - 6}" y="{margin + 4}" text-anchor="end" font-family="sans-serif" font-size="11">{x1:.6g}</text>
  <text x="{width / 2:.0f}" y="{height - 16}" text-anchor="middle" font-family="sans-serif" font-size="12">t</text>
  <polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>
  {markers}
</svg>
"""
    path.write_text(svg, encoding="utf-8")


def _json_float(v) -> str:
    if v is None:
        return "null"
    return format_g17(v)


def machine_summary(problem_name: str, spec: ProblemSpec, points: Sequence[StationaryPoint]) -> str:
    """Deterministic machine-readable summary (JSON with 17-digit floats)."""
    out = []
    out.append("{")
    out.append(f'  "problem": {json.dumps(problem_name, ensure_ascii=False)},')
    out.append(f'  "point_count": {len(points)},')
    out.append('  "stationary_points": [')
    blocks = []
    for p in points:
        t = spec.ts.points
        x = p.trajectory.x
        pairs = ", ".join(
            f"[{format_g17(ti)}, {format_g17(xi)}]" for ti, xi in zip(t, x)
        )
        fvals = ", ".join(format_g17(v) for v in p.inner)
        lines = [
            "    {",
            f'      "F": [{fvals}],',
            f'      "value": {_json_float(p.value)},',
            f'      "lambda0": {_json_float(p.lam0)},',
            f'      "lambda": {_json_float(p.lam)},',
            f'      "residual": {_json_float(p.residual)},',
            f'      "classification": "{p.classification}",',
            f'      "dr_spread": {_json_float(p.dr_spread)},',
            f'      "basin_count": {p.basin_count},',
            f'      "points": [{pairs}]',
            "    }",
        ]
        blocks.append("\n".join(lines))
    out.append(",\n".join(blocks))
    out.append("  ]")
    out.append("}")
    return "\n".join(out) + "\n"


# -- commands -----------------------------------------------------------------


def _print_point(spec: ProblemSpec, p: StationaryPoint, index: int, total: int, restarts: int):
    kind = "normal" if p.lam0 != 0.0 else "abnormal"
    print(f"stationary point {index + 1} of {total}" +
          (f"  [{kind}]" if spec.constraint is not None else ""))
    print(f"  classification: {p.classification} (advisory)")
    print(f"  value: {p.value:.12g}")
    print("  F: [" + ", ".join(f"{v:.12g}" for v in p.inner) + "]")
    if spec.constraint is not None:
        print(f"  lambda0: {p.lam0:g}   lambda: {p.lam:.12g}")
        print(f"  constraint value: {p.constraint_value:.12g}")
    print(f"  residual max-norm: {p.residual:.3e}")
    print(f"  DR constancy spread: {p.dr_spread:.3e}")
    print(f"  basins: {p.basin_count}/{restarts} restarts")
    x = p.trajectory.x
    print(f"  x(a) = {x[0]:.12g}   x(b) = {x[-1]:.12g}")


def cmd_solve(args) -> int:
    from .solver import ConstraintInfeasible, NoStationaryPointFound

    problem = resolve_problem(args.problem)
    spec = problem.build(h_override=args.h_override)
    opts = _solve_options(args)
    print(f"problem: {problem.name}")
    print(f"time scale: {len(spec.ts)} points on [{spec.ts.a:g}, {spec.ts.b:g}] "
          f"(kind={spec.ts.kind})")
    print(f"decision variables: {decision_indices(spec).size}"
          + (" + lambda" if spec.constraint is not None else ""))
    try:
        if spec.constraint is not None:
            points = solve_isoperimetric(spec, opts)
        else:
            points = solve_unconstrained(spec, opts)
    except (NoStationaryPointFound, ConstraintInfeasible) as exc:
        print(f"no stationary point: {exc}")
        return EXIT_NO_POINT
    except DenominatorVanished as exc:
        print(f"denominator vanished at every restart: {exc}")
        return EXIT_SINGULAR

    print(f"found {len(points)} stationary point(s)")
    print()
    for i, p in enumerate(points):
        _print_point(spec, p, i, len(points), opts.restarts)
        if args.csv:
            out = _numbered_path(args.csv, i)
            write_trajectory_csv(out, spec.ts.points, p.trajectory.x)
            print(f"  csv: {out}")
        if args.svg:
            out = _numbered_path(args.svg, i)
            write_trajectory_svg(
                out, spec.ts.points, p.trajectory.x,
                f"{problem.name}: stationary point {i + 1}",
            )
            print(f"  svg: {out}")
        print()
    if args.json:
        Path(args.json).write_text(
            machine_summary(problem.name, spec, points), encoding="utf-8"
        )
        print(f"machine summary: {args.json}")
    return EXIT_OK


def _solution_rows(lines: list[str]) -> np.ndarray:
    """The (t, x) rows of a solution CSV's lines, one at a time.

    Blank lines and ``t,`` header lines are skipped; a bad row raises
    ProblemFileError with its line number.
    """
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.lower().startswith("t,"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ProblemFileError(f"expected 't,x' row, got {line!r}", lineno)
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ProblemFileError(f"non-numeric row {line!r}", lineno) from None
    return np.array(rows, dtype=float).reshape(-1, 2)


def _load_solution_csv(path: Path, spec: ProblemSpec) -> Trajectory:
    lines = path.read_text(encoding="utf-8").removeprefix("\ufeff").strip().splitlines()
    # One numpy pass after a leading header; anything it rejects (another
    # header, a bad row) goes to the line scan, which names the line.
    body = lines[1:] if lines and lines[0].strip().lower().startswith("t,") else lines
    try:
        rows = np.loadtxt(body, delimiter=",", comments=None, ndmin=2) if body else None
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] != 2:
        rows = _solution_rows(lines)
    t, v = rows.T
    try:
        idx = spec.ts.indices_of(t)
    except PointNotFound as exc:
        raise ValueError(
            f"solution sample t={exc.value!r} does not match any scale point"
        ) from None
    counts = np.bincount(idx, minlength=len(spec.ts))
    if counts.max() > 1:
        j = int(np.argmax(counts > 1))
        raise ValueError(
            f"solution has {counts[j]} rows at scale point t={float(spec.ts.points[j])!r}"
        )
    for j in np.flatnonzero(~np.isfinite(v))[:1]:
        raise ValueError(f"solution value {float(v[j])} at scale point "
                         f"t={float(spec.ts.points[idx[j]])!r} is not finite")
    x = np.full(len(spec.ts), np.nan)
    x[idx] = v
    if np.any(np.isnan(x)):
        missing = int(np.count_nonzero(np.isnan(x)))
        raise ValueError(f"solution misses {missing} of {len(spec.ts)} scale points")
    return Trajectory(spec.ts, x)


def cmd_verify(args) -> int:
    if not (np.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    problem = resolve_problem(args.problem)
    spec = problem.build(h_override=args.h_override)
    tr = _load_solution_csv(Path(args.solution), spec)

    lam0, lam = 1.0, None
    checks = []
    if spec.constraint is not None:
        lam0, lam = fit_multipliers(functional_gradient(spec, tr), constraint_gradient(spec, tr))
        defect = value(spec.constraint.functional, tr) - spec.constraint.target
        checks.append(("constraint defect", abs(defect)))
        print(f"fitted lambda: {lam:.12g}" if lam0 else "fitted lambda0: 0   lambda: 1 (abnormal)")
    report = residual_report(spec, tr, lam0=lam0, lam=lam)
    checks.append(("el residual max-norm", report.el_max))
    if report.nat_left is not None:
        checks.append(("natural bc left", abs(report.nat_left)))
    if report.nat_right is not None:
        checks.append(("natural bc right", abs(report.nat_right)))
    checks.append(("DR constancy spread", report.dr_constancy_spread))

    print(f"functional value: {value(spec.lagrangian, tr):.12g}")
    ok = True
    for name, v in checks:
        passed = v <= args.tol
        ok = ok and passed
        print(f"{name}: {v:.6e}  [{'pass' if passed else 'FAIL'} at tol {args.tol:g}]")
    print("verification: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_NO_POINT


def _parse_scan_var(spec: ProblemSpec, text: str) -> int:
    """Map 'x@<time>' to the position of that decision variable."""
    if not text.startswith("x@"):
        raise ValueError(f"--var must look like x@<time>, got {text!r}")
    try:
        t = float(text[2:])
    except ValueError:
        raise ValueError(f"bad time value in {text!r}") from None
    try:
        idx = spec.ts.index_of(t)
    except PointNotFound:
        raise ValueError(f"{t!r} is not a point of the time scale") from None
    decisions = decision_indices(spec)
    where = np.where(decisions == idx)[0]
    if where.size == 0:
        raise ValueError(f"x@{t!r} is not a free decision variable")
    return int(where[0])


def cmd_scan(args) -> int:
    from .oracle import ScanBudgetExhausted, ScanReport

    problem = resolve_problem(args.problem)
    spec = problem.build(h_override=args.h_override)
    d = decision_indices(spec).size
    var_specs = args.var or []
    range_specs = args.range or []
    if len(var_specs) != d or len(range_specs) != d:
        raise ValueError(
            f"problem has {d} decision variable(s); pass --var/--range {d} time(s)"
        )
    if args.csv and d == 2:
        raise ValueError("--csv applies to 1-D scans only; a 2-D scan prints its candidates")
    positions = [_parse_scan_var(spec, v) for v in var_specs]
    if sorted(positions) != list(range(d)):
        raise ValueError("--var entries must cover each decision variable once")
    ranges: list[tuple[float, float]] = [(0.0, 0.0)] * d
    for pos, rtext in zip(positions, range_specs):
        try:
            lo, hi = (float(v) for v in rtext.split(","))
        except ValueError:
            raise ValueError(f"--range must be 'lo,hi', got {rtext!r}") from None
        ranges[pos] = (lo, hi)

    try:
        report = scan_low_dim(spec, ranges, resolution=args.resolution)
    except ScanBudgetExhausted as exc:
        print(f"no candidate boxes: {exc}")
        return EXIT_NO_POINT
    if isinstance(report, ScanReport):
        print(f"scanned field: {report.field_name}")
        print(f"grid: {report.grid.size} samples on "
              f"[{report.grid[0]:g}, {report.grid[-1]:g}]")
        if not report.has_roots:
            print("no roots in range (zero sign changes)")
        for (lo, hi), root in zip(report.brackets, report.roots):
            print(f"root {root:.12g} in bracket [{lo:.6g}, {hi:.6g}]")
        if args.csv:  # also without roots: the sampled field shows why
            rows = list(report.csv_rows())
            lines = [",".join(str(c) for c in rows[0])]
            for w, g in rows[1:]:
                lines.append(f"{format_g17(w)},{format_g17(g)}")
            Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(f"csv: {args.csv}")
        return EXIT_OK if report.has_roots else EXIT_NO_POINT
    if not report:
        print("no candidate boxes in range")
        return EXIT_NO_POINT
    for w0, w1 in report:
        print(f"candidate root near ({w0:.12g}, {w1:.12g})")
    return EXIT_OK


def cmd_refine(args) -> int:
    from .solver import refine_study

    problem = resolve_problem(args.problem)
    try:
        h_list = [float(v) for v in args.h_list.split(",")]
    except ValueError:
        raise ValueError(f"bad --h-list {args.h_list!r}") from None
    opts = _solve_options(args)
    reference = None
    if args.reference:
        try:
            ref_expr = parse_expr(args.reference, ("t",))
        except ExprError as exc:
            raise ValueError(f"bad --reference: {exc}") from None

        def reference(points, _e=ref_expr):
            vals = eval_expr(_e, {"t": points})
            return np.broadcast_to(np.asarray(vals, dtype=float), points.shape)

    study = refine_study(
        lambda h: problem.build(h_override=h), h_list, opts, reference=reference
    )
    print(study.format_table())
    any_points = any(row.error is None and row.points for row in study.rows)
    return EXIT_OK if any_points else EXIT_NO_POINT


def cmd_examples(_args) -> int:
    names = sorted(
        p.name.removesuffix(".dvp")
        for p in resources.files("deltavar").joinpath("fixtures").iterdir()
        if p.name.endswith(".dvp")
    )
    for name in names:
        desc = FIXTURE_DESCRIPTIONS.get(name, "")
        print(f"{name:<16} {desc}")
    return EXIT_OK


# -- entry point ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="deltavar",
        description="Stationary trajectories of composite variational "
                    "functionals on bounded time scales.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find stationary trajectories of a problem file")
    p.add_argument("problem", help="path to a .dvp file or a bundled fixture name")
    _add_solver_flags(p)
    p.add_argument("--h-override", type=float, default=None,
                   help="re-discretize [a, b] with this step before solving")
    p.add_argument("--csv", default=None, help="write (t, x) CSV per stationary point")
    p.add_argument("--svg", default=None, help="write an SVG plot per stationary point")
    p.add_argument("--json", default=None, help="write the machine-readable summary")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="check a trajectory CSV against the residuals")
    p.add_argument("problem")
    p.add_argument("--solution", required=True, help="CSV with columns t,x")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--h-override", type=float, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("scan", help="dense oracle scan over 1-2 decision variables")
    p.add_argument("problem")
    p.add_argument("--var", action="append", help="decision variable, e.g. x@0.5")
    p.add_argument("--range", action="append", help="scan range lo,hi")
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--csv", default=None, help="export the rows of a 1-D scan as CSV")
    p.add_argument("--h-override", type=float, default=None)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("refine", help="solve on successively finer grids")
    p.add_argument("problem")
    p.add_argument("--h-list", required=True, help="comma-separated steps, e.g. 0.1,0.01")
    p.add_argument("--reference", default=None,
                   help="reference trajectory as an expression in t")
    _add_solver_flags(p)
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("examples", help="list the bundled example problems")
    p.set_defaults(fn=cmd_examples)
    return parser


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Join '--range -10,10' and '--tol -1e-9' style pairs so argparse accepts negative values."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (
            arg in ("--range", "--h-list", "--reference", "--tol", "--dedup-distance", "--h-override")
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
        ):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
            continue
        out.append(arg)
        i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_negative_values(list(argv)))
    try:
        return args.fn(args)
    except (ExprError, ValueError, OSError, MemoryError) as exc:  # ProblemFileError: ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DenominatorVanished as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
