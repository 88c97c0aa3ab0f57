"""Benchmark for deltavar: runs one workload of CLI ops in-process and prints
its metrics.

    python3 bench/run.py --workload coarse_multistart --seed 1 --seconds 18 --trace 0

Run it from the root of a source checkout; it imports deltavar from
``src/`` next to this directory and nothing else.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The line before it, prefixed with
``report``, carries everything else (sample counts, the unbounded metrics,
failure reasons, cost per distinct op, environment).  See README.md for what
each metric means.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS and OpenMP threads are pinned before numpy loads.  One thread keeps a
# shared 2-core machine steady and gives the plain single-threaded baseline.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# The reference computation, timed before an op whenever REF_EVERY_S of op
# time has passed since the last pass, and once after the last op.
REF_LOOP = 300_000
REF_EIG_SIZE = 700
REF_EVERY_S = 0.25
# Stored entry per L+U factor nonzero in CSC form: float64 value + int32 index.
BYTES_PER_NNZ = 12


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_deltavar():
    if not (SRC / "deltavar" / "__init__.py").is_file():
        fail(f"no deltavar sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from deltavar import cli

    if Path(cli.__file__).resolve().parent != (SRC / "deltavar").resolve():
        fail(f"imported deltavar from {cli.__file__}, not from {SRC}")
    return cli


def setup_probe(workload) -> None:
    """Child process of measure_setup: import, load and build, then report."""
    cli = import_deltavar()
    for problem, h in workload.problems:
        cli.resolve_problem(problem).build(h_override=h)
    print("ready", flush=True)


def measure_setup(name: str) -> list[float]:
    """Seconds from process start to ready, for SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or line != "ready":
            fail(f"set-up probe failed (exit {proc.returncode})")
    return times


def pencil_eigenvalues(hs: list) -> dict:
    if not hs:
        return {}
    argv = [sys.executable, str(HERE / "references.py"), "--src", str(SRC)]
    for h in hs:
        argv += ["--h", repr(h)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        fail(f"reference computation failed:\n{out.stderr}")
    return {float(k): v for k, v in json.loads(out.stdout).items()}


def run_op(cli, op) -> tuple[float, object, str]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(op.argv)
    except Exception as exc:  # an op that crashes is a failed op, not a crashed run
        traceback.print_exc()
        rc = f"exception {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, buf.getvalue()


def lower_decile(xs: list) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[0]


class Reference:
    """A fixed computation timed next to the ops.

    It touches no deltavar code: a pure-Python loop and, for workloads whose
    ops also spend their time in dense LAPACK, a symmetric eigenproblem.  The
    machine's speed drifts within seconds, and the reference slows down with
    it, so an op's time divided by the reference's time measured just before
    and just after it is the op's cost with most of the drift taken out.
    """

    def __init__(self, parts):
        import numpy

        self.parts = parts
        m = numpy.random.default_rng(0).standard_normal((REF_EIG_SIZE, REF_EIG_SIZE))
        self.sym = m + m.T

    def seconds(self) -> dict:
        from numpy.linalg import eigvalsh

        out = {}
        t0 = time.perf_counter()
        s = 0
        for i in range(REF_LOOP):
            s += i * i
        out["python"] = time.perf_counter() - t0
        if "eigvalsh" in self.parts:
            t0 = time.perf_counter()
            eigvalsh(self.sym)
            out["eigvalsh"] = time.perf_counter() - t0
        return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() if out.returncode == 0 else None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="deltavar benchmark: one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from check import check
    from references import KNOWN_DEFECTS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_probe(workload)
        return 0
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    cli = import_deltavar()

    setup_times = measure_setup(workload.name)
    eigs = pencil_eigenvalues(workload.pencils)
    # A fixed number of rounds, set by --seconds and the workload's nominal
    # round time.  Round r passes --seed r * 1000 + k to its solve op k, so
    # every run draws the same restarts and the seed sets the order of the
    # ops.  One restart draw of a fine solve costs up to three times another,
    # and a run holds four or five draws of each op, so with restarts drawn
    # from the seed a run's cost would follow its seed more than the code.
    rounds = max(1, round(args.seconds / workload.round_s))
    sequence = [op for r in range(rounds) for op in workload.make_round(r * 1000, eigs)]
    n_round = len(sequence) // rounds
    random.Random(args.seed).shuffle(sequence)

    # One untimed op first, so that lazy imports and first-call set-up inside
    # the program do not land on whichever op happens to run first.
    run_op(cli, sequence[0])
    reference = Reference(workload.ref_parts)
    reference.seconds()
    tracer = None
    calibration = []
    if args.trace:
        from tracer import Tracer

        # The first round's worth of ops untraced, to compare the traced
        # pass over the same ops against.
        calibration = [run_op(cli, op)[0] for op in sequence[:n_round]]
        tracer = Tracer()
        tracer.install()

    ref_passes = []  # (index of the op after it, reference seconds by part)
    records = []  # (op index, seconds, failure reasons, outcome)
    since_ref = REF_EVERY_S
    try:
        for i, op in enumerate(sequence):
            if since_ref >= REF_EVERY_S:
                ref_passes.append((i, reference.seconds()))
                since_ref = 0.0
            if tracer:
                tracer.begin_op(i)
            dt, rc, text = run_op(cli, op)
            since_ref += dt
            if isinstance(rc, str):
                records.append((i, dt, [rc], None))
            else:
                outcome = check(op.expect, rc, text)
                records.append((i, dt, outcome.reasons, outcome))
    finally:
        if tracer:
            tracer.uninstall()
    ref_passes.append((len(sequence), reference.seconds()))

    op_s = [r[1] for r in records]
    failed = [r for r in records if r[2]]
    reasons: dict[str, int] = {}
    for r in failed:
        for reason in r[2]:
            key = f"{sequence[r[0]].argv[1]}: {reason}"
            reasons[key] = reasons.get(key, 0) + 1
    correct = all(reason in KNOWN_DEFECTS for r in failed for reason in r[2])
    restarts = sum(sequence[r[0]].restarts for r in records)
    basins = sum(r[3].basins for r in records if r[3])

    # op_ref.mix: each op's seconds over the mean of the reference passes
    # just before and just after it; for each distinct op (same argv), the
    # lower decile over its repeats, which stretches where other tenants
    # slow the ops more than the reference do not move; the mean of those
    # over the run's ops.  Every run holds the same ops, so the mean is over
    # the same work at every seed.
    ref_s = [sum(parts.values()) for _, parts in ref_passes]
    ref_at = [i for i, _ in ref_passes]
    cost: dict = {}
    raw: dict = {}
    for i, dt, *_ in records:
        k = bisect.bisect_right(ref_at, i)
        key = tuple(sequence[i].argv)
        cost.setdefault(key, []).append(dt / (0.5 * (ref_s[k - 1] + ref_s[k])))
        raw.setdefault(key, []).append(dt)
    op_cost = {key: lower_decile(c) for key, c in cost.items()}
    op_raw = {key: lower_decile(c) for key, c in raw.items()}
    values = {
        "setup_s": statistics.median(setup_times),
        "op_ref.mix": statistics.fmean(op_cost[tuple(op.argv)] for op in sequence),
        "ref_s": statistics.median(ref_s),
        "op_s.mix": statistics.fmean(op_raw[tuple(op.argv)] for op in sequence),
        "op_s.p50": statistics.median(op_s),
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_fail_frac": len(failed) / len(records),
        "solver.restarts": restarts,
        "solver.converged_frac": basins / restarts if restarts else 0.0,
        "solver.dup_points": sum(r[3].duplicates for r in records if r[3]),
    }
    if len(op_s) >= 100:
        values["op_s.p90"] = statistics.quantiles(op_s, n=10, method="inclusive")[8]

    largest_self = None
    if tracer:
        totals = tracer.layer_totals(len(sequence))
        missing = [s for s in workload.expect_spans if totals.get(s, {}).get("calls", 0) == 0]
        if missing:
            fail(f"traced wrappers never fired on {workload.name}: {missing}")
        for layer, stats in totals.items():
            for key, v in stats.items():
                values[f"{layer}.{key}"] = v
        nnz = tracer.splu_factor_nnz(len(sequence))
        values["solver.splu.factor_nnz"] = statistics.fmean(nnz) if nnz else 0.0
        values["solver.splu.factor_bytes"] = values["solver.splu.factor_nnz"] * BYTES_PER_NNZ
        hessians = values.get("euler_lagrange.hessian.calls", 0.0)
        values["euler_lagrange.gradient_per_hessian"] = (
            values.get("euler_lagrange.gradient.calls", 0.0) / hessians if hessians else 0.0
        )
        values["trace.overhead_frac"] = sum(op_s[:n_round]) / sum(calibration) - 1.0
        largest_self = max(
            (k for k in totals if "self_s" in totals[k]), key=lambda k: totals[k]["self_s"]
        )
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans_{workload.name}.npz")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(records),
        "ops_per_round": n_round,
        "rounds": rounds,
        "setup_samples": setup_times,
        "check_fail_reasons": reasons,
        "op_seconds": op_s,
        "ref_passes": ref_passes,
        "op_ref.by_op": {" ".join(k): v for k, v in op_cost.items()},
        "largest_self_time": largest_self,
        "values": values,
        "environment": environment(),
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
