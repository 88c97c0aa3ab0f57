"""Self-test of the traced run: two traced runs at one seed must report
identical call counts and splu factor sizes.

    python3 bench/selftest_trace.py [--workload fine_unconstrained] [--seed 0]

Each run lasts one round (``--seconds 1``).  Exits 1 and lists the metrics
that differ when the counts do not repeat.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_metrics(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"traced run failed with exit {out.returncode}:\n{out.stderr}")
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: m["value"] for name, m in metrics.items()
        if name.endswith(".calls") or name == "solver.splu.factor_nnz"
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fine_unconstrained")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    first = traced_metrics(args.workload, args.seed)
    second = traced_metrics(args.workload, args.seed)
    differ = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    if differ:
        print(f"FAIL: counts differ between two traced runs: {differ}")
        return 1
    print(f"PASS: {len(first)} counts identical across two traced runs of "
          f"{args.workload} at seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
