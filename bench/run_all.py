"""Runs every benchmark workload, untraced and traced, each in a fresh process,
and prints every metric by name and unit.

    python3 bench/run_all.py --seed 0

Per workload it prints the end-to-end metrics of the untraced run (with
``check_fail_frac`` and its reasons), the per-layer metrics of the traced
run, and whether the traced run confirms the workload split the README
predicts.  All results, with the environment record, are written to
``.bench_out/results_seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# End-to-end metrics that run.py reports but BENCHMARK.json does not bound.
REPORTED_UNITS = {"op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s",
                  "check_fail_frac": "ratio", "ref_s": "s"}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("report "):
        sys.exit(f"{workload} (trace {trace}) failed with exit {out.returncode}:\n{out.stderr}")
    return json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


def split_checks(traced: dict) -> list[str]:
    """The workload split the README predicts, as read from the traced runs."""
    def v(workload, name):
        return traced[workload]["values"].get(name, 0.0)

    lines = []
    if "fine_unconstrained" in traced:
        top = traced["fine_unconstrained"]["largest_self_time"]
        lines.append(f"largest self time on fine_unconstrained: {top} "
                     f"({'holds' if top == 'solver.splu' else 'does not hold'}: solver.splu)")
    for w in ("coarse_multistart", "fine_isoperimetric"):
        if w in traced:
            calls = v(w, "solver.splu.calls")
            lines.append(f"solver.splu.calls on {w}: {calls:g} "
                         f"({'holds' if calls == 0 else 'does not hold'}: 0)")
    if "coarse_multistart" in traced:
        share = v("coarse_multistart", "solver.lu_factor.s") / v("coarse_multistart", "cli.main.s")
        lines.append(f"solver.lu_factor.s share of coarse_multistart: {share:.3f} "
                     f"({'holds' if share < 0.1 else 'does not hold'}: < 0.1)")
    for w in traced:
        calls = v(w, "oracle.scan_low_dim.calls")
        expected = w == "verify_scan"
        lines.append(f"oracle.scan_low_dim.calls on {w}: {calls:g} "
                     f"({'holds' if (calls > 0) == expected else 'does not hold'}: "
                     f"{'> 0' if expected else '0'})")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(REPORTED_UNITS)
    results, traced = {}, {}
    for w in args.workloads:
        report, result = run(w, args.seed, args.seconds, 0)
        t_report, t_result = run(w, args.seed, args.seconds, 1)
        traced[w] = t_report
        results[w] = {"untraced": report, "traced": t_report,
                      "correct": result["correct"] and t_result["correct"]}
        vals = report["values"]
        print(f"== {w}  seed {args.seed}  ops {report['ops']} "
              f"({report['rounds']} rounds of {report['ops_per_round']})  "
              f"correct {result['correct']}")
        for name in ("setup_s", "op_ref.mix", "ref_s", "op_s.p50", "op_s.p90", "ops_per_s",
                     "peak_rss_mb", "check_fail_frac", "solver.converged_frac"):
            if name in vals:
                note = f"  (n = {report['ops']})" if name.startswith("op_") else ""
                print(f"  {name:<18} {vals[name]:.6g} {units[name]}{note}")
            else:
                print(f"  {name:<18} not reported (fewer than 100 ops)")
        for reason, count in sorted(report["check_fail_reasons"].items()):
            print(f"    {count} x {reason}")
        print(f"  per layer (traced, all {t_report['ops']} ops):")
        for m in spec["per_layer"]:
            print(f"    {m['name']:<40} {t_report['values'].get(m['name'], 0.0):.6g} {m['unit']}")
        ratio = t_report["values"]["ops_per_s"] / vals["ops_per_s"]
        print(f"    traced/untraced ops_per_s across the two runs: {ratio:.3f}")
    print("== workload split")
    for line in split_checks(traced):
        print("  " + line)
    env = next(iter(results.values()))["untraced"]["environment"] if results else {}
    print("== environment")
    for k, v in env.items():
        print(f"  {k}: {v}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"results_seed{args.seed}.json"
    path.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                "environment": env, "workloads": results}, indent=1))
    print(f"results: {path}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
