#!/usr/bin/env python3
"""Re-record the benchmark: run every workload once per seed and report,
per end-to-end metric, the median, the quartiles and the spread (Q3 - Q1)
as a share of the median against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py                       # 10 seeds, all workloads
    python3 perfbench/spread.py --workloads fig6-sweep --runs 5

Each run's evidence stays under .bench_out/ (see run.py); the summary is
also written to .bench_out/spread.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: output check failed")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            summary[workload][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "values": v}
            flag = "ok" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "OVER BOUND")
            print(f"{workload:14s} {m['name']:18s} median {med:14.6g} {m['unit']:4s} "
                  f"spread {spread:7.2%} (bound {m['bound']:.0%}) {flag}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
