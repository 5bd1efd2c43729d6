#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at the tiny size,
untraced and traced, must pass its output check and print every metric
BENCHMARK.json declares, by name and with its unit, both in the
human-readable lines and in the final JSON line.

    python3 perfbench/smoke_test.py          # about a minute after the build
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(workload, trace, spec):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=600)
    errors = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}:\n{proc.stdout}"]
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"output check: correct={result['correct']} "
                      f"failed={result['failed']} attempted={result['attempted']}")
    if not any(line.startswith("check: model digest") and "no pin" not in line
               for line in lines):
        errors.append("digest was not compared against a pin or reference")
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        errors.append(f"metric names differ: {sorted(result['metrics'])}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: JSON {got}")
        if printed.get(m["name"]) != m["unit"]:
            errors.append(f"{m['name']}: printed unit {printed.get(m['name'])}")
    if trace:
        if not any(line.startswith("where the time goes:") for line in lines):
            errors.append("no where-the-time-goes table")
        spans = ROOT / ".bench_out" / workload / "seed1-trace1-tiny" / "spans.json"
        events = json.loads(spans.read_text())["traceEvents"]
        if not events or any(e["ph"] != "X" for e in events):
            errors.append("spans.json is not a list of complete events")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check(w["name"], trace, spec)
            print(f"{'FAIL' if errors else 'ok  '} {w['name']} trace={trace}")
            for e in errors:
                print(f"     {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
