#!/usr/bin/env python3
"""Layer-ladder benchmark: build the ladder program from source, run one workload,
keep the evidence, print one JSON result line.

    python3 perfbench/run.py --workload fig6-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run configures and builds the
emcast library plus ``perfbench/ladder.cpp`` in Release mode under
``.bench_build/perfbench`` (build log beside it); later runs only re-check
the build.  Each run keeps, side by side under
``.bench_out/<workload>/seed<N>-trace<T>[-tiny]/``, the exact command
lines (``command.txt``), the raw output of ladder (``raw.txt``), the parsed
metrics (``metrics.csv``), the stamped result (``result.json``) and, for
``--trace 1``, the spans as Chrome trace-event JSON (``spans.json``, opens
in Perfetto).

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` with
the ``end_to_end`` metrics of BENCHMARK.json for ``--trace 0`` and the
``per_layer`` metrics for ``--trace 1``.  Exit code 0 whenever a result was
printed; non-zero, with no result, when the build or ladder fails.
"""

import argparse
import csv
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("fig6-sweep", "scale-1e5", "sharded-665", "process-churn")
LADDER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build ladder; output goes to a log."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no emcast sources beside {BENCH_DIR.name}/ (need CMakeLists.txt and src/)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "perfbench-build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "ladder",
                  "-j", str(max(1, len(os.sched_getaffinity(0))))])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + shlex.join(cmd) + "\n")
            log.flush()
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step failed ({e}); see {log_path}")
            if proc.returncode != 0:
                fail(f"build step exited {proc.returncode}; see {log_path}")
    return BUILD_DIR / "ladder"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test size")
    args = ap.parse_args()

    binary = build()
    tag = f"seed{args.seed}-trace{args.trace}" + ("-tiny" if args.size == "tiny" else "")
    out = OUT_DIR / args.workload / tag
    out.mkdir(parents=True, exist_ok=True)
    spans = out / "spans.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        cmd += ["--spans", str(spans)]
    (out / "command.txt").write_text(
        "run.py: " + shlex.join([sys.executable] + sys.argv) + "\n"
        "ladder: " + shlex.join(cmd) + "\n")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=LADDER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raw = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        (out / "raw.txt").write_text(raw)
        fail(f"ladder timed out after {LADDER_TIMEOUT_S}s; see {out / 'raw.txt'}")
    (out / "raw.txt").write_text(proc.stdout)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"ladder exited {proc.returncode} without a result")
    ladder = json.loads(lines[-1])
    info = ladder["info"]

    names = declared_metrics(args.trace)
    missing = [n for n in names if n not in ladder["metrics"]]
    metrics = {n: ladder["metrics"][n] for n in names if n in ladder["metrics"]}
    correct = bool(ladder["correct"]) and not missing

    with open(out / "metrics.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["metric", "value", "unit"])
        for name, m in ladder["metrics"].items():
            w.writerow([name, repr(m["value"]), m["unit"]])
    stamp = {
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": info["build_type"],
        "cxx_flags": info["cxx_flags"],
        "compiler": info["compiler"],
        "non_release_build": info["build_type"] != "Release",
        "command": (out / "command.txt").read_text().splitlines(),
        "note": ("with nproc this low, Sharded and Process timings measure "
                 "synchronization and transport overhead, not parallel speed-up"),
    }
    result = {"correct": correct, "attempted": ladder["attempted"],
              "failed": ladder["failed"], "metrics": metrics}
    (out / "result.json").write_text(json.dumps(
        {"result": result, "ladder": ladder, "stamp": stamp,
         "missing_metrics": missing}, indent=2) + "\n")

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(f"stamp: nproc {stamp['nproc']}, {stamp['build_type']} build, "
          f"flags '{stamp['cxx_flags']}', {stamp['compiler']}")
    if stamp["non_release_build"]:
        print("WARNING: not a Release build; timings are not comparable")
    for name in missing:
        print(f"missing metric: {name}")
    print(f"evidence: {out.relative_to(ROOT)}/")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
