#!/usr/bin/env python3
"""Benchmark regression gate.

Compares the medians of a google-benchmark JSON run (typically CI's
``bench_ci.json``) against the newest committed ``BENCH_pr<N>.json``
snapshot and exits non-zero when a tracked benchmark regressed by more
than the threshold (default 15%).

Median extraction understands both raw repetition entries
(``run_type == "iteration"``) and aggregate-only files
(``aggregate_name == "median"``), so it works with every snapshot format
this repository has committed so far.

The comparison metric is ``items_per_second`` (higher is better) when both
sides report it, falling back to ``real_time`` (lower is better).

Usage:
    bench_compare.py --current bench_ci.json [--baseline BENCH_pr2.json]
                     [--threshold 0.15] [--tracked REGEX]
                     [--ab-only --ab-suffix SUFFIX]

Without --baseline the newest BENCH_pr<N>.json in the repository root
(next to this script's parent directory) is used.  Benchmarks present in
the baseline but missing from the current run are reported as warnings,
not failures, so retired benchmarks do not wedge CI.

Both files' JSON ``context`` blocks are reported next to the verdicts
(core count and build flags, as stamped by the benches'
EMCAST_BENCH_MAIN()); a core-count or build-flags mismatch between the
runs prints a WARNING, since absolute numbers across differently-shaped
machines are noise — use the A/B gate for those pairs.

``--ab-only`` switches the gate to the interleaved A/B pairs the bench
binaries already emit: a benchmark ``BM_X.../arg`` is paired with its
in-run baseline variant ``BM_X...<suffix>/arg`` (``--ab-suffix``, required
with ``--ab-only``: each bench binary names its twins differently, e.g.
``Fresh`` or ``Off``), and the gate compares the A/B *speed ratio* of the
current run against the A/B ratio of the snapshot.  Both sides of a ratio come from the same run on
the same machine, so a slower or faster CI runner cancels out — the gate
then measures code deltas, not runner deltas.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path


class BenchCompareError(Exception):
    """Unusable input (missing files, no comparable benchmarks)."""


def load_context(path):
    """The run's machine/build shape from a google-benchmark JSON.

    Returns {"cores": int|None, "build": str|None}.  Core count prefers
    the ``hw_cores`` custom context EMCAST_BENCH_MAIN() stamps (what
    hardware_concurrency reported to the sharded scheduler — the number
    that decides worker-thread counts on cgroup-limited runners), falling
    back to google-benchmark's own ``num_cpus``.  Build prefers the
    stamped ``build_flags`` over ``library_build_type``.
    """
    with open(path) as f:
        ctx = json.load(f).get("context", {})
    cores = ctx.get("hw_cores", ctx.get("num_cpus"))
    try:
        cores = int(cores)
    except (TypeError, ValueError):
        cores = None
    build = ctx.get("build_flags", ctx.get("library_build_type"))
    return {"cores": cores, "build": build}


def context_warnings(current_ctx, baseline_ctx):
    """Lines flagging machine/build mismatches between two runs.

    A differing core count makes absolute throughput numbers meaningless
    for the parallel benches (the sharded sweep's thread counts change),
    and a differing build renders every number incomparable; both warn
    rather than fail so the A/B-ratio gate — which cancels machine shape
    out — can still be used on such pairs.
    """
    warnings = []
    cur_cores, base_cores = current_ctx["cores"], baseline_ctx["cores"]
    if cur_cores is not None and base_cores is not None \
            and cur_cores != base_cores:
        warnings.append(
            f"WARNING  core count differs: baseline ran on {base_cores} "
            f"core(s), current on {cur_cores} — absolute numbers are not "
            "comparable (prefer --ab-only)")
    cur_build, base_build = current_ctx["build"], baseline_ctx["build"]
    if cur_build and base_build and cur_build != base_build:
        warnings.append(
            f"WARNING  build flags differ: baseline {base_build!r}, "
            f"current {cur_build!r}")
    return warnings


def load_medians(path):
    """Map benchmark name -> {metric: median} for a google-benchmark JSON."""
    with open(path) as f:
        data = json.load(f)
    by_name = {}
    aggregates = {}
    for entry in data.get("benchmarks", []):
        name = entry.get("run_name", entry.get("name"))
        if name is None:
            continue
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                aggregates.setdefault(name, []).append(entry)
            continue
        by_name.setdefault(name, []).append(entry)
    medians = {}
    for name, entries in by_name.items():
        per_metric = {}
        for metric in ("items_per_second", "real_time"):
            values = [e[metric] for e in entries if metric in e]
            if len(values) == len(entries):
                per_metric[metric] = statistics.median(values)
        medians[name] = per_metric
    # Aggregate-only files (benchmark_report_aggregates_only=true) have no
    # iteration entries; take the reported median rows directly.
    for name, entries in aggregates.items():
        if name not in medians:
            medians[name] = {
                metric: statistics.median(e[metric] for e in entries)
                for metric in ("items_per_second", "real_time")
                if all(metric in e for e in entries)
            }
    return medians


def newest_snapshot(repo_root):
    """The committed BENCH_pr<N>.json with the highest N."""
    best, best_n = None, -1
    for path in Path(repo_root).glob("BENCH_pr*.json"):
        m = re.fullmatch(r"BENCH_pr(\d+)\.json", path.name)
        if m and int(m.group(1)) > best_n:
            best, best_n = path, int(m.group(1))
    if best is None:
        raise BenchCompareError(
            f"no BENCH_pr<N>.json snapshot found in {repo_root}")
    return best


def speed(metrics):
    """Higher-is-better scalar for a benchmark's median metrics."""
    if "items_per_second" in metrics:
        return metrics["items_per_second"]
    if "real_time" in metrics and metrics["real_time"] > 0:
        return 1e9 / metrics["real_time"]
    return None


def ab_pairs(medians, suffix):
    """Map A-name -> B-name for names whose in-run twin (the same name
    with ``suffix`` appended to the part before the first '/') exists."""
    pairs = {}
    for name in medians:
        base, sep, arg = name.partition("/")
        if base.endswith(suffix):
            continue
        partner = base + suffix + (sep + arg if sep else "")
        if partner in medians:
            pairs[name] = partner
    return pairs


def compare_ab(current, baseline, threshold, suffix, tracked=None):
    """A/B-ratio gate: (failures, lines), immune to runner-speed deltas.

    For each tracked pair, ratio = (A/B speed of current run) divided by
    (A/B speed of baseline run); < 1 - threshold fails.  Pairs missing
    from either run warn instead of failing, like compare().
    """
    pattern = re.compile(tracked) if tracked else None
    base_pairs = ab_pairs(baseline, suffix)
    failures = []
    lines = []
    compared = 0
    for name in sorted(base_pairs):
        if pattern is not None and not pattern.search(name):
            continue
        partner = base_pairs[name]
        if name not in current or partner not in current:
            lines.append(f"WARNING  {name} vs {partner}: missing from "
                         "current run")
            continue
        speeds = [speed(side[n])
                  for side in (baseline, current) for n in (name, partner)]
        if any(s is None or s <= 0 for s in speeds):
            lines.append(f"WARNING  {name} vs {partner}: no usable metric")
            continue
        base_ratio = speeds[0] / speeds[1]
        cur_ratio = speeds[2] / speeds[3]
        ratio = cur_ratio / base_ratio
        regressed = ratio < 1.0 - threshold
        compared += 1
        verdict = "FAIL" if regressed else "ok"
        lines.append(
            f"{verdict:8s} {name} / {partner}: A/B "
            f"{base_ratio:.3f} -> {cur_ratio:.3f}  ({(ratio - 1) * 100:+.1f}%)")
        if regressed:
            failures.append(name)
    if compared == 0:
        raise BenchCompareError(
            f"no comparable A/B pairs (suffix {suffix!r}) between the files")
    return failures, lines


def compare(current, baseline, threshold, tracked=None):
    """Return (failures, lines): regression descriptions and a report."""
    pattern = re.compile(tracked) if tracked else None
    failures = []
    lines = []
    names = sorted(baseline)
    compared = 0
    for name in names:
        if pattern is not None and not pattern.search(name):
            continue
        if name not in current:
            lines.append(f"WARNING  {name}: missing from current run")
            continue
        base, cur = baseline[name], current[name]
        if "items_per_second" in base and "items_per_second" in cur:
            b, c = base["items_per_second"], cur["items_per_second"]
            ratio = c / b  # higher is better
            regressed = ratio < 1.0 - threshold
            detail = f"{b / 1e6:.2f} -> {c / 1e6:.2f} M items/s"
        elif "real_time" in base and "real_time" in cur:
            b, c = base["real_time"], cur["real_time"]
            ratio = b / c  # lower is better; normalise so <1 = regression
            regressed = ratio < 1.0 - threshold
            detail = f"{b:.0f} -> {c:.0f} ns"
        else:
            lines.append(f"WARNING  {name}: no common metric")
            continue
        compared += 1
        verdict = "FAIL" if regressed else "ok"
        lines.append(f"{verdict:8s} {name}: {detail}  ({(ratio - 1) * 100:+.1f}%)")
        if regressed:
            failures.append(name)
    if compared == 0:
        raise BenchCompareError("no comparable benchmarks between the files")
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="google-benchmark JSON of the run under test")
    parser.add_argument("--baseline", default=None,
                        help="snapshot to compare against "
                             "(default: newest BENCH_pr<N>.json in --repo-root)")
    parser.add_argument("--repo-root",
                        default=str(Path(__file__).resolve().parent.parent),
                        help="where to look for BENCH_pr<N>.json snapshots")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative regression that fails the gate "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--tracked", default=None,
                        help="regex of benchmark names to gate "
                             "(default: every name in the baseline)")
    parser.add_argument("--ab-only", action="store_true",
                        help="gate in-run A/B pair ratios instead of "
                             "absolute numbers (runner-speed immune)")
    parser.add_argument("--ab-suffix", default=None,
                        help="suffix identifying a benchmark's in-run "
                             "baseline twin (required with --ab-only)")
    args = parser.parse_args(argv)
    if args.ab_only and not args.ab_suffix:
        parser.error("--ab-only needs --ab-suffix")

    try:
        baseline_path = args.baseline or newest_snapshot(args.repo_root)
        current = load_medians(args.current)
        baseline = load_medians(baseline_path)
        current_ctx = load_context(args.current)
        baseline_ctx = load_context(baseline_path)
        if args.ab_only:
            failures, lines = compare_ab(current, baseline, args.threshold,
                                         args.ab_suffix, args.tracked)
        else:
            failures, lines = compare(current, baseline, args.threshold,
                                      args.tracked)
    except (BenchCompareError, OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 2

    def shape(ctx):
        cores = ctx["cores"] if ctx["cores"] is not None else "?"
        build = ctx["build"] or "unknown build"
        return f"{cores} core(s), {build}"

    print(f"baseline: {baseline_path}  [{shape(baseline_ctx)}]")
    print(f"current:  {args.current}  [{shape(current_ctx)}]")
    for line in context_warnings(current_ctx, baseline_ctx):
        print(line)
    for line in lines:
        print(line)
    if failures:
        print(f"\nbench_compare: {len(failures)} benchmark(s) regressed "
              f"beyond {args.threshold * 100:.0f}%: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("\nbench_compare: no regression beyond "
          f"{args.threshold * 100:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
