#!/usr/bin/env python3
"""Unit tests for the benchmark regression gate (tools/bench_compare.py).

Run directly (``python3 tools/test_bench_compare.py``) or through ctest
(registered as ``bench_compare_selftest``).  The critical case — the gate
must demonstrably FAIL on a synthetic regressed input — is
``test_gate_fails_on_regression``.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare  # noqa: E402


def bench_json(entries, context=None):
    return {"context": context or {"date": "t"}, "benchmarks": entries}


def iteration(name, items_per_second=None, real_time=None):
    e = {"name": name, "run_name": name, "run_type": "iteration"}
    if items_per_second is not None:
        e["items_per_second"] = items_per_second
    if real_time is not None:
        e["real_time"] = real_time
    return e


def aggregate_median(name, items_per_second, real_time):
    return {"name": f"{name}_median", "run_name": name,
            "run_type": "aggregate", "aggregate_name": "median",
            "items_per_second": items_per_second, "real_time": real_time}


AB = ["--ab-only", "--ab-suffix", "Base"]


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, fname, payload):
        path = os.path.join(self.dir.name, fname)
        with open(path, "w") as f:
            json.dump(payload, f)
        return path

    def run_main(self, current, baseline, extra=()):
        argv = ["--current", current, "--baseline", baseline, *extra]
        return bench_compare.main(argv)

    # -- medians -----------------------------------------------------------

    def test_median_over_repetitions(self):
        path = self.write("m.json", bench_json([
            iteration("BM_X/1", items_per_second=1e6, real_time=100.0),
            iteration("BM_X/1", items_per_second=3e6, real_time=300.0),
            iteration("BM_X/1", items_per_second=2e6, real_time=200.0),
        ]))
        medians = bench_compare.load_medians(path)
        self.assertEqual(medians["BM_X/1"]["items_per_second"], 2e6)
        self.assertEqual(medians["BM_X/1"]["real_time"], 200.0)

    def test_aggregate_only_files_use_reported_median(self):
        path = self.write("agg.json", bench_json([
            aggregate_median("BM_X/1", 5e6, 123.0),
        ]))
        medians = bench_compare.load_medians(path)
        self.assertEqual(medians["BM_X/1"]["items_per_second"], 5e6)

    # -- the gate ----------------------------------------------------------

    def test_gate_passes_when_flat(self):
        base = self.write("base.json",
                          bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        cur = self.write("cur.json",
                         bench_json([iteration("BM_X/1", 1.02e6, 98.0)]))
        self.assertEqual(self.run_main(cur, base), 0)

    def test_gate_fails_on_regression(self):
        # 40% throughput drop: far beyond the 15% threshold.
        base = self.write("base.json",
                          bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        cur = self.write("cur.json",
                         bench_json([iteration("BM_X/1", 0.6e6, 167.0)]))
        self.assertEqual(self.run_main(cur, base), 1)

    def test_gate_tolerates_regression_within_threshold(self):
        base = self.write("base.json",
                          bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        cur = self.write("cur.json",
                         bench_json([iteration("BM_X/1", 0.9e6, 111.0)]))
        self.assertEqual(self.run_main(cur, base), 0)

    def test_gate_honours_custom_threshold(self):
        base = self.write("base.json",
                          bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        cur = self.write("cur.json",
                         bench_json([iteration("BM_X/1", 0.9e6, 111.0)]))
        self.assertEqual(self.run_main(cur, base, ["--threshold", "0.05"]), 1)

    def test_improvement_passes(self):
        base = self.write("base.json",
                          bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        cur = self.write("cur.json",
                         bench_json([iteration("BM_X/1", 5e6, 20.0)]))
        self.assertEqual(self.run_main(cur, base), 0)

    def test_real_time_fallback_direction(self):
        # No items_per_second: real_time is lower-is-better, so a time
        # increase beyond threshold must fail.
        base = self.write("base.json", bench_json(
            [iteration("BM_Y", real_time=100.0)]))
        cur = self.write("cur.json", bench_json(
            [iteration("BM_Y", real_time=150.0)]))
        self.assertEqual(self.run_main(cur, base), 1)

    def test_missing_benchmark_warns_but_passes(self):
        base = self.write("base.json", bench_json([
            iteration("BM_X/1", 1e6, 100.0),
            iteration("BM_Retired", 1e6, 100.0),
        ]))
        cur = self.write("cur.json",
                         bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        self.assertEqual(self.run_main(cur, base), 0)

    def test_tracked_regex_limits_the_gate(self):
        base = self.write("base.json", bench_json([
            iteration("BM_Gated", 1e6, 100.0),
            iteration("BM_Untracked", 1e6, 100.0),
        ]))
        cur = self.write("cur.json", bench_json([
            iteration("BM_Gated", 1e6, 100.0),
            iteration("BM_Untracked", 0.1e6, 1000.0),  # would fail if gated
        ]))
        self.assertEqual(self.run_main(cur, base, ["--tracked", "BM_Gated"]),
                         0)

    def test_no_overlap_is_a_usage_error(self):
        base = self.write("base.json",
                          bench_json([iteration("BM_A", 1e6, 100.0)]))
        cur = self.write("cur.json",
                         bench_json([iteration("BM_B", 1e6, 100.0)]))
        self.assertEqual(self.run_main(cur, base), 2)

    # -- the A/B-ratio gate ------------------------------------------------

    def ab_files(self, base_a, base_b, cur_a, cur_b):
        base = self.write("base.json", bench_json([
            iteration("BM_X/1", base_a, 1e9 / base_a),
            iteration("BM_XBase/1", base_b, 1e9 / base_b),
        ]))
        cur = self.write("cur.json", bench_json([
            iteration("BM_X/1", cur_a, 1e9 / cur_a),
            iteration("BM_XBase/1", cur_b, 1e9 / cur_b),
        ]))
        return cur, base

    def test_ab_gate_ignores_uniform_runner_speed_delta(self):
        # A 3x slower runner scales both sides of the pair: the absolute
        # gate would fail, the ratio gate must not.
        cur, base = self.ab_files(3e6, 2e6, 1e6, 0.667e6)
        self.assertEqual(self.run_main(cur, base), 1)  # absolute gate trips
        self.assertEqual(self.run_main(cur, base, AB), 0)

    def test_ab_gate_fails_on_relative_regression(self):
        # Same machine speed, but the A side lost 40% vs its twin.
        cur, base = self.ab_files(3e6, 2e6, 1.8e6, 2e6)
        self.assertEqual(self.run_main(cur, base, AB), 1)

    def test_ab_gate_improvement_passes(self):
        cur, base = self.ab_files(3e6, 2e6, 6e6, 2e6)
        self.assertEqual(self.run_main(cur, base, AB), 0)

    def test_ab_gate_pairs_by_prefix_before_slash(self):
        # BM_XBase/1 pairs with BM_X/1; an unpaired name contributes
        # nothing (and a missing current pair only warns).
        base = self.write("base.json", bench_json([
            iteration("BM_X/1", 2e6, 500.0),
            iteration("BM_XBase/1", 1e6, 1000.0),
            iteration("BM_Lonely/1", 1e6, 1000.0),
        ]))
        cur = self.write("cur.json", bench_json([
            iteration("BM_X/1", 2e6, 500.0),
            iteration("BM_XBase/1", 1e6, 1000.0),
            iteration("BM_Lonely/1", 0.1e6, 10000.0),  # would fail if gated
        ]))
        self.assertEqual(self.run_main(cur, base, AB), 0)

    def test_ab_gate_real_time_only_pairs_use_inverse_time(self):
        base = self.write("base.json", bench_json([
            iteration("BM_T", real_time=100.0),
            iteration("BM_TBase", real_time=200.0),
        ]))
        # Current: BM_T slowed 2x relative to its twin -> ratio 0.5.
        cur = self.write("cur.json", bench_json([
            iteration("BM_T", real_time=400.0),
            iteration("BM_TBase", real_time=400.0),
        ]))
        self.assertEqual(self.run_main(cur, base, AB), 1)

    def test_ab_gate_without_pairs_is_a_usage_error(self):
        base = self.write("base.json",
                          bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        cur = self.write("cur.json",
                         bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        self.assertEqual(self.run_main(cur, base, AB), 2)

    def test_ab_gate_requires_a_suffix(self):
        cur, base = self.ab_files(3e6, 2e6, 3e6, 2e6)
        with self.assertRaises(SystemExit) as exit_:
            with contextlib.redirect_stderr(io.StringIO()):
                self.run_main(cur, base, ["--ab-only"])
        self.assertEqual(exit_.exception.code, 2)

    def test_ab_gate_custom_suffix(self):
        base = self.write("base.json", bench_json([
            iteration("BM_X/1", 2e6, 500.0),
            iteration("BM_XRef/1", 1e6, 1000.0),
        ]))
        cur = self.write("cur.json", bench_json([
            iteration("BM_X/1", 1e6, 1000.0),
            iteration("BM_XRef/1", 1e6, 1000.0),
        ]))
        self.assertEqual(
            self.run_main(cur, base, ["--ab-only", "--ab-suffix", "Ref"]), 1)

    # -- machine/build context ---------------------------------------------

    def test_context_prefers_stamped_hw_cores_and_build_flags(self):
        path = self.write("c.json", bench_json(
            [iteration("BM_X/1", 1e6, 100.0)],
            context={"num_cpus": 64, "hw_cores": "4",
                     "library_build_type": "release",
                     "build_flags": "Release: -O2 -DNDEBUG"}))
        ctx = bench_compare.load_context(path)
        self.assertEqual(ctx["cores"], 4)
        self.assertEqual(ctx["build"], "Release: -O2 -DNDEBUG")

    def test_context_falls_back_to_gbench_fields(self):
        path = self.write("c.json", bench_json(
            [iteration("BM_X/1", 1e6, 100.0)],
            context={"num_cpus": 8, "library_build_type": "debug"}))
        ctx = bench_compare.load_context(path)
        self.assertEqual(ctx["cores"], 8)
        self.assertEqual(ctx["build"], "debug")

    def test_context_missing_fields_are_none(self):
        path = self.write("c.json", bench_json(
            [iteration("BM_X/1", 1e6, 100.0)]))
        ctx = bench_compare.load_context(path)
        self.assertIsNone(ctx["cores"])
        self.assertIsNone(ctx["build"])

    def test_differing_core_counts_warn(self):
        warnings = bench_compare.context_warnings(
            {"cores": 8, "build": "release"},
            {"cores": 1, "build": "release"})
        self.assertEqual(len(warnings), 1)
        self.assertIn("core count differs", warnings[0])
        self.assertIn("--ab-only", warnings[0])

    def test_differing_build_flags_warn(self):
        warnings = bench_compare.context_warnings(
            {"cores": 4, "build": "Debug: -O0"},
            {"cores": 4, "build": "Release: -O2 -DNDEBUG"})
        self.assertEqual(len(warnings), 1)
        self.assertIn("build flags differ", warnings[0])

    def test_matching_or_unknown_context_is_silent(self):
        self.assertEqual(bench_compare.context_warnings(
            {"cores": 4, "build": "x"}, {"cores": 4, "build": "x"}), [])
        self.assertEqual(bench_compare.context_warnings(
            {"cores": None, "build": None}, {"cores": 4, "build": "x"}), [])

    def test_core_count_mismatch_warns_but_does_not_fail_the_gate(self):
        # The mismatch downgrades trust, it does not veto: flat numbers on
        # differing machines still exit 0, with the warning printed.
        base = self.write("base.json", bench_json(
            [iteration("BM_X/1", 1e6, 100.0)], context={"hw_cores": 1}))
        cur = self.write("cur.json", bench_json(
            [iteration("BM_X/1", 1e6, 100.0)], context={"hw_cores": 8}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.run_main(cur, base)
        self.assertEqual(code, 0)
        self.assertIn("core count differs", out.getvalue())

    # -- snapshot discovery ------------------------------------------------

    def test_newest_snapshot_picks_highest_pr(self):
        for name in ("BENCH_pr1.json", "BENCH_pr2.json",
                     "BENCH_pr1_baseline.json", "BENCH_pr10.json"):
            self.write(name, bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        best = bench_compare.newest_snapshot(self.dir.name)
        self.assertEqual(os.path.basename(best), "BENCH_pr10.json")

    def test_missing_snapshot_is_a_usage_error(self):
        cur = self.write("cur.json",
                         bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        code = bench_compare.main(
            ["--current", cur, "--repo-root", self.dir.name])
        self.assertEqual(code, 2)

    def test_end_to_end_against_discovered_snapshot(self):
        self.write("BENCH_pr3.json",
                   bench_json([iteration("BM_X/1", 1e6, 100.0)]))
        cur = self.write("cur.json",
                        bench_json([iteration("BM_X/1", 0.5e6, 200.0)]))
        code = bench_compare.main(
            ["--current", cur, "--repo-root", self.dir.name])
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
