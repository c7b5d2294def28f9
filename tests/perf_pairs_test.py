#!/usr/bin/env python3
"""Unit tests for tools/perf_pairs.py.

Canned records check each verdict: a gain, a regression beyond the bound,
a spread too wide to tell, and a rise in failed operations, and that a gain
needs 10 pairs and no rise in failures. A fake
benchmark command checks the run loop: seeds, the alternating order, and
that runs which fail or print a wrong answer are still recorded.
"""

import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import unittest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "perf_pairs.py")
spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
perf_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_pairs)

BENCHMARK = {
    "command": [sys.executable, "fake_bench.py"],
    "run_seconds": 1,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "query_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.24},
        {"name": "raw_mb_s", "unit": "MB/s", "better": "higher",
         "bound": 0.24},
    ],
}


def records(parent, change, failed=(0, 0), workload="w1"):
    """One record per run: parent[i] and change[i] are pair i's
    query_p50_ms; raw_mb_s stays 100 on both sides."""
    out = []
    for side, values in (("parent", parent), ("change", change)):
        for pair, value in enumerate(values):
            out.append({
                "workload": workload, "pair": pair, "seed": 100 + pair,
                "side": side, "exit": 0,
                "result": {
                    "correct": True, "attempted": 100,
                    "failed": failed[side == "change"] if pair == 0 else 0,
                    "metrics": {
                        "query_p50_ms": {"value": value, "unit": "ms"},
                        "raw_mb_s": {"value": 100.0, "unit": "MB/s"},
                    }}})
    return out


def verdicts(recs):
    (summary,) = perf_pairs.summarize(recs, BENCHMARK)
    return ({m["name"]: m["verdict"] for m in summary["metrics"]},
            summary["failures"]["verdict"])


PARENT = [50.0, 51.0, 49.0, 50.5, 52.0, 48.5, 50.0, 51.5, 49.5, 50.0]


class VerdictTest(unittest.TestCase):
    def test_gain(self):
        change = [v * 0.8 for v in PARENT]
        metrics, failures = verdicts(records(PARENT, change))
        self.assertEqual(metrics["query_p50_ms"], "gain")
        self.assertEqual(metrics["raw_mb_s"], "held")  # ties win nothing
        self.assertEqual(failures, "held")

    def test_nine_wins_of_ten_is_still_a_gain_eight_is_not(self):
        change = [v * 0.8 for v in PARENT]
        change[0] = 60.0
        self.assertEqual(verdicts(records(PARENT, change))[0]["query_p50_ms"],
                         "gain")
        change[1] = 60.0
        self.assertEqual(verdicts(records(PARENT, change))[0]["query_p50_ms"],
                         "held")

    def test_gain_needs_ten_pairs(self):
        change = [v * 0.8 for v in PARENT]
        self.assertEqual(
            verdicts(records(PARENT[:9], change[:9]))[0]["query_p50_ms"],
            "held")
        self.assertEqual(
            verdicts(records(PARENT[:3], change[:3]))[0]["query_p50_ms"],
            "held")

    def test_gain_needs_failures_held(self):
        change = [v * 0.8 for v in PARENT]
        metrics, failures = verdicts(records(PARENT, change, failed=(0, 3)))
        self.assertEqual(failures, "worse")
        self.assertEqual(metrics["query_p50_ms"], "held")
        recs = records(PARENT, change)
        recs[-1]["result"] = None  # a lost change run
        metrics, failures = verdicts(recs)
        self.assertEqual(failures, "worse")
        self.assertEqual(metrics["query_p50_ms"], "held")

    def test_regression_beyond_bound(self):
        change = [v * 1.3 for v in PARENT]
        self.assertEqual(verdicts(records(PARENT, change))[0]["query_p50_ms"],
                         "worse")
        # Within the bound it holds.
        change = [v * 1.1 for v in PARENT]
        self.assertEqual(verdicts(records(PARENT, change))[0]["query_p50_ms"],
                         "held")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [20.0, 80.0, 35.0, 60.0, 50.0, 25.0, 75.0, 40.0, 65.0, 45.0]
        change = [45.0, 70.0, 30.0, 55.0, 65.0, 20.0, 50.0, 60.0, 35.0, 80.0]
        self.assertEqual(verdicts(records(parent, change))[0]["query_p50_ms"],
                         "unresolved")
        # Unless every change run beats every parent run.
        change = [v / 10 for v in change]
        self.assertNotEqual(
            verdicts(records(parent, change))[0]["query_p50_ms"],
            "unresolved")

    def test_rise_in_failed_operations(self):
        metrics, failures = verdicts(records(PARENT, PARENT, failed=(0, 3)))
        self.assertEqual(failures, "worse")
        self.assertEqual(metrics["query_p50_ms"], "held")
        # Fewer failures than the parent hold.
        self.assertEqual(verdicts(records(PARENT, PARENT, failed=(3, 1)))[1],
                         "held")

    def test_lost_run_counts_as_failure(self):
        recs = records(PARENT, PARENT)
        recs[-1]["result"] = None
        recs[-1]["exit"] = 1
        self.assertEqual(verdicts(recs)[1], "worse")

    def test_report_lists_runs_and_exit_status(self):
        (summary,) = perf_pairs.summarize(
            records(PARENT, [v * 1.3 for v in PARENT]), BENCHMARK)
        out = io.StringIO()
        perf_pairs.print_report([summary], list_runs=True, out=out)
        text = out.getvalue()
        self.assertIn("w1: 10 pairs, seeds 100-109", text)
        self.assertIn("0/10", text)
        self.assertIn("parent: 50 51 49", text)
        self.assertEqual(perf_pairs.exit_status([summary]), 1)
        (held,) = perf_pairs.summarize(records(PARENT, PARENT), BENCHMARK)
        self.assertEqual(perf_pairs.exit_status([held]), 0)
        # A spread too wide to tell does not fail the run.
        (unresolved,) = perf_pairs.summarize(
            records([20.0, 80.0, 35.0, 60.0], [45.0, 70.0, 30.0, 55.0]),
            BENCHMARK)
        self.assertEqual(unresolved["metrics"][0]["verdict"], "unresolved")
        self.assertEqual(perf_pairs.exit_status([unresolved]), 0)


FAKE_BENCH = textwrap.dedent("""\
    import argparse, json, os, sys
    p = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        p.add_argument(flag, required=True)
    a = p.parse_args()
    side = os.path.basename(os.getcwd())
    with open("calls.txt", "a") as f:
        f.write(f"{a.workload} {a.seed} {a.seconds} {a.trace}\\n")
    if side == "change" and a.workload == "w2" and a.seed == "11":
        sys.exit(3)
    wrong = side == "change" and a.seed == "10"
    print("build chatter")
    print(json.dumps({"correct": not wrong, "attempted": 10,
                      "failed": int(wrong), "metrics": {
                          "query_p50_ms": {"value": float(a.seed),
                                           "unit": "ms"},
                          "raw_mb_s": {"value": 5.0, "unit": "MB/s"}}}))
""")


class RunTest(unittest.TestCase):
    def test_interleaved_pairs_record_every_run(self):
        with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
            for side in ("parent", "change"):
                os.makedirs(os.path.join(tmp, side))
                with open(os.path.join(tmp, side, "fake_bench.py"), "w") as f:
                    f.write(FAKE_BENCH)
            bench = os.path.join(tmp, "BENCHMARK.json")
            with open(bench, "w") as f:
                json.dump(BENCHMARK, f)
            out = os.path.join(tmp, "runs.jsonl")
            proc = subprocess.run(
                [sys.executable, TOOL, "--benchmark", bench,
                 "--parent", os.path.join(tmp, "parent"),
                 "--change", os.path.join(tmp, "change"), "--out", out,
                 "--pairs", "3", "--seed-base", "10", "--runs"],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 1, proc.stderr)
            recs = perf_pairs.read_records(out)
            order = [(r["pair"], r["workload"], r["side"]) for r in recs]
            self.assertEqual(order, [
                (0, "w1", "parent"), (0, "w1", "change"),
                (0, "w2", "parent"), (0, "w2", "change"),
                (1, "w1", "change"), (1, "w1", "parent"),
                (1, "w2", "change"), (1, "w2", "parent"),
                (2, "w1", "parent"), (2, "w1", "change"),
                (2, "w2", "parent"), (2, "w2", "change")])
            self.assertEqual([r["seed"] for r in recs],
                             [10] * 4 + [11] * 4 + [12] * 4)
            self.assertTrue(all(r["first"] == (i % 2 == 0)
                                for i, r in enumerate(recs)))
            with open(os.path.join(tmp, "parent", "calls.txt")) as f:
                self.assertEqual(f.readline(), "w1 10 1 0\n")
            lost = [r for r in recs if r["result"] is None]
            self.assertEqual([(r["pair"], r["workload"], r["exit"])
                              for r in lost], [(1, "w2", 3)])
            wrong = [r for r in recs if r["result"] and
                     not r["result"]["correct"]]
            self.assertEqual(len(wrong), 2)  # pair 0, both workloads
            self.assertIn("-> worse", proc.stdout)
            # The recorded file re-summarizes identically, and an existing
            # output file is never appended to.
            again = subprocess.run(
                [sys.executable, TOOL, "--benchmark", bench, "--report", out,
                 "--runs"], capture_output=True, text=True)
            self.assertEqual(again.stdout, proc.stdout)
            rerun = subprocess.run(
                [sys.executable, TOOL, "--benchmark", bench,
                 "--parent", os.path.join(tmp, "parent"),
                 "--change", os.path.join(tmp, "change"), "--out", out],
                capture_output=True, text=True)
            self.assertNotEqual(rerun.returncode, 0)
            self.assertEqual(len(perf_pairs.read_records(out)), len(recs))


if __name__ == "__main__":
    unittest.main()
