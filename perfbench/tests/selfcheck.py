#!/usr/bin/env python3
"""Quick self-check of the repository benchmark at tiny sizes.

    python3 perfbench/tests/selfcheck.py

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py untraced and traced with --tiny and asserts that
  * every metric BENCHMARK.json lists for that mode is printed, with its
    unit, and nothing else is;
  * every answer verified (correct, failed == 0);
then runs one workload with a deliberately wrong expected answer and
asserts the run still completes and counts the mismatch as a failure.
Exits non-zero on the first violated assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    assert proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}"
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check_metrics(workload, result, listed):
    printed = result["metrics"]
    want = {m["name"]: m["unit"] for m in listed}
    missing = sorted(set(want) - set(printed))
    extra = sorted(set(printed) - set(want))
    assert not missing, f"{workload}: metrics not printed: {missing}"
    assert not extra, f"{workload}: metrics not in BENCHMARK.json: {extra}"
    for name, unit in want.items():
        got = printed[name]["unit"]
        assert got == unit, f"{workload}: {name} unit {got!r}, want {unit!r}"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(workload, trace)
            check_metrics(workload, result, listed)
            assert result["correct"] and result["failed"] == 0, (
                f"{workload} trace={trace}: {result['failed']} of "
                f"{result['attempted']} answers failed")
            print(f"ok  {workload} trace={trace}: {len(listed)} metrics, "
                  f"{result['attempted']} answers verified")

    workload = bench["workloads"][0]["name"]
    result = run(workload, 0, "--inject-wrong-answer")
    assert not result["correct"], "a wrong expected answer went unnoticed"
    assert 0 < result["failed"] < result["attempted"], (
        f"wrong answer not counted as a failure: {result['failed']} of "
        f"{result['attempted']}")
    print(f"ok  {workload} with a wrong expected answer: {result['failed']} of "
          f"{result['attempted']} counted as failed, run completed")
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
