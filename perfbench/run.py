#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the engine libraries and the
benchmark binary from source (Release, CMake) under the build-output
directory $CARGO_TARGET_DIR (default .bench_build), then runs one workload
and relays the binary's output. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exits non-zero, without a result,
when the build or the run fails.

Extra flags for the benchmark's own self-check: --tiny (small inputs) and
--inject-wrong-answer (one expected answer is corrupted on purpose).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def build(out, env):
    """Configures and brings the binary up to date. Returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", "scanraw_perfbench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env)
        if result.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "scanraw_perfbench"


def validate(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    if result["attempted"] < 1:
        raise ValueError("no query was attempted")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} has keys {sorted(metric)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-wrong-answer", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    work = out / f"work-{args.workload}-{os.getpid()}"
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        binary = build(out, env)
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work)]
        if args.trace == "1":
            traces = out / "traces"
            traces.mkdir(exist_ok=True)
            # One span file per workload: the latest traced run's.
            cmd += ["--trace-out", str(traces / f"{args.workload}.json")]
        if args.tiny:
            cmd.append("--tiny")
        if args.inject_wrong_answer:
            cmd.append("--inject-wrong-answer")
        started = time.monotonic()
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             env=env, text=True, timeout=RUN_TIMEOUT_S)
        log(f"{args.workload} finished in {time.monotonic() - started:.1f} s "
            f"(exit {run.returncode})")
        if run.returncode != 0:
            return 1
        lines = run.stdout.rstrip("\n").split("\n")
        validate(lines[-1])
        sys.stdout.write(run.stdout)
        return 0
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        log(str(err))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
