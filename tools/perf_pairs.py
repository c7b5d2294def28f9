#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, and a verdict per metric.

    tools/perf_pairs.py --parent DIR --change DIR --out runs.jsonl \\
        [--workload W ...] [--pairs 10] [--seed-base 9000]
    tools/perf_pairs.py --report runs.jsonl [--runs]

Running: for pair i and every workload, runs BENCHMARK.json's `command`
with `--workload W --seed <seed-base + i> --seconds <run_seconds> --trace 0`
in both checkouts; each checkout builds its own binary. Even pairs run the parent
first, odd pairs the change first. Every run writes one JSON line to --out
(a new file), also a run that exits non-zero or prints `correct: false`,
and the report follows.

Report: for each workload and each end-to-end metric of BENCHMARK.json it
prints both sides' medians and quartiles, in how many pairs the change was
better (ties count for neither), and one verdict:

  gain        at least 10 pairs ran, the change wins at least 9/10 of them,
              its median is better than the parent's by more than the
              parent's interquartile range, and the workload's failures
              line holds;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a fraction of the parent's median);
  unresolved  a side's interquartile range, as a fraction of its median, is
              wider than the bound, and not every change run beats every
              parent run;
  held        none of the above.

A workload's failures line reads `worse` when the change failed a larger
share of its operations than the parent, or lost more runs (no result).
--runs also lists every run's value. The exit status is 1 when any verdict
is `worse`, and 0 otherwise; `unresolved` does not fail the run, since a
metric whose own spread exceeds its bound reads unresolved for any change.
"""

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# A gain needs at least this many pairs: 9 wins of 10 is the rule's floor.
MIN_GAIN_PAIRS = 10


def log(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------- running --

def run_once(checkout, command, workload, seed, seconds):
    """Runs one benchmark invocation; returns (exit code, result or None,
    error text)."""
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        result = None
    error = ""
    if proc.returncode != 0:
        error = "\n".join(proc.stderr.splitlines()[-5:])
    elif result is None:
        error = "no result line"
    return proc.returncode, result, error


def run_pairs(args, command, seconds):
    with open(args.out, "x") as out:
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in args.workload:
                for side in order:
                    checkout = args.parent if side == "parent" else args.change
                    started = time.monotonic()
                    code, result, error = run_once(checkout, command, workload,
                                                   seed, seconds)
                    record = {"workload": workload, "pair": pair, "seed": seed,
                              "side": side, "first": side == order[0],
                              "exit": code, "wall_s": round(
                                  time.monotonic() - started, 3),
                              "result": result}
                    if error:
                        record["error"] = error
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    log(f"pair {pair + 1}/{args.pairs} {workload} {side} "
                        f"(seed {seed}): exit {code}, "
                        f"{record['wall_s']:.1f} s")


# --------------------------------------------------------------- reporting --

def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    ordered = sorted(values)

    def at(p):
        k = (len(ordered) - 1) * p
        lo, hi = math.floor(k), math.ceil(k)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)

    return at(0.25), at(0.5), at(0.75)


def relative(delta, base):
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def metric_value(record, name):
    result = record.get("result") or {}
    metric = (result.get("metrics") or {}).get(name)
    return None if metric is None else metric.get("value")


def judge_metric(metric, records, pairs_run, failures_held):
    """Summarizes one end-to-end metric of one workload's records."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    values = {side: {} for side in SIDES}
    for record in records:
        value = metric_value(record, metric["name"])
        if value is not None:
            values[record["side"]][record["pair"]] = value
    summary = {"name": metric["name"], "unit": metric.get("unit", ""),
               "runs": {side: [values[side].get(p) for p in pairs_run]
                        for side in SIDES}}
    if not values["parent"] or not values["change"]:
        summary["verdict"] = "unresolved"
        return summary

    def improves(change, parent):
        return change < parent if lower else change > parent

    stats = {side: quartiles(values[side].values()) for side in SIDES}
    p_q1, p_med, p_q3 = stats["parent"]
    c_med = stats["change"][1]
    wins = sum(1 for p in pairs_run
               if p in values["parent"] and p in values["change"]
               and improves(values["change"][p], values["parent"][p]))
    gain_by = (p_med - c_med) if lower else (c_med - p_med)
    worse_by = relative(-gain_by, p_med)
    spread = max(relative(q3 - q1, med) for q1, med, q3 in stats.values())
    every_run_better = (max(values["change"].values()) <
                        min(values["parent"].values()) if lower else
                        min(values["change"].values()) >
                        max(values["parent"].values()))
    if (failures_held and len(pairs_run) >= MIN_GAIN_PAIRS and
            wins * 10 >= 9 * len(pairs_run) and gain_by > p_q3 - p_q1):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "worse"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "held"
    summary.update(stats=stats, wins=wins, verdict=verdict)
    return summary


def judge_failures(records):
    """Operations failed/attempted and runs lost, per side."""
    counts = {side: {"failed": 0, "attempted": 0, "lost": 0} for side in SIDES}
    for record in records:
        side = counts[record["side"]]
        result = record.get("result")
        if result is None:
            side["lost"] += 1
            continue
        side["failed"] += int(result.get("failed", 0))
        side["attempted"] += int(result.get("attempted", 0))

    def share(side):
        return side["failed"] / side["attempted"] if side["attempted"] else 0.0

    parent, change = counts["parent"], counts["change"]
    worse = share(change) > share(parent) or change["lost"] > parent["lost"]
    return {"counts": counts, "verdict": "worse" if worse else "held"}


def summarize(records, benchmark):
    """One summary per workload, in first-seen order."""
    workloads = {}
    for record in records:
        workloads.setdefault(record["workload"], []).append(record)
    summaries = []
    for workload, group in workloads.items():
        pairs_run = sorted({r["pair"] for r in group})
        failures = judge_failures(group)
        held = failures["verdict"] == "held"
        summaries.append({
            "workload": workload,
            "pairs": pairs_run,
            "seeds": sorted({r["seed"] for r in group}),
            "failures": failures,
            "metrics": [judge_metric(m, group, pairs_run, held)
                        for m in benchmark["end_to_end"]],
        })
    return summaries


def fmt(value):
    return "-" if value is None else f"{value:.4g}"


# Widths of the metric, unit, parent, change and wins columns; the verdict
# ends the row. A wider cell still keeps two spaces before the next one.
COLUMNS = (16, 5, 34, 34, 6)


def row(*cells):
    padded = [c.ljust(w) for c, w in zip(cells, COLUMNS)]
    return "  " + "  ".join(padded + list(cells[len(COLUMNS):]))


def print_report(summaries, list_runs, out=sys.stdout):
    for s in summaries:
        seeds = s["seeds"]
        print(f"{s['workload']}: {len(s['pairs'])} pairs, seeds "
              f"{seeds[0]}-{seeds[-1]}", file=out)
        counts = s["failures"]["counts"]
        sides = "; ".join(
            f"{side} {c['failed']}/{c['attempted']} ops failed, "
            f"{c['lost']} runs lost" for side, c in counts.items())
        print(f"  failures: {sides} -> {s['failures']['verdict']}", file=out)
        print(row("metric", "unit", "parent median [q1, q3]",
                  "change median [q1, q3]", "wins", "verdict"), file=out)
        for m in s["metrics"]:
            if "stats" not in m:
                print(row(m["name"], m["unit"], "no data", "", "",
                          m["verdict"]), file=out)
                continue
            cells = [f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"
                     for q1, med, q3 in (m["stats"][side] for side in SIDES)]
            print(row(m["name"], m["unit"], *cells,
                      f"{m['wins']}/{len(s['pairs'])}", m["verdict"]),
                  file=out)
            if list_runs:
                for side in SIDES:
                    runs = " ".join(fmt(v) for v in m["runs"][side])
                    print(f"      {side}: {runs}", file=out)


def exit_status(summaries):
    verdicts = [s["failures"]["verdict"] for s in summaries]
    verdicts += [m["verdict"] for s in summaries for m in s["metrics"]]
    return 1 if "worse" in verdicts else 0


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"),
                        help="benchmark definition (command, workloads and "
                             "end-to-end metrics)")
    parser.add_argument("--report", metavar="FILE",
                        help="summarize a recorded JSONL file; run nothing")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--out", help="new JSONL file the runs go to")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=9000)
    parser.add_argument("--runs", action="store_true",
                        help="list every run's value under each metric")
    args = parser.parse_args(argv)
    benchmark = json.loads(Path(args.benchmark).read_text())

    if args.report:
        path = args.report
    else:
        if not (args.parent and args.change and args.out):
            parser.error("--parent, --change and --out are required to run")
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        if Path(args.out).exists():
            parser.error(f"{args.out} exists; the runs go to a new file")
        args.workload = args.workload or [w["name"]
                                          for w in benchmark["workloads"]]
        run_pairs(args, benchmark["command"], benchmark["run_seconds"])
        path = args.out
    summaries = summarize(read_records(path), benchmark)
    print_report(summaries, args.runs)
    return exit_status(summaries)


if __name__ == "__main__":
    sys.exit(main())
