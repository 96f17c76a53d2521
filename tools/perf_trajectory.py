#!/usr/bin/env python3
"""Keep BENCH_perf.jsonl, the committed host-performance trajectory.

    python3 tools/perf_trajectory.py append --pr 17
    python3 tools/perf_trajectory.py check

append runs the host-cost benchmark (perfbench/run.py, untraced, 20 s
per run) five times on every workload that BENCHMARK.json declares,
alternating the workloads, and appends one line per workload: the PR
number, the commit measured (marked -dirty if the tree differs from
it), the date, the host (nproc and CPU model), the seed, runs and
seconds, and the median and quartile distance (iqr) across the runs of
each end-to-end metric. It appends nothing if a run fails a point.
Times from different sessions do not compare: to compare two commits,
use perfbench's pair rule (perfbench/README.md, "Comparing two
commits").

check requires every line to parse and to name only workloads and
end-to-end metrics that BENCHMARK.json declares, then prints the last
six lines. BENCHMARK.json is read, never written.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_perf.jsonl")
SECONDS = 20
SEED = 1
RUNS = 5
TAIL = 6
ROW_KEYS = {"pr", "commit", "date", "host", "workload", "seed", "runs",
            "seconds", "metrics"}


def fail(message):
    sys.exit(f"perf_trajectory: {message}")


def benchmark():
    """Workload and end-to-end metric names from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]],
            [m["name"] for m in spec["end_to_end"]])


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_once(workload):
    """One untraced perfbench run; returns {metric: value}."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"{workload}: perfbench exited with status {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        fail(f"{workload}: {result['failed']} of {result['attempted']} "
             "points failed; nothing appended")
    return {name: m["value"] for name, m in result["metrics"].items()}


def append(pr):
    workloads, metrics = benchmark()
    commit = git("rev-parse", "--short=12", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no", "--", ".",
           ":!BENCH_perf.jsonl"):
        commit += "-dirty"
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), "unknown")
    runs = {w: [] for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            runs[w].append(run_once(w))
            print(f"run {i + 1}/{RUNS} {w}: wall_s "
                  f"{runs[w][-1]['wall_s']:.3f}", file=sys.stderr)
    date = datetime.datetime.now(datetime.timezone.utc)
    with open(TRAJECTORY, "a") as f:
        for w in workloads:
            summary = {}
            for m in metrics:
                q1, median, q3 = statistics.quantiles(
                    [run[m] for run in runs[w]], n=4, method="inclusive")
                summary[m] = {"median": median, "iqr": q3 - q1}
            row = {"pr": pr, "commit": commit,
                   "date": date.strftime("%Y-%m-%dT%H:%M:%SZ"),
                   "host": {"nproc": os.cpu_count(), "cpu": cpu},
                   "workload": w, "seed": SEED, "runs": RUNS,
                   "seconds": SECONDS, "metrics": summary}
            f.write(json.dumps(row) + "\n")


def check():
    workloads, metrics = benchmark()
    with open(TRAJECTORY) as f:
        lines = f.read().splitlines()
    for n, line in enumerate(lines, 1):
        try:
            row = json.loads(line)
            if set(row) != ROW_KEYS:
                raise KeyError(sorted(set(row) ^ ROW_KEYS))
            bad = [] if row["workload"] in workloads else [row["workload"]]
            bad += [m for m in row["metrics"] if m not in metrics]
        except (ValueError, KeyError, TypeError) as e:
            fail(f"BENCH_perf.jsonl:{n}: malformed row ({e!r})")
        if bad:
            fail(f"BENCH_perf.jsonl:{n}: not in BENCHMARK.json: {bad}")
    print(f"BENCH_perf.jsonl: {len(lines)} rows OK")
    for line in lines[-TAIL:]:
        print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    a = sub.add_parser("append", help="run perfbench and append rows")
    a.add_argument("--pr", type=int, required=True)
    sub.add_parser("check", help="validate rows and print the tail")
    args = ap.parse_args()
    if args.mode == "append":
        append(args.pr)
    else:
        check()


if __name__ == "__main__":
    main()
