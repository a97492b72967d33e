"""Reproduce the reference figures in bench/README.md.

    python3 bench/reference.py [--runs 10] [--seconds S] [workload ...]

S defaults to run_seconds in BENCHMARK.json. For each workload (all three
by default) this runs bench/run.py with --trace 0 once per seed 1..runs,
then once with --trace 1, one run at a time, and prints Markdown: the
median and quartiles of every end-to-end metric with the spread
(Q3 - Q1) / median, and the per-layer split of the traced run next to the
untraced median wall time. Each run's result line goes to standard error
as it finishes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def _run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: outputs failed the checks"
                         % (workload, seed))
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=_run_seconds())
    parser.add_argument("workloads", nargs="*",
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args()

    print("| workload | metric | median | Q1 | Q3 | spread "
          "| failed/attempted |")
    print("|---|---|---|---|---|---|---|")
    traced = {}
    walls = {}
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run(workload, seed, args.seconds, 0))
            print(workload, seed, json.dumps(results[-1]), file=sys.stderr)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        for name in END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            unit = results[0]["metrics"][name]["unit"]
            print("| %s | %s (%s) | %.4g | %.4g | %.4g | %.3f | %d/%d |"
                  % (workload, name, unit, med, q1, q3,
                     (q3 - q1) / statistics.median(values), failed,
                     attempted))
        walls[workload] = statistics.median(
            r["metrics"]["wall_s"]["value"] for r in results)
        traced[workload] = run(workload, 0, args.seconds, 1)["metrics"]
        sys.stdout.flush()

    print()
    print("| metric | " + " | ".join(args.workloads) + " |")
    print("|---|" + "---|" * len(args.workloads))
    print("| untraced median wall_s (s) | "
          + " | ".join("%.3f" % walls[w] for w in args.workloads) + " |")
    for name, metric in traced[args.workloads[0]].items():
        cells = []
        for w in args.workloads:
            value = traced[w][name]["value"]
            cells.append("%d" % value if metric["unit"] == "count"
                         else "%.3f" % value)
        print("| %s (%s) | %s |" % (name, metric["unit"], " | ".join(cells)))


if __name__ == "__main__":
    main()
