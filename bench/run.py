"""Run one groupcut benchmark workload and print its metrics.

    python3 bench/run.py --workload {enumerate,pattern,search} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The workload runs in a fresh child process
(bench/child.py) that imports groupcut from ./src; its set-up time is
measured from the moment this script starts that process. Untraced runs
also time the set-up of SETUP_SAMPLES more fresh children that stop after
set-up, half before the measured child and half after it, and report the
shortest of all these cold set-ups as setup_s. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are the end-to-end ones
named in BENCHMARK.json, with --trace 1 the per-layer ones, and the spans
of the traced run are written to bench/traces/<workload>.jsonl.

The workloads' inputs are fixed parameter choices. The seed becomes the
child's PYTHONHASHSEED, so every seed runs the program under another
string-hash order, and its outputs must not change with it.

Exit status: 0 when the run finished and its outputs passed the checks,
1 when the run failed or an output was wrong, 2 when there is no groupcut
source tree to run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# Set-up takes under 0.1 s, so each sample lands wholly in one of the
# speed states a shared host's CPU swings between for seconds at a time,
# and one sample per run spreads by a third of its median or more. Set-up
# is the same work every time and a slow state only adds to it, so the
# shortest of 11 cold set-ups is its steadiest measure.
SETUP_SAMPLES = 10


def _expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _child(cmd, env, timeout):
    """Run one child; its stdout's last line as JSON, or None if it failed."""
    try:
        proc = subprocess.run(cmd + ["--started", repr(time.monotonic())],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("bench: child exceeded %d s" % timeout, file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("bench: child exited with status %d" % proc.returncode,
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _cold_setups(child, env, count):
    """Set-up times of count fresh children, or None if one failed."""
    times = []
    for _ in range(count):
        out = _child(child + ["--setup-only"], env, 60)
        if out is None:
            return None
        times.append(out["setup_s"])
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "groupcut", "__init__.py")):
        print("bench: no groupcut sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, BENCH] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(args.seed % (1 << 32))
    child = [sys.executable, os.path.join(BENCH, "child.py"),
             "--workload", args.workload]
    samples = 0 if args.trace else SETUP_SAMPLES
    setups = _cold_setups(child, env, samples // 2)
    if setups is None:
        return 1
    # A run lasts about --seconds, or two rounds when they take longer
    # (up to about 50 s for search here), plus the checks; the margin lets
    # a severalfold slower round still be measured before the child counts
    # as stuck.
    result = _child(child + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-out", os.path.join(BENCH, "traces",
                                    args.workload + ".jsonl")],
        env, args.seconds * 3 + 120)
    if result is None:
        return 1
    after = _cold_setups(child, env, samples - samples // 2)
    if after is None:
        return 1
    missing = _expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        print("bench: metrics missing from the run: %s"
              % ", ".join(sorted(missing)), file=sys.stderr)
        return 1
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setup["value"] = min(setups + after + [setup["value"]])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
