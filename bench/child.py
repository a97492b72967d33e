"""One measured run of one workload, in the fresh process run.py starts.

Rounds of the workload's operations repeat while the next one, as long
as the last, would end within --seconds (at least two rounds). wall_s is
the shortest round: the work of every round is the same, and a shared
host's slow CPU states only ever add to a round's time. The first round
in which no operation failed goes through the checkers; every later round
must reproduce its outputs exactly. A run is correct only when no
operation failed, some round was checked and the checks passed. Prints
one JSON line:
{"correct", "attempted", "failed", "metrics"}, where each metric is
{"value", "unit"}. Untraced runs report the end-to-end metrics, traced
runs (--trace 1) the per-layer ones.

With --setup-only the child stops after set-up and prints only
{"setup_s": ...}: run.py starts a few of these to time more cold set-ups
than the one measured run gives.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

_FAILED = object()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when run.py started us")
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import groupcut
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](groupcut)
    operations = workload.operations()
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.started}))
        return
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    def one_round():
        results = []
        for op in operations:
            try:
                results.append(op())
            except Exception:
                if not failed:
                    traceback.print_exc()
                results.append(_FAILED)
        return results

    attempted = failed = 0
    walls, layers, span_rounds, problems = [], [], [], []
    reference = peak_rss_mb = None
    setup_s = time.monotonic() - args.started
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            results = one_round()
        else:
            results, spans = tracer.round(one_round)
        walls.append(time.perf_counter() - t0)
        if peak_rss_mb is None:
            # High-water mark of set-up plus the first round: later rounds
            # also hold the first round's outputs, and their number varies.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += len(results)
        failed += sum(1 for r in results if r is _FAILED)
        if _FAILED not in results:
            plain = workload.plain(results)
            if reference is None:
                reference = plain
            elif plain != reference:
                problems.append("round %d: outputs differ from the first "
                                "checked round" % len(walls))
            if tracer is not None:
                stats = workload.stats(results)
                propagates = tracing.span_count(spans, "search.propagate")
                if stats and stats["nodes"] != propagates:
                    problems.append("search stats count %d nodes, the trace "
                                    "%d propagate_implied calls"
                                    % (stats["nodes"], propagates))
                layers.append(tracing.layer_metrics(
                    spans, tracer.counts, tracer.distinct,
                    workload.outputs(plain), stats))
                span_rounds.append(spans)
        # Whole rounds only, at least two so that wall_s is the shorter of
        # two even when a round is long, and after that none that would
        # likely end past the deadline: the run then lasts about --seconds
        # whatever a round takes.
        elapsed = time.perf_counter() - begin
        if len(walls) >= 2 and elapsed + walls[-1] > args.seconds:
            break

    if tracer is not None:
        tracer.uninstall()
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        tracing.write_spans(args.trace_out, span_rounds)
    if failed:
        problems.append("%d of %d operations failed" % (failed, attempted))
    if reference is None:
        problems.append("no round finished without a failed operation, so "
                        "no output was checked")
    else:
        found, verified = workload.check(reference)
        problems.extend(found)
        if layers and workload.vertices_are_outputs:
            seen = layers[0]["polyhedra.vertices"][0]
            if seen != verified:
                problems.append("trace counts %d vertices, the checkers "
                                "verified %d" % (seen, verified))

    if tracer is None:
        metrics = {
            "wall_s": {"value": min(walls), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = {}
        for name, (_, unit) in (layers[0].items() if layers else ()):
            metrics[name] = {
                "value": statistics.median(m[name][0] for m in layers),
                "unit": unit,
            }
    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
