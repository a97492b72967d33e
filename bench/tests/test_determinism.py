"""The search workload gives the same outputs with the fork pool as without.

groupcut promises byte-identical outputs whatever --workers is; this runs
the benchmark's search configuration with one worker and with two.
"""

import groupcut as gc
import workloads


def _run(worker_count):
    config = gc.SearchConfig(
        q=workloads.SEARCH_Q, f_index=workloads.SEARCH_F,
        target_slopes=workloads.SEARCH_SLOPES, mode=gc.COMBINED,
        exp_dim_threshold=workloads.SEARCH_THRESHOLD,
        worker_count=worker_count)
    out = gc.run_search(config)
    functions = [" ".join(str(v) for v in fn.values) for fn in out.functions]
    paintings = ["\n".join(p.to_lines()) for p in out.paintings]
    return functions, paintings


def test_two_workers_match_one_worker_byte_for_byte():
    functions, paintings = _run(1)
    assert len(functions) == 13 and len(paintings) == 27
    assert _run(2) == (functions, paintings)
