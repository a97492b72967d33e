"""Spans and counters around groupcut's layer boundaries, for traced runs.

The tracer wraps functions and methods of the package from outside: each
wrapped name is replaced in every groupcut module that holds it, so a call
is seen whichever module looks the name up (extremality reaches matrix_rank
as groupcut.extremality.matrix_rank, the search reaches is_extreme as
groupcut.search.is_extreme, and so on). A span records its name, start, end
and the span it was opened under; spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children. The code is single-threaded, so direct children never overlap.
"""

import functools
import json
import sys
import time
from collections import Counter

# (span name, module, attribute): module-level functions, patched wherever
# a groupcut module holds the same function object.
_FUNCTION_SPANS = (
    ("polyhedra.enumerate", "groupcut.polyhedra", "enumerate_vertices"),
    ("polyhedra.redundancy", "groupcut.polyhedra", "remove_redundant"),
    ("linalg.rank", "groupcut.linalg", "matrix_rank"),
    ("linalg.solve_affine", "groupcut.linalg", "solve_affine"),
    ("complex2d.painting", "groupcut.complex2d", "painting_from_function"),
    ("complex2d.components", "groupcut.complex2d", "covered_components"),
    ("extremality.test", "groupcut.extremality", "is_extreme"),
    ("search.run", "groupcut.search", "run_search"),
    ("patterns.pattern_extreme", "groupcut.patterns", "pattern_extreme"),
    ("patterns.build_slope_polytope", "groupcut.patterns",
     "build_slope_polytope"),
)

# (span name, module, class, method)
_METHOD_SPANS = (
    ("simplex.solve", "groupcut.simplex", "LpState", "maximize"),
    ("simplex.solve", "groupcut.simplex", "LpState", "minimize"),
    ("simplex.restore", "groupcut.simplex", "LpState", "restore_feasible"),
    ("search.propagate", "groupcut.search", "_RootSystem",
     "propagate_implied"),
)

# (counter name, module, class, method): hot calls that only get counted.
_METHOD_COUNTS = (
    ("simplex.rows_added", "groupcut.simplex", "LpState", "add_row"),
    ("simplex.clones", "groupcut.simplex", "LpState", "clone"),
    ("linalg.tracker_rows", "groupcut.linalg", "RankTracker", "add_row"),
)

_SIMPLEX = ("simplex.solve", "simplex.restore")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.distinct = set()  # values of the functions given to is_extreme
        self._stack = []
        self._undo = []

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every traced name; undo with uninstall()."""
        after = {
            "polyhedra.enumerate": self._after_enumerate,
            "extremality.test": self._after_is_extreme,
            "patterns.build_slope_polytope": self._after_slope_polytope,
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "groupcut" or name.startswith("groupcut.")]
        for span, module, attr in _FUNCTION_SPANS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._span(span, original, after.get(span))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, original, wrapper)
        for span, module, cls, method in _METHOD_SPANS:
            owner = getattr(sys.modules[module], cls)
            original = owner.__dict__[method]
            self._replace(owner, method, original, self._span(span, original))
        for counter, module, cls, method in _METHOD_COUNTS:
            owner = getattr(sys.modules[module], cls)
            original = owner.__dict__[method]
            self._replace(owner, method, original,
                          self._count(counter, original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _replace(self, owner, name, original, wrapper):
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_enumerate(self, args, vertices):
        poly = args[0]
        self.counts["polyhedra.vertices"] += len(vertices)
        self.counts["polyhedra.input_rows"] += len(poly.ineqs) + len(poly.eqs)

    def _after_is_extreme(self, args, result):
        self.distinct.add(args[0].values)
        self.counts["extremality.extreme"] += bool(result.extreme)

    def _after_slope_polytope(self, args, poly):
        self.counts["patterns.slope_rows"] += len(poly.ineqs) + len(poly.eqs)

    # -- rounds --------------------------------------------------------------

    def round(self, fn):
        """Run fn under one root span; returns (result, finished spans)."""
        self.spans.clear()
        self.counts.clear()
        self.distinct.clear()
        result = self._span("bench.round", fn)()
        return result, [tuple(s) for s in self.spans]


def layer_metrics(spans, counts, distinct, kept, search_stats):
    """Per-layer metrics of one traced round.

    kept is the number of outputs the workload emitted; search_stats is
    the program's own stats dict for the search workload, else empty.
    """
    n = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * n
    in_simplex = [False] * n
    in_patterns = [False] * n
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            pname = spans[parent][0]
            in_simplex[i] = in_simplex[parent] or pname in _SIMPLEX
            in_patterns[i] = (in_patterns[parent]
                              or pname == "patterns.pattern_extreme")

    def select(name, outermost_simplex=False):
        return [i for i in range(n) if spans[i][0] == name
                and not (outermost_simplex and in_simplex[i])]

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_time(idx):
        return sum(dur[i] - child[i] for i in idx)

    solves = select("simplex.solve", True)
    restores = select("simplex.restore", True)
    enum = select("polyhedra.enumerate")
    redund = select("polyhedra.redundancy")
    rank = select("linalg.rank")
    paint = select("complex2d.painting")
    tests = select("extremality.test")
    run = select("search.run")
    nodes = search_stats.get("nodes", 0)
    infeasible = search_stats.get("infeasible", 0)
    patterns = (select("patterns.pattern_extreme")
                + select("patterns.build_slope_polytope"))
    roots = select("bench.round")
    return {
        "simplex.solves": (len(solves), "count"),
        "simplex.solve_s": (total(solves), "s"),
        "simplex.restores": (len(restores), "count"),
        "simplex.restore_s": (total(restores), "s"),
        "simplex.rows_added": (counts["simplex.rows_added"], "count"),
        "simplex.clones": (counts["simplex.clones"], "count"),
        "polyhedra.enumerations": (len(enum), "count"),
        "polyhedra.vertices": (counts["polyhedra.vertices"], "count"),
        "polyhedra.input_rows": (counts["polyhedra.input_rows"], "count"),
        "polyhedra.enumerate_s": (total(enum), "s"),
        "polyhedra.enumerate_self_s": (self_time(enum), "s"),
        "polyhedra.redundancy_calls": (len(redund), "count"),
        "polyhedra.redundancy_s": (total(redund), "s"),
        "linalg.rank_calls": (len(rank), "count"),
        "linalg.rank_s": (total(rank), "s"),
        "linalg.solve_affine_s": (total(select("linalg.solve_affine")), "s"),
        "linalg.tracker_rows": (counts["linalg.tracker_rows"], "count"),
        "complex2d.paintings": (len(paint), "count"),
        "complex2d.painting_s": (total(paint), "s"),
        "complex2d.components_s":
            (total(select("complex2d.components")), "s"),
        "extremality.tests": (len(tests), "count"),
        "extremality.distinct": (len(distinct), "count"),
        "extremality.extreme": (counts["extremality.extreme"], "count"),
        "extremality.s": (total(tests), "s"),
        "extremality.self_s": (self_time(tests), "s"),
        "extremality.useful_ratio":
            (kept / len(tests) if tests else 0.0, "ratio"),
        "search.nodes": (nodes, "count"),
        "search.infeasible": (infeasible, "count"),
        "search.stop_nodes": (search_stats.get("stop_nodes", 0), "count"),
        "search.feasible_ratio":
            ((nodes - infeasible) / nodes if nodes else 0.0, "ratio"),
        "search.propagate_s": (total(select("search.propagate")), "s"),
        "search.self_s": (self_time(run), "s"),
        "patterns.slope_rows": (counts["patterns.slope_rows"], "count"),
        "patterns.candidates":
            (sum(1 for i in tests if in_patterns[i]), "count"),
        "patterns.self_s": (self_time(patterns), "s"),
        "trace.wall_s": (total(roots), "s"),
    }


def span_count(spans, name):
    return sum(1 for s in spans if s[0] == name)


def write_spans(path, rounds):
    """One JSON line per span; times are seconds from the round's start."""
    with open(path, "w") as fh:
        for r, spans in enumerate(rounds):
            origin = spans[0][1] if spans else 0.0
            for i, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({
                    "round": r, "id": i, "name": name, "parent": parent,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                }) + "\n")
