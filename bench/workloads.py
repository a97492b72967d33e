"""The benchmark's workloads, driven through groupcut's public functions.

Each workload is a fixed parameter choice (the program has no random
input to draw): it builds its inputs once, then a round calls its
operations in order. One operation is one top-level call: one polytope,
one pattern family or one search. `plain` turns a round's results into
plain data (tuples of Fractions and strings) that the checkers in
checkers.py read and that later rounds must reproduce exactly. `check`
returns the checkers' (problems, verified).
"""

import checkers

# enumerate: P(21, 1) and its image P(21, 8) under x -> 8x (8 is a unit
# mod 21); 1,661 vertices each.
ENUM_Q, ENUM_F, ENUM_UNIT, ENUM_VERTICES = 21, 1, 8, 1661

# pattern: the r = 4 prescribed-pattern family at q = 36r + 22 = 166,
# functions with at least 10 slopes; 6 of them today.
PATTERN_R, PATTERN_SLOPES, PATTERN_Q, PATTERN_FUNCTIONS = 4, 10, 166, 6

# search: combined mode that really branches (221 nodes, 27 stop nodes).
SEARCH_Q, SEARCH_F, SEARCH_SLOPES, SEARCH_THRESHOLD = 14, 5, 3, 5


def _function(fn):
    return (fn.q, fn.f_index, fn.values)


class Enumerate:
    """remove_redundant, then enumerate_vertices, as `groupcut vertices`."""

    name = "enumerate"
    vertices_are_outputs = True

    def __init__(self, gc):
        self.gc = gc
        self.polytopes = [gc.build_minimal_function_polytope(ENUM_Q, f)
                          for f in (ENUM_F, ENUM_F * ENUM_UNIT % ENUM_Q)]

    def operations(self):
        gc = self.gc
        return [lambda p=p: gc.enumerate_vertices(gc.remove_redundant(p))
                for p in self.polytopes]

    def plain(self, results):
        return tuple(tuple(vertices) for vertices in results)

    def check(self, plain):
        return checkers.check_enumerate(ENUM_Q, ENUM_F, ENUM_UNIT, plain[0],
                                        plain[1], ENUM_VERTICES)

    def outputs(self, plain):
        """How many outputs (vertices or functions) the round emitted."""
        return sum(len(vertices) for vertices in plain)

    def stats(self, results):
        return {}


class Pattern:
    """pattern_extreme(4, 10): DD on the slope polytope, then is_extreme."""

    name = "pattern"
    vertices_are_outputs = False

    def __init__(self, gc):
        self.gc = gc

    def operations(self):
        gc = self.gc
        return [lambda: gc.pattern_extreme(PATTERN_R, PATTERN_SLOPES)]

    def plain(self, results):
        return tuple(_function(fn) for fn in results[0])

    def check(self, plain):
        return checkers.check_pattern(plain, PATTERN_Q, PATTERN_Q // 2,
                                      PATTERN_SLOPES, PATTERN_FUNCTIONS)

    def outputs(self, plain):
        return len(plain)

    def stats(self, results):
        return {}


class Search:
    """run_search in combined mode, single worker."""

    name = "search"
    vertices_are_outputs = False

    def __init__(self, gc):
        self.gc = gc
        self.config = gc.SearchConfig(
            q=SEARCH_Q, f_index=SEARCH_F, target_slopes=SEARCH_SLOPES,
            mode=gc.COMBINED, exp_dim_threshold=SEARCH_THRESHOLD)

    def operations(self):
        gc = self.gc
        return [lambda: gc.run_search(self.config)]

    def plain(self, results):
        out = results[0]
        return (tuple(_function(fn) for fn in out.functions),
                tuple(tuple(p.to_lines()) for p in out.paintings),
                tuple(sorted(out.stats.items())))

    def check(self, plain):
        # The reference is the vertex-filter route: every vertex of the
        # whole polytope, filtered by the checkers' own covering test.
        gc = self.gc
        vertices = gc.enumerate_vertices(
            gc.build_minimal_function_polytope(SEARCH_Q, SEARCH_F))
        return checkers.check_search(plain[0], SEARCH_Q, SEARCH_F,
                                     SEARCH_SLOPES, vertices)

    def outputs(self, plain):
        return len(plain[0])

    def stats(self, results):
        return dict(results[0].stats)


WORKLOADS = {w.name: w for w in (Enumerate, Pattern, Search)}
