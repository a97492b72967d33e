"""Backtracking searches for extreme functions on the 1/q grid.

Three modes share one machinery. Vertex filtering enumerates the whole
minimal-function polytope and keeps the covered vertices. The heuristic
backtracking search grows a partial painting face by face, with an exact
warm-started LP pruning infeasible color assignments and detecting
additivities the current assignment already implies. Combined mode runs
the same tree but stops early once the expected dimension of the current
restriction is small enough to enumerate directly.

Every LP here is exact rational; determinism is part of the contract, so
results are collected and canonically sorted before they are yielded, no
matter how many workers took part.
"""

import multiprocessing
from dataclasses import dataclass, field

from .complex2d import (DEDGE, GREEN, GREY, HEDGE, LOWER, UPPER, VEDGE,
                        VERTEX, WHITE, ComponentPartition, Face, Painting,
                        canonical, corner_vertices, interval_projections,
                        iter_canonical_faces)
from .extremality import is_extreme
from .grid_functions import number_of_slopes
from .linalg import RankTracker
from .polyhedra import (Polytope, build_minimal_function_polytope,
                        enumerate_vertices, function_from_vertex)
from .rationals import Q
from .simplex import LpState, OPTIMAL

VERTEX_FILTER = "vertex_filter"
HEURISTIC = "heuristic"
COMBINED = "combined"
_MODES = (VERTEX_FILTER, HEURISTIC, COMBINED)

_TRIANGLE_RANK = {LOWER: 0, UPPER: 1}

# Depth at which subtrees are handed to worker processes.
_SPLIT_DEPTH = 3


class SearchError(ValueError):
    pass


def exact_epsilon(q):
    """Additivity margin small enough to lose no extreme function."""
    return Q(1, 10 ** ((q + 3) // 4))


@dataclass(frozen=True)
class SearchConfig:
    q: int
    f_index: int
    target_slopes: int = 2
    epsilon: object = Q(1, 4)
    mode: str = COMBINED
    exp_dim_threshold: int = 11
    worker_count: int = 1

    def __post_init__(self):
        if self.q < 2:
            raise SearchError("q must be at least 2")
        if not 1 <= self.f_index < self.q:
            raise SearchError("f_index must lie strictly inside 0..q")
        if self.target_slopes < 1:
            raise SearchError("target_slopes must be positive")
        if Q(self.epsilon) <= 0:
            raise SearchError("epsilon must be positive")
        if self.mode not in _MODES:
            raise SearchError(f"unknown mode {self.mode!r}")
        if self.worker_count < 1:
            raise SearchError("worker_count must be positive")


@dataclass
class SearchOutcome:
    """Everything a finished run produced, already canonically sorted."""

    paintings: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


class SearchNode:
    """One node of the backtracking tree.

    The node owns its LP state and painting outright; children are made
    by cloning, so a node can be mutated freely by the search driver that
    holds it. `path` records the branch decisions from the root, which is
    enough to rebuild the node from scratch (workers do exactly that).
    """

    __slots__ = ("system", "painting", "lp", "depth", "path", "branched",
                 "_parent", "_covered", "_ncomp", "_cs", "_point")

    def __init__(self, system, painting, lp, depth, path, branched,
                 parent, covered, ncomp, cs):
        self.system = system
        self.painting = painting
        self.lp = lp
        self.depth = depth
        self.path = path
        self.branched = branched
        self._parent = parent
        self._covered = covered
        self._ncomp = ncomp
        self._cs = cs
        self._point = None

    def clone(self):
        return SearchNode(self.system, self.painting.copy(), self.lp.clone(),
                          self.depth, self.path, set(self.branched),
                          list(self._parent), list(self._covered),
                          self._ncomp, self._cs.clone())

    # -- interval components ------------------------------------------

    def _find(self, a):
        parent = self._parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._covered[ra] = self._covered[ra] or self._covered[rb]
        self._ncomp -= 1

    def _absorb_green_face(self, face):
        spans = interval_projections(face, self.painting.q)
        if not spans:
            return
        if face.kind in (LOWER, UPPER):
            self._covered[self._find(spans[0])] = True
        for z in spans[1:]:
            self._union(spans[0], z)

    def component_count(self):
        return self._ncomp

    def is_covered(self, z):
        return self._covered[self._find(z)]

    def all_covered(self):
        return all(self._covered[self._find(z)]
                   for z in range(self.painting.q))

    @property
    def components(self):
        """The incremental interval partition, frozen as ComponentPartition."""
        groups = {}
        for z in range(self.painting.q):
            groups.setdefault(self._find(z), []).append(z)
        roots = sorted(groups)
        return ComponentPartition(self.painting.q,
                                  [groups[r] for r in roots],
                                  [self._covered[r] for r in roots])

    def exp_dim(self):
        return self.painting.q - self._cs.rank

    def feasible_point(self):
        if self._point is None:
            self._point = self.lp.point()
        return self._point

    def invalidate_point(self):
        self._point = None


class _RootSystem:
    """The LP and bookkeeping shared by every node of one search run.

    Holds the map from canonical vertex to the LP row carrying its
    additivity slack; row ids survive LpState.clone, so one map serves
    the whole tree.
    """

    def __init__(self, config):
        q, f = config.q, config.f_index
        self.config = config
        bounds = []
        for x in range(q):
            if x == 0:
                bounds.append((0, 0))
            elif x == f:
                bounds.append((1, 1))
            else:
                bounds.append((0, 1))
        lp = LpState(bounds)
        self.row_of = {}
        for x in range(1, q):
            for y in range(x, q):
                coeffs = {}
                for var, c in ((x, 1), (y, 1), ((x + y) % q, -1)):
                    coeffs[var] = coeffs.get(var, 0) + c
                self.row_of[Face(VERTEX, x, y)] = lp.add_row(coeffs, 0, None)
        self.lp = lp

    def delta_coeff_row(self, vtx):
        """The vertex's additivity row over all q function values."""
        q = self.config.q
        row = [0] * q
        for var, c in ((vtx.x, 1), (vtx.y, 1), ((vtx.x + vtx.y) % q, -1)):
            row[var] += c
        return row

    def build_root(self):
        q, f = self.config.q, self.config.f_index
        painting = Painting(q)
        cs = RankTracker(q)
        cs.add_row([1 if x == 0 else 0 for x in range(q)])
        cs.add_row([1 if x == f else 0 for x in range(q)])
        node = SearchNode(self, painting, self.lp.clone(), 0, (), set(),
                          list(range(q)), [False] * q, q, cs)
        greens = []
        for y in range(q):
            vtx = Face(VERTEX, 0, y)
            painting.set_color(vtx, GREEN)
            greens.append(vtx)
        for x in range(q):
            vtx = canonical(Face(VERTEX, x, (f - x) % q))
            if painting.color(vtx) == GREY:
                self._make_vertex_green(node, vtx)
                greens.append(vtx)
        self._lift(node, greens)
        return node

    # -- painting mutations --------------------------------------------

    def _make_vertex_green(self, node, vtx):
        node.painting.set_color(vtx, GREEN)
        row = self.row_of.get(vtx)
        if row is not None:
            node.lp.set_bounds(row, 0, 0)
            node._cs.add_row(self.delta_coeff_row(vtx))

    def _lift(self, node, new_vertices):
        """Repaint faces whose corners all turned green; merge components."""
        painting = node.painting
        q = painting.q
        candidates = set()
        for vtx in new_vertices:
            for a, b in ((vtx.x, vtx.y), (vtx.y, vtx.x)):
                am, bm = (a - 1) % q, (b - 1) % q
                candidates.update((
                    Face(HEDGE, a, b), Face(HEDGE, am, b),
                    Face(VEDGE, a, b), Face(VEDGE, a, bm),
                    Face(DEDGE, a, bm), Face(DEDGE, am, b),
                    Face(LOWER, a, b), Face(LOWER, am, b),
                    Face(LOWER, a, bm), Face(UPPER, a, bm),
                    Face(UPPER, am, bm), Face(UPPER, am, b),
                ))
        for face in sorted(canonical(face) for face in candidates):
            if painting.color(face) != GREY:
                continue
            if all(painting.color(c) == GREEN
                   for c in corner_vertices(face, q)):
                painting.set_color(face, GREEN)
                node._absorb_green_face(face)

    def apply_decision(self, node, triangle, make_green):
        """Mutate `node` into the chosen child of a branch step."""
        q = self.config.q
        corners = corner_vertices(triangle, q)
        if make_green:
            fresh = []
            for corner in corners:
                vtx = canonical(corner)
                if node.painting.color(vtx) == GREY:
                    self._make_vertex_green(node, vtx)
                    fresh.append(vtx)
            node.painting.set_color(triangle, GREEN)
            node._absorb_green_face(triangle)
            self._lift(node, fresh)
        else:
            coeffs = {}
            for corner in corners:
                row = self.row_of.get(canonical(corner))
                if row is not None:
                    coeffs[row] = coeffs.get(row, 0) + 1
            node.lp.add_row(coeffs, self.config.epsilon, None)
            node.painting.set_color(triangle, WHITE)
        node.depth += 1
        node.path = node.path + ((triangle, make_green),)
        node.branched.add(triangle)
        node.invalidate_point()
        return node

    # -- node operations --------------------------------------------------

    def branch(self, node, triangle):
        if node.painting.color(triangle) != GREY:
            raise SearchError("can only branch on a grey triangle")
        green = self.apply_decision(node.clone(), triangle, True)
        white = self.apply_decision(node.clone(), triangle, False)
        return green, white

    def propagate_implied(self, node):
        """Feasibility check, then repaint every implied-additive vertex.

        Returns False when the node's LP is infeasible. Turning a proven
        implied additivity into an explicit equality never shrinks the
        feasible region, so a single pass over the grey vertices in
        lexicographic order decides every vertex exactly.
        """
        lp = node.lp
        node.invalidate_point()
        if not lp.restore_feasible():
            return False
        q = self.config.q
        point = lp.point()
        for x in range(1, q):
            for y in range(x, q):
                vtx = Face(VERTEX, x, y)
                if node.painting.color(vtx) != GREY:
                    continue
                if point[x] + point[y] - point[(x + y) % q] != 0:
                    continue
                status, val = lp.maximize({self.row_of[vtx]: 1})
                if status != OPTIMAL:
                    return False
                point = lp.point()
                if val == 0:
                    self._make_vertex_green(node, vtx)
                    self._lift(node, [vtx])
        node._point = point
        return True

    def choose_branching_triangle(self, node):
        best = None
        for face in self._grey_triangles(node):
            key = (_TRIANGLE_RANK[face.kind], face.x, face.y)
            if best is None or key < best[0]:
                best = (key, face)
        return None if best is None else best[1]

    def _grey_triangles(self, node):
        painting = node.painting
        for face in iter_canonical_faces(painting.q, (LOWER, UPPER)):
            if painting.color(face) != GREY:
                continue
            if face in node.branched:
                continue
            if node.is_covered(face.x) or node.is_covered(face.y):
                continue
            yield face


class _TreeSearch:
    """Depth-first driver shared by heuristic and combined modes."""

    def __init__(self, config, collect_paths_at=None):
        self.config = config
        self.system = _RootSystem(config)
        self.collect_paths_at = collect_paths_at
        self.pending_paths = []
        self.paintings = []
        self.functions = {}
        self.decided = set()  # values already passed to is_extreme
        self.stats = {"nodes": 0, "infeasible": 0, "pruned_components": 0,
                      "dead_ends": 0, "covering_paintings": 0,
                      "stop_nodes": 0}
        self.node_observer = None

    def run(self, replay_path=None):
        node = self.system.build_root()
        if replay_path:
            for triangle, make_green in replay_path:
                self.system.apply_decision(node, triangle, make_green)
            # the run that handed out this path has counted its node
            self.stats["nodes"] -= 1
        self._visit(node)
        return self._outcome()

    def _outcome(self):
        out = SearchOutcome()
        out.paintings = sorted(self.paintings, key=lambda p: p.to_lines())
        out.functions = sorted(self.functions.values(),
                               key=lambda fn: fn.sort_key())
        out.stats = dict(self.stats)
        return out

    def _visit(self, node):
        self.stats["nodes"] += 1
        if not self.system.propagate_implied(node):
            self.stats["infeasible"] += 1
            return
        if self.node_observer is not None:
            self.node_observer(node)
        if node.component_count() < self.config.target_slopes:
            self.stats["pruned_components"] += 1
            return
        covering = node.all_covered()
        if self.config.mode == COMBINED:
            if covering or node.exp_dim() <= self.config.exp_dim_threshold:
                self.stats["stop_nodes"] += 1
                self.paintings.append(node.painting.copy())
                self._enumerate_restriction(node)
                return
        elif covering:
            self.stats["covering_paintings"] += 1
            self.paintings.append(node.painting.copy())
            return
        triangle = self.system.choose_branching_triangle(node)
        if triangle is None:
            self.stats["dead_ends"] += 1
            return
        if (self.collect_paths_at is not None
                and node.depth >= self.collect_paths_at):
            self.pending_paths.append(node.path)
            return
        green, white = self.system.branch(node, triangle)
        self._visit(green)
        self._visit(white)

    def _enumerate_restriction(self, node):
        for fn in restricted_polytope_functions(self.config, node.painting):
            if number_of_slopes(fn) < self.config.target_slopes:
                continue
            key = tuple(fn.values)
            if key in self.decided:
                continue
            self.decided.add(key)
            if is_extreme(fn).extreme:
                self.functions[key] = fn


def restricted_polytope_functions(config, painting):
    """Vertices of the minimal-function polytope cut by a painting's greens.

    Green vertices of the painting become additivity equalities; white
    faces impose nothing (their strict margins are dropped on purpose:
    a vertex of the restriction that happens to be covered is extreme
    whether or not the strict version held).
    """
    q, f = config.q, config.f_index
    base = build_minimal_function_polytope(q, f)
    eqs = list(base.eqs)
    for face in painting.faces_with_color(GREEN):
        if face.kind != VERTEX:
            continue
        row = [0] * (q - 1)
        for var, c in ((face.x, 1), (face.y, 1), ((face.x + face.y) % q, -1)):
            if var:
                row[var - 1] += c
        if any(row):
            eqs.append((row, 0))
    poly = Polytope(base.nvars, base.ineqs, eqs)
    for coords in enumerate_vertices(poly):
        yield function_from_vertex(q, f, coords)


# -- public operations ----------------------------------------------------

def build_root_node(config):
    """Root of the backtracking tree for this configuration."""
    return _RootSystem(config).build_root()


def branch(node, triangle):
    """Both children of branching `node` on a grey triangle."""
    return node.system.branch(node, triangle)


def propagate_implied(node):
    """Repaint implied-additive vertices; False when the node is infeasible."""
    return node.system.propagate_implied(node)


def choose_branching_triangle(node):
    """Smallest grey triangle whose two axis projections are uncovered."""
    return node.system.choose_branching_triangle(node)


def _worker_entry(args):
    config, path = args
    search = _TreeSearch(config)
    out = search.run(replay_path=path)
    return (tuple(tuple(p.to_lines()) for p in out.paintings),
            out.functions, out.stats)


def _merge_stats(total, extra):
    for key, val in extra.items():
        total[key] = total.get(key, 0) + val


def run_search(config, node_observer=None):
    """Execute the configured search to completion; returns SearchOutcome."""
    if config.mode == VERTEX_FILTER:
        return _run_vertex_filter(config)
    if config.worker_count == 1:
        search = _TreeSearch(config)
        search.node_observer = node_observer
        return search.run()
    search = _TreeSearch(config, collect_paths_at=_SPLIT_DEPTH)
    search.run()
    jobs = [(config, path) for path in search.pending_paths]
    stats = dict(search.stats)
    paintings = {tuple(p.to_lines()): p for p in search.paintings}
    functions = dict(search.functions)
    if jobs:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(config.worker_count) as pool:
            for lines_group, fns, wstats in pool.map(_worker_entry, jobs):
                _merge_stats(stats, wstats)
                for lines in lines_group:
                    if lines not in paintings:
                        paintings[lines] = Painting.from_lines(
                            config.q, list(lines))
                for fn in fns:
                    functions.setdefault(tuple(fn.values), fn)
    out = SearchOutcome()
    out.paintings = sorted(paintings.values(), key=lambda p: p.to_lines())
    out.functions = sorted(functions.values(), key=lambda fn: fn.sort_key())
    out.stats = stats
    return out


def _run_vertex_filter(config):
    from .complex2d import covered_components, painting_from_function

    out = SearchOutcome()
    out.stats = {"vertices": 0, "covered": 0}
    poly = build_minimal_function_polytope(config.q, config.f_index)
    kept = []
    for coords in enumerate_vertices(poly):
        out.stats["vertices"] += 1
        fn = function_from_vertex(config.q, config.f_index, coords)
        comps = covered_components(painting_from_function(fn))
        if not comps.all_covered():
            continue
        out.stats["covered"] += 1
        kept.append(fn)
    out.functions = sorted(kept, key=lambda fn: fn.sort_key())
    return out


def vertex_filtering_search(config):
    """Stream the covered (hence extreme) vertices of the whole polytope."""
    if config.mode != VERTEX_FILTER:
        raise SearchError("config.mode must be vertex_filter")
    yield from run_search(config).functions


def heuristic_backtracking_search(config):
    """Stream every covering painting the backtracking tree reaches."""
    if config.mode != HEURISTIC:
        raise SearchError("config.mode must be heuristic")
    yield from run_search(config).paintings


def combined_search(config):
    """Stream extreme functions found via expected-dimension early stops."""
    if config.mode != COMBINED:
        raise SearchError("config.mode must be combined")
    yield from run_search(config).functions
