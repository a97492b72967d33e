"""Two-dimensional additivity complex over the 1/q grid on the torus.

Faces are vertices, edges, and triangles of the standard triangulation of
[0,1)^2 at 1/q spacing. A painting assigns each face one of three colors:
green (additivity holds on the face), white (strict subadditivity), grey
(undecided). The reflection across the main diagonal is a symmetry of the
additivity pattern, so paintings store one canonical face per orbit.

A complete painting is determined by which vertices are additive, so the
package's kernel works on integers instead of faces: a q x q additivity
table, one pass over the grid cells that reads each edge and triangle off
its corners (green_cells), and one interval union-find with coverage
(IntervalUnion). Extremality, the vertex filter and the MIP assignment
read the table directly; Painting is for partial, grey-bearing paintings
(the search tree, the prescribed patterns, pictures and to_lines output).
"""

from typing import NamedTuple

from .grid_functions import integer_values

VERTEX = "vertex"
HEDGE = "hedge"
VEDGE = "vedge"
DEDGE = "dedge"
LOWER = "lower"
UPPER = "upper"

GREEN = "green"
WHITE = "white"
GREY = "grey"

_KINDS = (VERTEX, HEDGE, VEDGE, DEDGE, LOWER, UPPER)
_COLORS = (GREEN, WHITE, GREY)

INTERVAL = "interval"
POINT = "point"


class PaintingError(ValueError):
    """An operation would break a painting invariant."""


class Face(NamedTuple):
    kind: str
    x: int
    y: int


class Projection(NamedTuple):
    kind: str
    index: int


def swapped(face):
    """Image of a face under reflection across the main diagonal."""
    kind, x, y = face
    if kind == HEDGE:
        return Face(VEDGE, y, x)
    if kind == VEDGE:
        return Face(HEDGE, y, x)
    return Face(kind, y, x)


def canonical(face):
    """Representative of the face's orbit under the diagonal reflection.

    Tuples compare fieldwise and "hedge" < "vedge", so every vertical edge
    lands on a horizontal one and the remaining kinds land on x <= y.
    """
    mirror = swapped(face)
    return face if face <= mirror else mirror


def corner_vertices(face, q):
    """The vertex faces spanning a face, reduced mod q, not canonicalized."""
    kind, x, y = face
    x1, y1 = (x + 1) % q, (y + 1) % q
    if kind == VERTEX:
        return (Face(VERTEX, x, y),)
    if kind == HEDGE:
        return (Face(VERTEX, x, y), Face(VERTEX, x1, y))
    if kind == VEDGE:
        return (Face(VERTEX, x, y), Face(VERTEX, x, y1))
    if kind == DEDGE:
        return (Face(VERTEX, x, y1), Face(VERTEX, x1, y))
    if kind == LOWER:
        return (Face(VERTEX, x, y), Face(VERTEX, x1, y), Face(VERTEX, x, y1))
    if kind == UPPER:
        return (Face(VERTEX, x, y1), Face(VERTEX, x1, y1), Face(VERTEX, x1, y))
    raise PaintingError(f"unknown face kind {kind!r}")


def projections(face, q):
    """The three projections (p1, p2, p3): onto x, onto y, onto x+y mod q."""
    kind, x, y = face
    if kind == VERTEX:
        return (Projection(POINT, x), Projection(POINT, y),
                Projection(POINT, (x + y) % q))
    if kind == HEDGE:
        return (Projection(INTERVAL, x), Projection(POINT, y),
                Projection(INTERVAL, (x + y) % q))
    if kind == VEDGE:
        return (Projection(POINT, x), Projection(INTERVAL, y),
                Projection(INTERVAL, (x + y) % q))
    if kind == DEDGE:
        return (Projection(INTERVAL, x), Projection(INTERVAL, y),
                Projection(POINT, (x + y + 1) % q))
    if kind == LOWER:
        return (Projection(INTERVAL, x), Projection(INTERVAL, y),
                Projection(INTERVAL, (x + y) % q))
    if kind == UPPER:
        return (Projection(INTERVAL, x), Projection(INTERVAL, y),
                Projection(INTERVAL, (x + y + 1) % q))
    raise PaintingError(f"unknown face kind {kind!r}")


def interval_projections(face, q):
    """Just the one-dimensional (interval) projection indices of a face."""
    return tuple(p.index for p in projections(face, q) if p.kind == INTERVAL)


def iter_canonical_faces(q, kinds=_KINDS):
    """All canonical faces of the torus grid, grouped by kind."""
    for kind in kinds:
        if kind == HEDGE:
            for x in range(q):
                for y in range(q):
                    yield Face(HEDGE, x, y)
        elif kind == VEDGE:
            continue
        else:
            for x in range(q):
                for y in range(x, q):
                    yield Face(kind, x, y)


class Painting:
    """Face colors stored per canonical face; unset faces read as grey.

    Meant for partial paintings: a painting fully determined by a function
    is cheaper to use as its additivity table (function_table).
    """

    __slots__ = ("q", "_colors")

    def __init__(self, q):
        if q < 2:
            raise PaintingError("painting needs q >= 2")
        self.q = q
        self._colors = {}

    def color(self, face):
        return self._colors.get(canonical(face), GREY)

    def set_color(self, face, color):
        if color not in _COLORS:
            raise PaintingError(f"unknown color {color!r}")
        key = canonical(face)
        old = self._colors.get(key, GREY)
        if old != GREY and old != color:
            raise PaintingError(f"repainting {key} from {old} to {color}")
        if color == GREY:
            self._colors.pop(key, None)
        else:
            self._colors[key] = color

    def copy(self):
        dup = Painting(self.q)
        dup._colors = dict(self._colors)
        return dup

    def faces_with_color(self, color):
        return sorted(f for f, c in self._colors.items() if c == color)

    def green_faces(self):
        return self.faces_with_color(GREEN)

    def __eq__(self, other):
        if not isinstance(other, Painting):
            return NotImplemented
        return self.q == other.q and self._colors == other._colors

    def __hash__(self):
        return hash((self.q, frozenset(self._colors.items())))

    def to_lines(self):
        """Dump as sorted "kind x y color" lines, one canonical face each."""
        return [f"{f.kind} {f.x} {f.y} {c}"
                for f, c in sorted(self._colors.items())]

    @classmethod
    def from_lines(cls, q, lines):
        painting = cls(q)
        for line in lines:
            parts = line.split()
            if len(parts) != 4:
                raise PaintingError(f"bad painting line {line!r}")
            kind, xs, ys, color = parts
            if kind not in _KINDS:
                raise PaintingError(f"unknown face kind {kind!r}")
            painting.set_color(Face(kind, int(xs), int(ys)), color)
        return painting


class ComponentPartition:
    """Intervals 0..q-1 grouped by additivity connections, with coverage."""

    __slots__ = ("q", "_sets", "_covered", "_index")

    def __init__(self, q, sets, covered):
        self.q = q
        order = sorted(range(len(sets)), key=lambda i: min(sets[i]))
        self._sets = tuple(frozenset(sets[i]) for i in order)
        self._covered = tuple(bool(covered[i]) for i in order)
        self._index = {}
        for i, members in enumerate(self._sets):
            for z in members:
                self._index[z] = i

    def components(self):
        """(intervals, covered) pairs ordered by smallest member."""
        return list(zip(self._sets, self._covered))

    def component_count(self):
        return len(self._sets)

    def component_of(self, z):
        return self._sets[self._index[z]]

    def is_covered(self, z):
        return self._covered[self._index[z]]

    def covered_intervals(self):
        out = set()
        for members, flag in zip(self._sets, self._covered):
            if flag:
                out |= members
        return out

    def uncovered_intervals(self):
        return set(range(self.q)) - self.covered_intervals()

    def all_covered(self):
        return all(self._covered)

    def __eq__(self, other):
        if not isinstance(other, ComponentPartition):
            return NotImplemented
        return (self.q == other.q and self._sets == other._sets
                and self._covered == other._covered)


class IntervalUnion:
    """Incremental union-find over the q intervals, with coverage.

    Green edges join their two interval projections; green triangles join
    their three and cover them. Coverage spreads to everything merged in,
    so the result does not depend on the order faces arrive in.
    """

    __slots__ = ("q", "count", "_parent", "_covered")

    def __init__(self, q):
        self.q = q
        self.count = q
        self._parent = list(range(q))
        self._covered = [False] * q

    def clone(self):
        dup = IntervalUnion.__new__(IntervalUnion)
        dup.q, dup.count = self.q, self.count
        dup._parent = list(self._parent)
        dup._covered = list(self._covered)
        return dup

    def find(self, a):
        parent = self._parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def join(self, a, b, cover=False):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra
            self._covered[ra] = self._covered[ra] or self._covered[rb]
            self.count -= 1
        if cover:
            self._covered[ra] = True

    def add_face(self, face):
        """Merge along one green face given as (kind, x, y)."""
        kind, x, y = face
        q = self.q
        if kind == HEDGE:
            self.join(x, (x + y) % q)
        elif kind == VEDGE:
            self.join(y, (x + y) % q)
        elif kind == DEDGE:
            self.join(x, y)
        elif kind == LOWER:
            self.join(x, y)
            self.join(x, (x + y) % q, True)
        elif kind == UPPER:
            self.join(x, y)
            self.join(x, (x + y + 1) % q, True)

    def is_covered(self, z):
        return self._covered[self.find(z)]

    def all_covered(self):
        return all(self.is_covered(z) for z in range(self.q))

    def partition(self):
        groups = {}
        for z in range(self.q):
            groups.setdefault(self.find(z), []).append(z)
        return ComponentPartition(self.q, list(groups.values()),
                                  [self._covered[root] for root in groups])


def additivity_table(keys):
    """The q x q additivity table of integer keys on the grid.

    table[x][y] is True exactly when keys[x] + keys[y] == keys[(x+y) mod q];
    the table is symmetric. Keys are whatever integers turn additivity into
    that one test: scaled function values, or packed value forms.
    """
    wrapped = list(keys) * 2
    return [[kx + ky == kz for ky, kz in zip(keys, wrapped[x:])]
            for x, kx in enumerate(keys)]


def function_table(fn):
    """Additivity table of fn: its values over their common denominator."""
    return additivity_table(integer_values(fn))


def green_cells(table):
    """Canonical green edges and triangles as (kind, x, y), read off corners.

    An edge or triangle is green when all of its corner vertices are
    additive, so one pass over the grid cells reads hedge, dedge, lower
    and upper straight from the four corners of each cell.
    """
    q = len(table)
    for x in range(q):
        row, row1 = table[x], table[(x + 1) % q]
        for y in range(q):
            if row[y] and row1[y]:
                yield (HEDGE, x, y)
            if y < x:
                continue
            y1 = (y + 1) % q
            if row[y1] and row1[y]:
                yield (DEDGE, x, y)
                if row[y]:
                    yield (LOWER, x, y)
                if row1[y1]:
                    yield (UPPER, x, y)


def paint_table(table, rest=GREY):
    """Painting whose green faces are the table's; every other face is rest."""
    q = len(table)
    painting = Painting(q)
    colors = painting._colors
    if rest != GREY:
        colors.update(dict.fromkeys(iter_canonical_faces(q), rest))
    for x in range(q):
        row = table[x]
        for y in range(x, q):
            if row[y]:
                colors[Face(VERTEX, x, y)] = GREEN
    for cell in green_cells(table):
        colors[Face(*cell)] = GREEN
    return painting


def painting_from_function(fn):
    """Color every face by additivity of fn: green exactly where Δπ = 0.

    Vertices get the direct test; a higher face is green when all of its
    corner vertices are green and white otherwise, so the result has no
    grey faces.
    """
    return paint_table(function_table(fn), WHITE)


def table_components(table):
    """ComponentPartition of the painting a table determines, without one."""
    union = IntervalUnion(len(table))
    for cell in green_cells(table):
        union.add_face(cell)
    return union.partition()


def validate_inclusion(painting):
    """Raise when a green edge or triangle has a non-green corner vertex."""
    q = painting.q
    for face in painting.green_faces():
        if face.kind == VERTEX:
            continue
        for v in corner_vertices(face, q):
            if painting.color(v) != GREEN:
                raise PaintingError(
                    f"green {face.kind} ({face.x},{face.y}) over non-green "
                    f"vertex ({v.x},{v.y})")


def covered_components(painting, q=None):
    """Merge intervals along green faces and saturate coverage.

    Each green triangle directly covers its three interval projections and
    joins them into one component; each green edge joins its two interval
    projections without covering.
    """
    if q is None:
        q = painting.q
    elif q != painting.q:
        raise PaintingError("painting grid size disagrees with q")
    validate_inclusion(painting)
    union = IntervalUnion(q)
    for face in painting.green_faces():
        union.add_face(face)
    return union.partition()
