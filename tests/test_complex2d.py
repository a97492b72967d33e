from collections import Counter

import pytest

from groupcut.complex2d import (
    DEDGE,
    GREEN,
    GREY,
    HEDGE,
    INTERVAL,
    LOWER,
    POINT,
    UPPER,
    VEDGE,
    VERTEX,
    WHITE,
    canonical,
    ComponentPartition,
    corner_vertices,
    covered_components,
    Face,
    function_table,
    interval_projections,
    iter_canonical_faces,
    Painting,
    PaintingError,
    painting_from_function,
    projections,
    table_components,
    validate_inclusion,
)
from groupcut.grid_functions import gmic
from groupcut.patterns import build_slope_polytope, pi_from_slopes
from groupcut.polyhedra import (
    build_minimal_function_polytope,
    enumerate_vertices,
    function_from_vertex,
)


def test_canonical_forms():
    # vertical edges canonicalize to the swapped horizontal edge
    assert canonical(Face(VEDGE, 2, 5)) == Face(HEDGE, 5, 2)
    assert canonical(Face(VERTEX, 4, 1)) == Face(VERTEX, 1, 4)
    assert canonical(Face(DEDGE, 4, 1)) == Face(DEDGE, 1, 4)
    assert canonical(Face(LOWER, 3, 0)) == Face(LOWER, 0, 3)
    assert canonical(Face(UPPER, 3, 0)) == Face(UPPER, 0, 3)
    # horizontal edges keep raw coordinates: the full grid is canonical
    assert canonical(Face(HEDGE, 4, 1)) == Face(HEDGE, 4, 1)
    assert canonical(Face(VERTEX, 1, 4)) == Face(VERTEX, 1, 4)


def test_corner_vertices():
    assert corner_vertices(Face(LOWER, 1, 2), 5) == (
        Face(VERTEX, 1, 2), Face(VERTEX, 2, 2), Face(VERTEX, 1, 3))
    assert corner_vertices(Face(UPPER, 1, 2), 5) == (
        Face(VERTEX, 1, 3), Face(VERTEX, 2, 3), Face(VERTEX, 2, 2))
    # edge endpoints wrap modulo the grid order
    assert corner_vertices(Face(HEDGE, 4, 4), 5) == (
        Face(VERTEX, 4, 4), Face(VERTEX, 0, 4))
    assert corner_vertices(Face(VERTEX, 2, 3), 5) == (Face(VERTEX, 2, 3),)


def test_projections_by_kind():
    p1, p2, p3 = projections(Face(LOWER, 1, 2), 5)
    assert (p1.kind, p1.index) == (INTERVAL, 1)
    assert (p2.kind, p2.index) == (INTERVAL, 2)
    assert (p3.kind, p3.index) == (INTERVAL, 3)
    # upper triangles land one interval further in the diagonal direction
    assert projections(Face(UPPER, 1, 2), 5)[2].index == 4
    ph = projections(Face(HEDGE, 1, 2), 5)
    assert [p.kind for p in ph] == [INTERVAL, POINT, INTERVAL]
    pv = projections(Face(VERTEX, 1, 2), 5)
    assert all(p.kind == POINT for p in pv)
    # wrap: upper triangle in the far corner projects onto interval 0
    assert projections(Face(UPPER, 4, 4), 5)[2].index == 4
    assert projections(Face(LOWER, 4, 4), 5)[2].index == 3


def test_interval_projections_filters_points():
    assert interval_projections(Face(HEDGE, 1, 2), 5) == (1, 3)
    assert interval_projections(Face(VERTEX, 1, 2), 5) == ()
    assert interval_projections(Face(LOWER, 1, 2), 5) == (1, 2, 3)


def test_iter_canonical_faces_counts():
    counts = Counter(f.kind for f in iter_canonical_faces(4))
    assert counts == {VERTEX: 10, HEDGE: 16, DEDGE: 10, LOWER: 10, UPPER: 10}
    faces = list(iter_canonical_faces(4))
    assert len(faces) == len(set(faces))
    assert all(canonical(face) == face for face in faces)
    only_triangles = list(iter_canonical_faces(4, kinds=(LOWER, UPPER)))
    assert len(only_triangles) == 20


def test_painting_colors_canonicalize():
    pt = Painting(5)
    assert pt.color(Face(LOWER, 2, 1)) == GREY
    pt.set_color(Face(VEDGE, 2, 4), GREEN)
    assert pt.color(Face(HEDGE, 4, 2)) == GREEN
    pt.set_color(Face(VERTEX, 3, 1), WHITE)
    assert pt.color(Face(VERTEX, 1, 3)) == WHITE


def test_painting_repaint_raises():
    pt = Painting(5)
    pt.set_color(Face(LOWER, 1, 1), GREEN)
    pt.set_color(Face(LOWER, 1, 1), GREEN)  # same color is a no-op
    with pytest.raises(PaintingError):
        pt.set_color(Face(LOWER, 1, 1), WHITE)
    with pytest.raises(PaintingError):
        pt.set_color(Face(LOWER, 1, 1), "blue")


def test_painting_lines_round_trip():
    pt = Painting(5)
    pt.set_color(Face(LOWER, 1, 2), GREEN)
    pt.set_color(Face(VERTEX, 0, 0), GREEN)
    pt.set_color(Face(UPPER, 2, 2), WHITE)
    lines = pt.to_lines()
    assert lines == sorted(lines)
    back = Painting.from_lines(5, lines)
    assert back == pt
    assert hash(back) == hash(pt)
    with pytest.raises(PaintingError):
        Painting.from_lines(5, ["lower 1 2"])


def test_painting_from_function_matches_deltas():
    fn = gmic(5, 3)
    pt = painting_from_function(fn)
    # a face is green exactly when every corner is additive
    for face in iter_canonical_faces(5):
        corners = corner_vertices(face, 5)
        additive = all(fn.delta(c.x, c.y) == 0 for c in corners)
        want = GREEN if additive else WHITE
        assert pt.color(face) == want
    assert len(list(pt.green_faces())) == 32


def test_function_painting_has_no_grey():
    pt = painting_from_function(gmic(7, 2))
    assert not list(pt.faces_with_color(GREY))


def test_validate_inclusion_catches_bad_triangle():
    pt = Painting(5)
    pt.set_color(Face(LOWER, 1, 2), GREEN)
    with pytest.raises(PaintingError):
        validate_inclusion(pt)
    for corner in corner_vertices(Face(LOWER, 1, 2), 5):
        pt.set_color(corner, GREEN)
    validate_inclusion(pt)


def test_single_green_triangle_covers_its_projections():
    pt = Painting(5)
    for corner in corner_vertices(Face(LOWER, 1, 2), 5):
        pt.set_color(corner, GREEN)
    pt.set_color(Face(LOWER, 1, 2), GREEN)
    comps = covered_components(pt)
    assert comps.component_of(1) == comps.component_of(2) == comps.component_of(3)
    assert comps.is_covered(1) and comps.is_covered(2) and comps.is_covered(3)
    assert not comps.is_covered(0)
    assert comps.uncovered_intervals() == {0, 4}
    assert not comps.all_covered()


def test_green_edge_merges_without_covering():
    pt = Painting(5)
    for corner in corner_vertices(Face(HEDGE, 1, 2), 5):
        pt.set_color(corner, GREEN)
    pt.set_color(Face(HEDGE, 1, 2), GREEN)
    comps = covered_components(pt)
    assert comps.component_of(1) == comps.component_of(3)
    assert not comps.is_covered(1)
    assert not comps.is_covered(3)


def test_gmic_components_cover_everything():
    comps = covered_components(painting_from_function(gmic(5, 3)))
    assert comps.components() == [(frozenset({0, 1, 2}), True),
                                  (frozenset({3, 4}), True)]
    assert comps.all_covered()
    assert comps.uncovered_intervals() == set()
    assert comps.component_count() == 2


def test_component_partition_equality():
    a = covered_components(painting_from_function(gmic(5, 3)))
    b = covered_components(painting_from_function(gmic(5, 3)))
    assert a == b
    assert a != covered_components(painting_from_function(gmic(5, 2)))


def test_component_partition_direct_construction():
    # the covered flags are per component, aligned with the sets argument
    part = ComponentPartition(4, [{2, 3}, {0, 1}], [False, True])
    assert part.component_count() == 2
    assert part.components() == [(frozenset({0, 1}), True),
                                 (frozenset({2, 3}), False)]
    assert part.covered_intervals() == {0, 1}
    assert part.uncovered_intervals() == {2, 3}
    assert part.component_of(3) == frozenset({2, 3})
    assert not part.all_covered()


def _naive_components(fn):
    """Interval components straight from the deltas, without the kernel."""
    q = fn.q
    additive = {(x, y) for x in range(q) for y in range(q)
                if fn.delta(x, y) == 0}
    links = {z: {z} for z in range(q)}
    direct = set()
    for face in iter_canonical_faces(q, (HEDGE, DEDGE, LOWER, UPPER)):
        if not all(v[1:] in additive for v in corner_vertices(face, q)):
            continue
        spans = interval_projections(face, q)
        for z in spans:
            links[z].update(spans)
        if face.kind in (LOWER, UPPER):
            direct.update(spans)
    out, seen = [], set()
    for z in range(q):
        if z in seen:
            continue
        comp, todo = set(), [z]
        while todo:
            a = todo.pop()
            if a not in comp:
                comp.add(a)
                todo.extend(links[a])
        seen |= comp
        out.append((frozenset(comp), bool(comp & direct)))
    return out


def test_table_components_match_painting_path():
    fns = [function_from_vertex(q, f, coords)
           for q in range(5, 14) for f in range(1, q)
           for coords in enumerate_vertices(
               build_minimal_function_polytope(q, f))]
    fns += [pi_from_slopes(1, v)
            for v in enumerate_vertices(build_slope_polytope(1))]
    assert len(fns) == 1111
    for fn in fns:
        kernel = table_components(function_table(fn))
        assert kernel == covered_components(painting_from_function(fn))
        assert kernel.components() == _naive_components(fn)
