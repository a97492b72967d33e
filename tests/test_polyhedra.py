import random
from itertools import combinations

import pytest

from groupcut.grid_functions import is_minimal
from groupcut.linalg import matrix_rank, solve_affine
from groupcut.patterns import build_slope_polytope
from groupcut.polyhedra import (
    Polytope,
    PolytopeError,
    _box_lp,
    _dd_rays,
    _substituted_rows,
    build_minimal_function_polytope,
    build_triple_system_polytope,
    dimension,
    enumerate_vertices,
    function_from_vertex,
    remove_redundant,
    symmetry_pairs,
)
from groupcut.rationals import Q


def test_symmetry_pairs_small_cases():
    assert symmetry_pairs(5, 3) == [(0, 3), (1, 2), (4, 4)]
    assert symmetry_pairs(6, 4) == [(0, 4), (1, 3), (2, 2), (5, 5)]
    for q, f in [(7, 2), (9, 5), (12, 7)]:
        for x, y in symmetry_pairs(q, f):
            assert (x + y) % q == f
            assert x <= y


def test_minimal_polytope_shape():
    poly = build_minimal_function_polytope(5, 1)
    assert poly.nvars == 4
    # one subadditivity row per unordered pair plus symmetry equalities
    assert len(poly.ineqs) == 15
    assert len(poly.eqs) == 3
    assert poly.row_count() == 21
    assert build_minimal_function_polytope(11, 1).row_count() == 78


def test_minimal_polytope_row_count_closed_form():
    # row_count doubles equalities, matching the raw inequality-pair view
    for q in range(3, 14):
        poly = build_minimal_function_polytope(q, 1)
        assert poly.row_count() == len(poly.ineqs) + 2 * len(poly.eqs)
        if q % 2:
            assert poly.row_count() == (q + 1) * (q + 2) // 2


def test_unit_square_vertices():
    # toy geometry sanity check for the enumerator itself
    square = Polytope(2, [((1, 0), 0), ((-1, 0), -1),
                          ((0, 1), 0), ((0, -1), -1)], [])
    verts = sorted(enumerate_vertices(square))
    assert verts == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_triangle_with_rational_vertex():
    # x >= 0, y >= 0, 2x + 3y <= 1
    tri = Polytope(2, [((1, 0), 0), ((0, 1), 0), ((-2, -3), -1)], [])
    verts = sorted(enumerate_vertices(tri))
    assert verts == [(0, 0), (0, Q(1, 3)), (Q(1, 2), 0)]


def test_equality_cuts_to_segment():
    square = Polytope(2, [((1, 0), 0), ((-1, 0), -1),
                          ((0, 1), 0), ((0, -1), -1)],
                      [((1, -1), 0)])
    verts = sorted(enumerate_vertices(square))
    assert verts == [(0, 0), (1, 1)]


def test_empty_polytope_has_no_vertices():
    empty = Polytope(1, [((1,), 2), ((-1,), 0)], [])
    assert enumerate_vertices(empty) == []


def test_vertex_counts_small_denominators():
    for q, want in [(5, 2), (7, 4), (9, 7)]:
        poly = build_minimal_function_polytope(q, 1)
        assert len(enumerate_vertices(poly)) == want


def test_vertices_are_minimal_functions():
    for q, f in [(5, 1), (6, 1), (7, 3), (8, 5), (9, 2)]:
        poly = build_minimal_function_polytope(q, f)
        verts = enumerate_vertices(poly)
        assert verts
        for coords in verts:
            fn = function_from_vertex(q, f, coords)
            assert fn.values[0] == 0
            assert fn.value(f) == 1
            assert is_minimal(fn)
            assert all(0 <= v <= 1 for v in coords)


def test_dimension_small_cases():
    assert dimension(build_minimal_function_polytope(5, 1)) == 1
    assert dimension(build_minimal_function_polytope(7, 1)) == 2
    assert dimension(build_minimal_function_polytope(9, 1)) == 3
    # dimension reads the declared equality rows (affine hull of the
    # inequality system is resolved by remove_redundant, not here)
    assert dimension(Polytope(2, [((1, 0), 0), ((-1, 0), -1),
                                  ((0, 1), 0), ((0, -1), -1)], [])) == 2
    assert dimension(Polytope(2, [], [((1, -1), 0)])) == 1


def test_remove_redundant_counts_small():
    for q, want in [(5, 7), (7, 10), (9, 14)]:
        poly = build_minimal_function_polytope(q, 1)
        red = remove_redundant(poly)
        assert len(red.ineqs) + len(red.eqs) + 2 == want


def test_remove_redundant_idempotent_and_equivalent():
    poly = build_minimal_function_polytope(7, 2)
    red = remove_redundant(poly)
    again = remove_redundant(red)
    assert len(again.ineqs) == len(red.ineqs)
    assert len(again.eqs) == len(red.eqs)
    assert sorted(enumerate_vertices(red)) == sorted(enumerate_vertices(poly))


def test_redundancy_strip_pivot_count(pivot_count):
    # P(17, 1): remove_redundant's LPs, then the strip of
    # enumerate_vertices in dimension 8
    red = remove_redundant(build_minimal_function_polytope(17, 1))
    assert len(enumerate_vertices(red)) == 251
    assert pivot_count[0] == 753


def test_remove_redundant_drops_duplicate_rows():
    square = Polytope(2, [((1, 0), 0), ((1, 0), 0), ((2, 0), 0),
                          ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1),
                          ((1, 1), -5)], [])
    red = remove_redundant(square)
    assert len(red.ineqs) == 4
    assert sorted(enumerate_vertices(red)) == sorted(enumerate_vertices(square))


def test_remove_redundant_rejects_rows_beyond_the_lp_box():
    # the triangle x, y >= -5, x + y <= 7 with the redundant rows
    # x + y >= -20 and x - y >= -30 scaled by about 10**20: two such rows
    # let vertex coordinates of the arrangement reach 10**42 / det, so the
    # redundancy LPs' box of 10**30 no longer provably decides
    big = 10 ** 20
    triangle = [((1, 0), -5), ((0, 1), -5), ((-1, -1), -7)]
    scaled = Polytope(2, triangle + [((big + 1, big + 3), -20 * big),
                                     ((big + 7, -big - 11), -30 * big)], [])
    with pytest.raises(PolytopeError, match="LP box"):
        remove_redundant(scaled)
    plain = Polytope(2, triangle + [((1, 1), -20), ((1, -1), -30)], [])
    assert sorted(remove_redundant(plain).ineqs) == sorted(triangle)


def test_lp_box_check_holds_on_gate_polytopes():
    polys = [build_minimal_function_polytope(q, f)
             for q in range(3, 24) for f in range(1, q)]
    polys += [build_triple_system_polytope(q, f)
              for q in range(3, 13) for f in range(1, q)]
    polys += [build_slope_polytope(r) for r in range(1, 6)]
    for poly in polys:
        x0, basis = solve_affine([a for a, _ in poly.eqs],
                                 [b for _, b in poly.eqs], poly.nvars)
        rows, _ = _substituted_rows(poly.ineqs, x0, basis)
        _box_lp(rows, len(basis))  # raises PolytopeError when it trips


def test_triple_system_shape_and_vertices():
    poly = build_triple_system_polytope(5, 3)
    assert poly.nvars == 4
    assert len(poly.ineqs) == 7
    assert len(poly.eqs) == 3
    verts = sorted(enumerate_vertices(poly))
    assert verts == [(Q(1, 3), Q(2, 3), 1, Q(1, 2)),
                     (Q(3, 4), Q(1, 4), 1, Q(1, 2))]


def test_function_from_vertex_prepends_origin():
    fn = function_from_vertex(5, 3, (Q(1, 3), Q(2, 3), 1, Q(1, 2)))
    assert fn.q == 5
    assert fn.f_index == 3
    assert fn.values[0] == 0
    assert fn.values[1] == Q(1, 3)


def test_builder_validation():
    with pytest.raises(PolytopeError):
        build_minimal_function_polytope(5, 0)
    with pytest.raises(PolytopeError):
        build_minimal_function_polytope(5, 5)
    with pytest.raises(PolytopeError):
        build_triple_system_polytope(7, 7)


# -- double description against independent checks ---------------------------


def _cone_rows(poly):
    """The homogenized rows enumerate_vertices hands to _dd_rays (no strip)."""
    x0, basis = solve_affine([a for a, _ in poly.eqs], [b for _, b in poly.eqs],
                             poly.nvars)
    rows, _ = _substituted_rows(poly.ineqs, x0, basis)
    d = len(basis)
    return sorted({tuple(a) + (-b,) for a, b in rows} | {(0,) * d + (1,)}), d + 1


def _random_cone(rng, lineality_heavy):
    dim = rng.randint(2, 5)
    rows = []
    for _ in range(rng.randint(1, 8)):
        row = [rng.randint(-3, 3) for _ in range(dim)]
        if lineality_heavy:
            # rows live in a subspace, so lineality survives every row
            row[-1] = 0
            row[-2] = row[0] if dim > 2 else 0
        rows.append(tuple(row))
    return rows, dim


def _dd_systems():
    for q in range(3, 13):
        for f in range(1, q):
            yield _cone_rows(build_minimal_function_polytope(q, f))
    for r in (1, 2, 3):
        yield _cone_rows(build_slope_polytope(r))
    rng = random.Random(4101)
    for i in range(120):
        yield _random_cone(rng, i % 3 == 0)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _ray_faces(hrows, dim, order):
    """DD on hrows taken in the given order; rays keyed by original row sets.

    Checks on the way that every ray satisfies every row and that its mask
    is exactly the set of rows it is tight on.
    """
    rows = [hrows[i] for i in order]
    rays, lin = _dd_rays(rows, dim)
    out = []
    for vec, mask in rays:
        values = [_dot(row, vec) for row in rows]
        assert min(values, default=0) >= 0
        assert mask == sum(1 << k for k, v in enumerate(values) if v == 0)
        out.append((vec, frozenset(order[k] for k, v in enumerate(values) if v == 0)))
    return out, len(lin)


def test_dd_rays_masks_exact_and_independent_of_row_order():
    rng = random.Random(4102)
    lineality_left = 0
    for hrows, dim in _dd_systems():
        order = list(range(len(hrows)))
        base, nlin = _ray_faces(hrows, dim, order)
        lineality_left += nlin > 0
        for _ in range(2):
            rng.shuffle(order)
            got, got_lin = _ray_faces(hrows, dim, order)
            assert (got_lin, len(got)) == (nlin, len(base))
            if nlin:
                # rays are unique only modulo lineality; their faces are not
                assert {f for _, f in got} == {f for _, f in base}
            else:
                assert set(got) == set(base)
    assert lineality_left >= 20


def _cone_ray_faces(rows, dim):
    """Tight row sets of the extreme rays modulo lineality, by brute force."""
    rank = matrix_rank(rows, dim)
    faces = set()
    if not rank:
        return faces
    for subset in combinations(range(len(rows)), rank - 1):
        _, kernel = solve_affine([rows[i] for i in subset], [0] * len(subset), dim)
        if len(kernel) != dim - rank + 1:
            continue
        for vec in kernel:
            values = [_dot(row, vec) for row in rows]
            if any(values):
                break
        if min(values) >= 0 or max(values) <= 0:
            faces.add(frozenset(i for i, v in enumerate(values) if v == 0))
    return faces


def test_dd_rays_match_brute_force_on_random_cones():
    rng = random.Random(4103)
    for i in range(150):
        rows, dim = _random_cone(rng, i % 2 == 0)
        got, nlin = _ray_faces(rows, dim, list(range(len(rows))))
        assert nlin == dim - matrix_rank(rows, dim)
        faces = [f for _, f in got]
        assert len(set(faces)) == len(faces)
        assert set(faces) == _cone_ray_faces(rows, dim)


def _brute_force_vertices(poly):
    """Every d-subset of distinct rows made tight, kept when the point is feasible."""
    eqs = [tuple(a) for a, _ in poly.eqs]
    eq_rhs = [b for _, b in poly.eqs]
    d = poly.nvars - matrix_rank(eqs, poly.nvars)
    ineqs = list(dict.fromkeys((tuple(a), b) for a, b in poly.ineqs))
    found = set()
    for subset in combinations(ineqs, d):
        sol = solve_affine(eqs + [a for a, _ in subset], eq_rhs + [b for _, b in subset],
                           poly.nvars)
        if sol is None or sol[1]:
            continue
        point = tuple(sol[0])
        if all(_dot(a, point) >= b for a, b in ineqs):
            found.add(point)
    return sorted(found)


def test_enumerate_vertices_matches_brute_force():
    cases = [build_minimal_function_polytope(q, f)
             for q in range(3, 8) for f in range(1, q)]
    cases.append(build_triple_system_polytope(8, 3))
    cases.append(build_slope_polytope(1))
    cases.append(Polytope(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
                              ((-1, -1, -1), -2), ((-1, 1, 0), -1),
                              ((1, -2, 1), -3)], []))
    for poly in cases:
        assert enumerate_vertices(poly) == _brute_force_vertices(poly)
