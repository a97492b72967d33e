import pytest

from groupcut.complex2d import corner_vertices, covered_components
from groupcut.extremality import is_extreme
from groupcut.grid_functions import (
    is_minimal,
    number_of_slopes,
    satisfies_symmetry,
)
from groupcut.patterns import (
    PatternError,
    build_prescribed_painting,
    build_slope_polytope,
    grid_size,
    pattern_extreme,
    pi_from_slopes,
    slopes_from_pi,
)
from groupcut.polyhedra import enumerate_vertices
from groupcut.rationals import Q


def test_grid_size():
    assert grid_size(1) == 58
    assert grid_size(4) == 166
    assert grid_size(21) == 778


def test_argument_validation():
    with pytest.raises(PatternError):
        grid_size(0)
    with pytest.raises(PatternError):
        build_prescribed_painting(-1)
    with pytest.raises(PatternError):
        pattern_extreme(1, 0)
    with pytest.raises(PatternError):
        pi_from_slopes(1, (Q(1), Q(2)))  # needs r + 2 slopes


def test_round_trip_identity(rng):
    for r in range(1, 6):
        for _ in range(20):
            slopes = tuple(Q(rng.randint(-50, 50), rng.randint(1, 9))
                           for _ in range(r + 2))
            fn = pi_from_slopes(r, slopes)
            assert fn.q == grid_size(r)
            assert fn.f_index == grid_size(r) // 2
            assert slopes_from_pi(r, fn) == slopes


def test_function_grid_is_half_turn_symmetric(rng):
    # values are linear in the slopes; the seam reflection identity makes
    # pi_x + pi_{f-x} constant, and equal to 1 exactly on normalized input
    for v in enumerate_vertices(build_slope_polytope(1)):
        fn = pi_from_slopes(1, v)
        assert satisfies_symmetry(fn)
        assert is_minimal(fn)


def test_prescribed_painting_components():
    for r in (1, 2, 3):
        comps = covered_components(build_prescribed_painting(r))
        assert comps.component_count() == 2 * (r + 2)
        assert comps.all_covered()


def test_slope_polytope_shape_r1():
    poly = build_slope_polytope(1)
    assert poly.nvars == 3
    assert len(poly.eqs) == 1
    verts = enumerate_vertices(poly)
    assert sorted(verts) == sorted([
        (Q(1, 29), Q(1, 29), Q(1, 29)),
        (Q(5, 33), Q(5, 33), Q(-1, 11)),
        (Q(11, 47), Q(7, 47), Q(-5, 47)),
        (Q(5, 13), Q(1, 13), Q(-1, 13)),
        (Q(31, 63), Q(1, 63), Q(-1, 21)),
        (Q(25, 49), Q(-1, 49), Q(-1, 49)),
    ])


def test_slope_polytope_vertices_are_ordered():
    for r in (1, 2):
        for v in enumerate_vertices(build_slope_polytope(r)):
            assert all(v[i] >= v[i + 1] for i in range(len(v) - 1))


def test_pattern_extreme_r1():
    fns = pattern_extreme(1, 6)
    assert len(fns) == 2
    for fn in fns:
        assert fn.q == 58
        assert fn.f_index == 29
        assert number_of_slopes(fn) == 6
        assert is_extreme(fn).extreme
    # the slope threshold is a lower bound, never a filter above the family
    assert len(pattern_extreme(1, 1)) == 6
    assert pattern_extreme(1, 7) == []


def test_prescribed_greens_are_additive_on_results():
    painting = build_prescribed_painting(1)
    for fn in pattern_extreme(1, 6):
        for face in painting.green_faces():
            for corner in corner_vertices(face, fn.q):
                assert fn.delta(corner.x, corner.y) == 0
