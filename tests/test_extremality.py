from groupcut.extremality import (
    ExtremalityResult,
    is_extreme,
    is_polytope_vertex,
    oversampling_vertex_test,
)
from groupcut.grid_functions import GridFunction, apply_automorphism, gmic
from groupcut.polyhedra import (
    build_minimal_function_polytope,
    enumerate_vertices,
    function_from_vertex,
)
from groupcut.rationals import Q


def _midpoint(a, b):
    vals = [(x + y) / 2 for x, y in zip(a.values, b.values)]
    return GridFunction(a.q, a.f_index, vals)


def test_gmic_is_extreme():
    for q, f in [(2, 1), (5, 3), (7, 1), (9, 4), (12, 5)]:
        res = is_extreme(gmic(q, f))
        assert res.extreme
        assert res.minimal
        assert res.vertex
        assert res.covered
        assert res.uncovered_intervals == ()


def test_non_minimal_function_fails_fast():
    fn = GridFunction(4, 1, [Q(0), Q(1), Q(1, 4), Q(1, 2)])
    res = is_extreme(fn)
    assert not res.extreme
    assert not res.minimal


def test_uncovered_vertex_is_not_extreme():
    # minimal and a vertex, but two intervals stay uncovered
    fn = GridFunction(5, 1, [Q(0), Q(1), Q(1, 3), Q(1, 2), Q(2, 3)])
    res = is_extreme(fn)
    assert res == ExtremalityResult(extreme=False, minimal=True, vertex=True,
                                    covered=False, uncovered_intervals=(2, 3))
    assert not oversampling_vertex_test(fn, 3)
    assert not oversampling_vertex_test(fn, 4)


def test_midpoint_of_vertices_is_not_a_vertex():
    a = gmic(5, 1)
    b = GridFunction(5, 1, [Q(0), Q(1), Q(1, 3), Q(1, 2), Q(2, 3)])
    mid = _midpoint(a, b)
    res = is_extreme(mid)
    assert res.minimal
    assert not res.vertex
    assert not res.extreme
    assert not is_polytope_vertex(mid)
    assert not oversampling_vertex_test(mid, 3)


def test_oversampling_agrees_on_gmic():
    for q, f in [(5, 3), (7, 2), (11, 4)]:
        fn = gmic(q, f)
        assert oversampling_vertex_test(fn, 3)
        assert oversampling_vertex_test(fn, 4)


def test_is_polytope_vertex_on_gmic():
    assert is_polytope_vertex(gmic(7, 3))


def test_automorphism_images_stay_minimal():
    # multiplication by a unit permutes grid points, so minimality survives,
    # but only the reflection x -> -x extends to the interpolated function
    fn = gmic(7, 2)
    for a in range(2, 7):
        if _coprime(a, 7):
            assert is_extreme(apply_automorphism(fn, a)).minimal


def test_reflection_preserves_extremality():
    cases = [gmic(7, 2), gmic(9, 4),
             GridFunction(5, 1, [Q(0), Q(1), Q(1, 3), Q(1, 2), Q(2, 3)])]
    for fn in cases:
        mirrored = apply_automorphism(fn, fn.q - 1)
        assert is_extreme(mirrored).extreme == is_extreme(fn).extreme


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def test_is_extreme_agrees_with_oversampling_on_all_vertices():
    vertices = extreme = 0
    for q in range(3, 11):
        for f in range(1, q):
            poly = build_minimal_function_polytope(q, f)
            for coords in enumerate_vertices(poly):
                fn = function_from_vertex(q, f, coords)
                verdict = is_extreme(fn).extreme
                assert verdict == oversampling_vertex_test(fn, 3), fn
                vertices += 1
                extreme += verdict
    assert (vertices, extreme) == (241, 179)
