"""Each checker passes genuine outputs and refuses corrupted ones.

The genuine outputs come from small instances of the benchmark's own
workloads, so these tests run in a few seconds.
"""

from fractions import Fraction

import pytest

import checkers
import groupcut as gc

ENUM_Q, ENUM_F, ENUM_UNIT = 13, 1, 2


@pytest.fixture(scope="module")
def enumerated():
    base = gc.enumerate_vertices(gc.remove_redundant(
        gc.build_minimal_function_polytope(ENUM_Q, ENUM_F)))
    image = gc.enumerate_vertices(gc.remove_redundant(
        gc.build_minimal_function_polytope(ENUM_Q, ENUM_F * ENUM_UNIT)))
    return base, image


def check_enumerate(base, image):
    problems, _ = checkers.check_enumerate(ENUM_Q, ENUM_F, ENUM_UNIT, base,
                                           image, 40)
    return problems


def test_enumerate_accepts_genuine_vertices(enumerated):
    assert checkers.check_enumerate(ENUM_Q, ENUM_F, ENUM_UNIT, *enumerated,
                                    40) == ([], 80)


def test_enumerate_counts_only_verified_vertices(enumerated):
    # A perturbed base vertex fails, and so does its image, which no longer
    # matches; a repeated one is counted once.
    base, image = enumerated
    bad = list(base)
    coords = list(bad[7])
    coords[3] += Fraction(1, 1000)
    bad[7] = tuple(coords)
    bad.append(base[0])
    problems, verified = checkers.check_enumerate(ENUM_Q, ENUM_F, ENUM_UNIT,
                                                  bad, image, 40)
    assert problems and verified == 78


def test_enumerate_refuses_perturbed_vertex(enumerated):
    base, image = enumerated
    bad = list(base)
    coords = list(bad[7])
    coords[3] += Fraction(1, 1000)
    bad[7] = tuple(coords)
    problems = check_enumerate(bad, image)
    assert any("vertex 7" in p for p in problems), problems


@pytest.mark.parametrize("side", ["base", "image"])
def test_enumerate_refuses_dropped_vertex(enumerated, side):
    base, image = enumerated
    if side == "base":
        base = base[:-1]
    else:
        image = image[1:]
    assert check_enumerate(base, image)


def test_enumerate_refuses_midpoint_of_two_vertices(enumerated):
    base, image = enumerated
    bad = list(base)
    bad[5] = tuple((a + b) / 2 for a, b in zip(base[0], base[1]))
    problems = check_enumerate(bad, image)
    assert any("not a vertex" in p for p in problems), problems


PATTERN_R, PATTERN_SLOPES = 2, 6


@pytest.fixture(scope="module")
def pattern_functions():
    return [(fn.q, fn.f_index, fn.values)
            for fn in gc.pattern_extreme(PATTERN_R, PATTERN_SLOPES)]


def check_pattern(functions):
    q = gc.grid_size(PATTERN_R)
    return checkers.check_pattern(functions, q, q // 2, PATTERN_SLOPES, 6)[0]


def test_pattern_accepts_genuine_functions(pattern_functions):
    q = gc.grid_size(PATTERN_R)
    assert checkers.check_pattern(pattern_functions, q, q // 2,
                                  PATTERN_SLOPES, 6) == ([], 6)


def test_pattern_refuses_function_with_one_slope_fewer(pattern_functions):
    # A minimal, covered member of the same family with 5 slopes.
    fewer = None
    for vertex in gc.enumerate_vertices(gc.build_slope_polytope(PATTERN_R)):
        fn = gc.pi_from_slopes(PATTERN_R, vertex)
        if checkers.slope_count(checkers.Fn(fn.q, fn.f_index,
                                            fn.values)) == PATTERN_SLOPES - 1:
            fewer = (fn.q, fn.f_index, fn.values)
            break
    assert fewer is not None
    bad = list(pattern_functions)
    bad[2] = fewer
    problems = check_pattern(bad)
    assert problems == ["function 2: 5 slopes, expected at least 6"]


def test_pattern_refuses_perturbed_function(pattern_functions):
    bad = list(pattern_functions)
    q, f, values = bad[0]
    values = list(values)
    values[10] += Fraction(1, 10 ** 6)
    bad[0] = (q, f, tuple(values))
    problems = check_pattern(bad)
    assert any(p.startswith("function 0:") for p in problems), problems


SEARCH_Q, SEARCH_F, SEARCH_SLOPES = 14, 5, 3


@pytest.fixture(scope="module")
def searched():
    # Threshold 8 stops at the root, which keeps this fixture fast; the
    # emitted set is the same as the benchmark's threshold-5 search.
    config = gc.SearchConfig(q=SEARCH_Q, f_index=SEARCH_F,
                             target_slopes=SEARCH_SLOPES, mode=gc.COMBINED,
                             exp_dim_threshold=8)
    emitted = [(fn.q, fn.f_index, fn.values)
               for fn in gc.run_search(config).functions]
    vertices = gc.enumerate_vertices(
        gc.build_minimal_function_polytope(SEARCH_Q, SEARCH_F))
    return emitted, vertices


def check_search(emitted, vertices):
    return checkers.check_search(emitted, SEARCH_Q, SEARCH_F, SEARCH_SLOPES,
                                 vertices)[0]


def test_search_accepts_genuine_functions(searched):
    emitted, vertices = searched
    assert len(emitted) == 13
    assert checkers.check_search(emitted, SEARCH_Q, SEARCH_F, SEARCH_SLOPES,
                                 vertices) == ([], 13)


def test_search_refuses_dropped_function(searched):
    emitted, vertices = searched
    assert check_search(emitted[1:], vertices)


def test_search_refuses_function_with_one_slope_fewer(searched):
    emitted, vertices = searched
    two_slope = gc.gmic(SEARCH_Q, SEARCH_F)
    problems = check_search(emitted + [(two_slope.q, two_slope.f_index,
                                        two_slope.values)], vertices)
    assert "function 13: 2 slopes, expected at least 3" in problems, problems


def test_search_refuses_midpoint_of_two_functions(searched):
    emitted, vertices = searched
    (q, f, a), (_, _, b) = emitted[0], emitted[1]
    mid = (q, f, tuple((x + y) / 2 for x, y in zip(a, b)))
    problems = check_search(emitted[2:] + [mid], vertices)
    assert any("not a vertex" in p for p in problems), problems


def test_covering_agrees_with_the_package_on_every_vertex(searched):
    _, vertices = searched
    for coords in vertices:
        fn = gc.function_from_vertex(SEARCH_Q, SEARCH_F, coords)
        ours = checkers.is_covered(checkers.from_vertex(SEARCH_Q, SEARCH_F,
                                                        coords))
        theirs = gc.covered_components(
            gc.painting_from_function(fn)).all_covered()
        assert ours == theirs, coords
