"""Release gate: one test per headline guarantee of the package.

Every test here is an end-to-end run over public entry points with the
expected numbers frozen in.  Unit-level behavior lives in the per-module
suites; this file only pins the results a release must reproduce.  The
stretch-marked runs at the bottom are not part of the gate (enable with
GROUPCUT_STRETCH=1 and expect long runtimes).
"""

import math
import random
import time

import pytest

from groupcut import (
    COMBINED,
    VERTEX_FILTER,
    SearchConfig,
    SolutionFile,
    basis_determinant,
    build_minimal_function_polytope,
    build_mip,
    build_mip_2q,
    build_prescribed_painting,
    build_slope_polytope,
    check_upper_bound,
    construct_sequence,
    covered_components,
    dimension,
    emit_mip,
    emit_mip_2q,
    empirical_complexity,
    enumerate_vertices,
    function_assignment,
    function_from_vertex,
    gmic,
    grid_size,
    is_extreme,
    number_of_slopes,
    oversampling_vertex_test,
    parse_lp,
    pattern_extreme,
    pi_from_slopes,
    refind_function,
    remove_redundant,
    run_search,
    slopes_from_pi,
)
from groupcut.rationals import Q

VERTEX_COUNTS = {5: 2, 7: 4, 9: 7, 11: 18, 13: 40, 15: 68, 17: 251, 19: 726}

IRREDUNDANT_COUNTS = {5: 7, 7: 10, 9: 14, 11: 20, 13: 27,
                      15: 35, 17: 45, 19: 56, 21: 68}

DIMENSIONS = {5: 1, 7: 2, 9: 3, 11: 4, 13: 5, 15: 6, 17: 7, 19: 8}

COMPLEXITY_PROFILE = {10: (21, 21), 11: (30, 30), 12: (35, 35), 13: (48, 48),
                      14: (51, 51), 15: (64, 70), 16: (63, 65)}


def test_01_vertex_counts_match_reference_table():
    start = time.monotonic()
    for q, want in VERTEX_COUNTS.items():
        got = len(enumerate_vertices(build_minimal_function_polytope(q, 1)))
        assert got == want, "q=%d: %d vertices, expected %d" % (q, got, want)
    assert time.monotonic() - start < 600


def test_02_irredundant_constraint_counts():
    for q, want in IRREDUNDANT_COUNTS.items():
        red = remove_redundant(build_minimal_function_polytope(q, 1))
        got = len(red.ineqs) + len(red.eqs) + 2
        assert got == want, "q=%d: %d constraints survive, expected %d" % (
            q, got, want)


def test_03_polytope_dimension_growth():
    for q, want in DIMENSIONS.items():
        got = dimension(build_minimal_function_polytope(q, 1))
        assert got == want, "q=%d: dimension %d, expected %d" % (q, got, want)


def test_04_extremality_oracles_never_disagree():
    checked = 0
    for q in range(2, 14):
        for f in range(1, q):
            poly = build_minimal_function_polytope(q, f)
            for coords in enumerate_vertices(poly):
                fn = function_from_vertex(q, f, coords)
                direct = is_extreme(fn).extreme
                assert direct == oversampling_vertex_test(fn, 3), (q, f, fn.values)
                assert direct == oversampling_vertex_test(fn, 4), (q, f, fn.values)
                checked += 1
    assert checked == 1113


def test_05_denominator_complexity_profile():
    start = time.monotonic()
    for q, want in COMPLEXITY_PROFILE.items():
        got = empirical_complexity(q)
        assert got == want, "q=%d: complexity %s, expected %s" % (q, got, want)
    assert time.monotonic() - start < 1800


def test_06_halving_determinants_and_basis_bound():
    for q in range(3, 20, 2):
        for f in range(1, q):
            if math.gcd(f, q) != 1:
                continue
            det = basis_determinant(construct_sequence(q, f))
            assert det == 2 ** ((q - 1) // 2), (q, f, det)
    assert basis_determinant(construct_sequence(11, 3)) == 32

    def stats(rows):
        return {r["statistic"]: r["value"] for r in rows}

    for f in range(1, 5):
        st = stats(check_upper_bound(5, f, 0, exhaustive=True))
        assert st["bound_violations"] == 0, (5, f, st)
        assert st["max_abs_det"] ** 4 <= 10 ** 5
    for q in range(6, 14):
        st = stats(check_upper_bound(q, 1, 10 ** 4, seed=90817))
        assert st["bound_violations"] == 0, (q, st)
        assert st["max_abs_det"] ** 4 <= 10 ** q


def test_07_prescribed_paintings_yield_many_slopes():
    start = time.monotonic()
    comps = covered_components(build_prescribed_painting(1))
    assert comps.component_count() == 6
    assert comps.all_covered()
    assert comps.covered_intervals() == set(range(grid_size(1)))
    found = pattern_extreme(1, 6)
    assert any(fn.q == 58 and number_of_slopes(fn) == 6
               and is_extreme(fn).extreme for fn in found)
    assert time.monotonic() - start < 600

    start = time.monotonic()
    comps = covered_components(build_prescribed_painting(4))
    assert comps.component_count() == 12
    assert comps.all_covered()
    found = pattern_extreme(4, 10)
    assert any(fn.q == 166 and number_of_slopes(fn) == 10
               and is_extreme(fn).extreme for fn in found)
    assert time.monotonic() - start < 600


def test_08_slope_vector_round_trip_and_ordering():
    rng = random.Random(90817)
    for r in range(1, 6):
        for _ in range(100):
            slopes = tuple(Q(rng.randint(-40, 40), rng.randint(1, 40))
                           for _ in range(r + 2))
            assert slopes_from_pi(r, pi_from_slopes(r, slopes)) == slopes
    for r in range(1, 6):
        for vertex in enumerate_vertices(build_slope_polytope(r)):
            assert all(vertex[i] >= vertex[i + 1]
                       for i in range(len(vertex) - 1)), (r, vertex)


def test_09_searches_emit_only_extreme_functions():
    emitted = 0
    for q in range(2, 14):
        for f in range(1, q):
            config = SearchConfig(q=q, f_index=f, mode=VERTEX_FILTER)
            for fn in run_search(config).functions:
                assert oversampling_vertex_test(fn, 3), (q, f, fn.values)
                emitted += 1
    spots = [(14, 5, 3, 8), (16, 7, 4, 9), (18, 5, 3, 10), (20, 9, 4, 10)]
    for q, f, k, threshold in spots:
        config = SearchConfig(q=q, f_index=f, target_slopes=k,
                              mode=COMBINED, exp_dim_threshold=threshold)
        functions = run_search(config).functions
        assert functions, (q, f)
        for fn in functions:
            assert oversampling_vertex_test(fn, 3), (q, f, fn.values)
            emitted += 1
    assert emitted > 700


def test_10_combined_search_finds_six_slopes_at_q25():
    start = time.monotonic()
    config = SearchConfig(q=25, f_index=7, target_slopes=6,
                          mode=COMBINED, exp_dim_threshold=11)
    result = run_search(config)
    hits = [fn for fn in result.functions
            if number_of_slopes(fn) == 6 and is_extreme(fn).extreme]
    if not hits:
        pytest.fail(
            "no six-slope extreme function at q=25, f=7/25; before treating "
            "this as a regression, check the tie-breaking order in "
            "choose_branching_triangle, which decides which covering "
            "paintings are reached first")
    assert time.monotonic() - start < 1800


def test_11_mip_models_accept_known_functions(tmp_path):
    model = build_mip(5, 3, 2, 2, 12)
    parsed = parse_lp(emit_mip(5, 3, 2, 2, 12, "standard", str(tmp_path)))
    assert parsed == model
    assignment = function_assignment(model, gmic(5, 3))
    assert model.check_assignment(assignment) == []

    six_slope = pattern_extreme(1, 6)[0]
    model = build_mip(six_slope.q, six_slope.f_index, 6, 1, 25)
    parsed = parse_lp(emit_mip(six_slope.q, six_slope.f_index, 6, 1, 25,
                               "standard", str(tmp_path)))
    assert parsed == model
    assignment = function_assignment(model, six_slope)
    assert model.check_assignment(assignment) == []


def test_12_solver_handoff_round_trip(tmp_path):
    # Runs that need a commercial MIP solver stop at the file boundary:
    # we emit the exact models, and when a solver reports a solution we
    # lift it back to exact arithmetic and recheck everything ourselves.
    path = emit_mip_2q(37, 25, 11, 4, 2, 4, str(tmp_path))
    assert parse_lp(path) == build_mip_2q(37, 25, 11, 4, 2, 4)

    path = emit_mip(37, 25, 5, 2, 12, "fulldim", str(tmp_path))
    assert parse_lp(path) == build_mip(37, 25, 5, 2, 12, type_cover="fulldim")

    fn = gmic(37, 25)
    report = tmp_path / "solver_report.sol"
    report.write_text("".join("pi_%d %.17g\n" % (x, float(v))
                              for x, v in enumerate(fn.values)))
    recovered = refind_function(SolutionFile.read(str(report)), 37, 25)
    assert recovered == fn
    assert is_extreme(recovered).extreme


def test_stretch_vertex_counts_q21_q23():
    assert len(enumerate_vertices(build_minimal_function_polytope(21, 1))) == 1661
    assert len(enumerate_vertices(build_minimal_function_polytope(23, 1))) == 7188


@pytest.mark.stretch
def test_stretch_28_slope_prescribed_pattern():
    found = pattern_extreme(21, 28)
    assert any(fn.q == 778 and number_of_slopes(fn) == 28 for fn in found)
