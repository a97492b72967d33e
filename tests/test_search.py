import dataclasses

import pytest

from groupcut.complex2d import (
    Face,
    GREEN,
    LOWER,
    Painting,
    WHITE,
    covered_components,
    painting_from_function,
    validate_inclusion,
)
from groupcut.extremality import oversampling_vertex_test
from groupcut.grid_functions import gmic, number_of_slopes
from groupcut.polyhedra import (
    build_minimal_function_polytope,
    enumerate_vertices,
    function_from_vertex,
)
from groupcut.rationals import Q
from groupcut.search import (
    COMBINED,
    HEURISTIC,
    SearchConfig,
    SearchError,
    VERTEX_FILTER,
    _SPLIT_DEPTH,
    _TreeSearch,
    branch,
    build_root_node,
    choose_branching_triangle,
    combined_search,
    exact_epsilon,
    heuristic_backtracking_search,
    propagate_implied,
    restricted_polytope_functions,
    run_search,
    vertex_filtering_search,
)


def test_exact_epsilon_shrinks_with_q():
    assert exact_epsilon(4) == Q(1, 10)
    assert exact_epsilon(5) == Q(1, 100)
    assert exact_epsilon(9) == Q(1, 1000)
    assert exact_epsilon(13) == Q(1, 10000)


def test_config_validation():
    with pytest.raises(SearchError):
        SearchConfig(q=5, f_index=0, mode=COMBINED)
    with pytest.raises(SearchError):
        SearchConfig(q=5, f_index=5, mode=COMBINED)
    with pytest.raises(SearchError):
        SearchConfig(q=5, f_index=2, mode="depth_first")
    with pytest.raises(SearchError):
        SearchConfig(q=5, f_index=2, mode=COMBINED, epsilon=Q(0))
    with pytest.raises(SearchError):
        SearchConfig(q=5, f_index=2, mode=COMBINED, worker_count=0)
    cfg = SearchConfig(q=5, f_index=2, mode=COMBINED)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.q = 7


def test_small_tree_shape():
    # q=4, f=1: the whole backtracking tree is hand-checkable
    cfg = SearchConfig(q=4, f_index=1, mode=HEURISTIC)
    seen = []
    out = run_search(cfg, node_observer=seen.append)
    assert len(seen) == 5
    assert out.stats == {"nodes": 5, "infeasible": 0, "pruned_components": 0,
                         "dead_ends": 1, "covering_paintings": 2,
                         "stop_nodes": 0}
    assert len(out.paintings) == 2
    # first covering painting: the two-slope zigzag pi = (0, 1, 0, 1)
    assert out.paintings[0].to_lines() == [
        "dedge 0 0 green", "dedge 0 2 green", "dedge 1 1 green",
        "dedge 1 3 green", "dedge 2 2 green", "dedge 3 3 green",
        "hedge 0 0 green", "hedge 0 2 green", "hedge 1 0 green",
        "hedge 1 2 green", "hedge 2 0 green", "hedge 2 2 green",
        "hedge 3 0 green", "hedge 3 2 green",
        "lower 0 0 green", "lower 0 2 green", "lower 2 2 green",
        "upper 1 1 green", "upper 1 3 green", "upper 3 3 green",
        "vertex 0 0 green", "vertex 0 1 green", "vertex 0 2 green",
        "vertex 0 3 green", "vertex 1 2 green", "vertex 2 2 green",
        "vertex 2 3 green",
    ]
    # second painting declines that triangle and covers through the mirror
    assert "lower 2 2 white" in out.paintings[1].to_lines()
    for painting in out.paintings:
        validate_inclusion(painting)
        assert covered_components(painting).all_covered()


def test_branching_primitives():
    cfg = SearchConfig(q=4, f_index=1, mode=HEURISTIC)
    root = build_root_node(cfg)
    assert root.depth == 0
    assert not root.all_covered()
    tri = choose_branching_triangle(root)
    assert tri == Face(LOWER, 2, 2)
    green_child, white_child = branch(root, tri)
    assert green_child.depth == white_child.depth == 1
    assert green_child.painting.color(tri) == GREEN
    assert white_child.painting.color(tri) == WHITE
    assert propagate_implied(green_child)
    assert propagate_implied(white_child)
    # the branch decision must not leak back into the root
    assert root.painting.color(tri) not in (GREEN, WHITE)


def test_vertex_filter_matches_direct_enumeration():
    for q, f in [(5, 1), (7, 1), (7, 3), (9, 2)]:
        cfg = SearchConfig(q=q, f_index=f, mode=VERTEX_FILTER)
        got = list(vertex_filtering_search(cfg))
        want = []
        poly = build_minimal_function_polytope(q, f)
        for coords in enumerate_vertices(poly):
            fn = function_from_vertex(q, f, coords)
            if covered_components(painting_from_function(fn)).all_covered():
                want.append(fn)
        want.sort(key=lambda fn: fn.sort_key())
        assert got == want
        for fn in got:
            assert oversampling_vertex_test(fn, 3)


def test_vertex_filter_stats_and_values():
    cfg = SearchConfig(q=7, f_index=1, mode=VERTEX_FILTER)
    out = run_search(cfg)
    assert out.stats == {"vertices": 4, "covered": 2}
    assert [[str(v) for v in fn.values] for fn in out.functions] == [
        ["0", "1", "1/4", "3/8", "1/2", "5/8", "3/4"],
        ["0", "1", "5/6", "2/3", "1/2", "1/3", "1/6"],
    ]


def test_combined_search_small_case():
    cfg = SearchConfig(q=7, f_index=2, target_slopes=2, mode=COMBINED,
                       exp_dim_threshold=4)
    fns = list(combined_search(cfg))
    assert [[str(v) for v in fn.values] for fn in fns] == [
        ["0", "1/2", "1", "1/3", "5/6", "1/6", "2/3"],
        ["0", "1/2", "1", "5/8", "1/4", "3/4", "3/8"],
        ["0", "1/2", "1", "4/5", "3/5", "2/5", "1/5"],
    ]
    for fn in fns:
        assert number_of_slopes(fn) >= 2
        assert oversampling_vertex_test(fn, 3)


def test_worker_count_does_not_change_results():
    # (7, 2) stops at the root; (8, 3) with threshold 0 hands two subtrees
    # to workers, each replayed from the root.
    for q, f, threshold in ((7, 2, 4), (8, 3, 0)):
        base = None
        for workers in (1, 2, 3):
            cfg = SearchConfig(q=q, f_index=f, target_slopes=2, mode=COMBINED,
                               exp_dim_threshold=threshold,
                               worker_count=workers)
            out = run_search(cfg)
            key = ([fn.values for fn in out.functions],
                   [tuple(p.to_lines()) for p in out.paintings],
                   out.stats)
            if base is None:
                base = key
            else:
                assert key == base
    splitter = _TreeSearch(cfg, collect_paths_at=_SPLIT_DEPTH)
    splitter.run()
    assert len(splitter.pending_paths) == 2
    assert base[2]["nodes"] == 129


def test_outputs_are_canonically_sorted():
    cfg = SearchConfig(q=9, f_index=2, target_slopes=2, mode=COMBINED,
                       exp_dim_threshold=5)
    out = run_search(cfg)
    keys = [fn.sort_key() for fn in out.functions]
    assert keys == sorted(keys)
    lines = [p.to_lines() for p in out.paintings]
    assert lines == sorted(lines)


def test_mode_mismatch_raises():
    cfg = SearchConfig(q=5, f_index=2, mode=COMBINED)
    with pytest.raises(SearchError):
        next(vertex_filtering_search(cfg))
    with pytest.raises(SearchError):
        next(heuristic_backtracking_search(cfg))
    cfg2 = SearchConfig(q=5, f_index=2, mode=HEURISTIC)
    with pytest.raises(SearchError):
        next(combined_search(cfg2))


def test_restricted_polytope_functions():
    cfg = SearchConfig(q=5, f_index=3, mode=COMBINED)
    pinned = list(restricted_polytope_functions(
        cfg, painting_from_function(gmic(5, 3))))
    assert [fn.values for fn in pinned] == [gmic(5, 3).values]
    # an all-grey painting imposes nothing
    free = list(restricted_polytope_functions(cfg, Painting(5)))
    poly = build_minimal_function_polytope(5, 3)
    assert len(free) == len(enumerate_vertices(poly))


def test_heuristic_paintings_cover(rng):
    for q, f in [(5, 2), (6, 1), (7, 3)]:
        cfg = SearchConfig(q=q, f_index=f, mode=HEURISTIC)
        for painting in heuristic_backtracking_search(cfg):
            validate_inclusion(painting)
            assert covered_components(painting).all_covered()
