import json

import pytest

from groupcut.grid_functions import (
    FunctionError,
    GridFunction,
    apply_automorphism,
    arithmetic_complexity,
    from_json_dict,
    gmic,
    is_minimal,
    is_subadditive,
    load_function,
    number_of_slopes,
    restrict,
    satisfies_symmetry,
    save_function,
    to_json_dict,
)
from groupcut.polyhedra import (build_minimal_function_polytope, enumerate_vertices,
                                 function_from_vertex)
from groupcut.rationals import Q


def test_constructor_validation():
    with pytest.raises(FunctionError):
        GridFunction(1, 0, [0])
    with pytest.raises(FunctionError):
        GridFunction(5, 0, [0] * 5)
    with pytest.raises(FunctionError):
        GridFunction(5, 5, [0] * 5)
    with pytest.raises(FunctionError):
        GridFunction(5, 2, [0] * 4)


def test_gmic_values():
    fn = gmic(5, 3)
    assert fn.values == (Q(0), Q(1, 3), Q(2, 3), Q(1), Q(1, 2))
    assert fn.value(3) == 1
    assert fn.value(8) == 1  # indices wrap mod q


def test_gmic_is_minimal_everywhere():
    for q in range(2, 12):
        for f in range(1, q):
            fn = gmic(q, f)
            assert is_subadditive(fn)
            assert satisfies_symmetry(fn)
            assert is_minimal(fn)


def test_delta_matches_definition(rng):
    fn = gmic(7, 2)
    for _ in range(50):
        x, y = rng.randrange(7), rng.randrange(7)
        want = fn.values[x] + fn.values[y] - fn.values[(x + y) % 7]
        assert fn.delta(x, y) == want


def test_evaluate_interpolates():
    fn = gmic(5, 3)
    assert fn.evaluate(Q(3, 5)) == 1
    assert fn.evaluate(Q(7, 10)) == Q(3, 4)  # halfway between 1 and 1/2
    assert fn.evaluate(Q(0)) == 0
    assert fn.evaluate(Q(9, 5)) == fn.evaluate(Q(4, 5))  # period 1


def test_interval_slopes_and_count():
    fn = gmic(5, 3)
    assert fn.interval_slopes() == [Q(5, 3), Q(5, 3), Q(5, 3),
                                    Q(-5, 2), Q(-5, 2)]
    assert number_of_slopes(fn) == 2


def test_subadditivity_detects_violation():
    fn = GridFunction(4, 1, [Q(0), Q(1), Q(1, 4), Q(1, 2)])
    assert fn.delta(2, 3) == Q(-1, 4)
    assert not is_subadditive(fn)


def test_integer_subadditivity_matches_fraction_definition(rng):
    def by_delta(fn):
        return all(fn.delta(x, y) >= 0 for x in range(fn.q) for y in range(fn.q))

    outcomes = set()
    for q in range(3, 13):
        for f in range(1, q):
            poly = build_minimal_function_polytope(q, f)
            for coords in enumerate_vertices(poly):
                fn = function_from_vertex(q, f, coords)
                assert is_subadditive(fn) and by_delta(fn)
                # nudge one value by a tiny rational either way
                values = list(fn.values)
                x = rng.randrange(1, q)
                values[x] += Q(rng.choice([-1, 1]), rng.choice([7, 60, 1001]))
                bent = GridFunction(q, f, values)
                outcomes.add(by_delta(bent))
                assert is_subadditive(bent) == by_delta(bent)
    assert outcomes == {True, False}


def test_symmetry_detects_violation():
    vals = [Q(0), Q(1, 3), Q(2, 3), Q(1), Q(1, 3)]
    fn = GridFunction(5, 3, vals)
    assert not satisfies_symmetry(fn)


def test_restrict_keeps_original_samples():
    fn = gmic(5, 2)
    fine = restrict(fn, 3)
    assert fine.q == 15
    assert fine.f_index == 6
    for x in range(5):
        assert fine.values[3 * x] == fn.values[x]
    # interior samples sit on the interpolant
    assert fine.values[1] == fn.values[0] + Q(1, 3) * (fn.values[1] - fn.values[0])
    assert restrict(fn, 1) == fn
    with pytest.raises(FunctionError):
        restrict(fn, 0)


def test_restrict_preserves_minimality(rng):
    for _ in range(10):
        q = rng.randint(3, 9)
        f = rng.randrange(1, q)
        fn = gmic(q, f)
        m = rng.randint(2, 4)
        assert is_minimal(restrict(fn, m))


def test_arithmetic_complexity():
    assert arithmetic_complexity(gmic(5, 3)) == 6
    assert arithmetic_complexity(gmic(7, 1)) == 6
    vals = [Q(0), Q(1, 2), Q(1), Q(1, 2)]
    assert arithmetic_complexity(GridFunction(4, 2, vals)) == 2


def test_apply_automorphism_preserves_minimality():
    fn = gmic(7, 3)
    img = apply_automorphism(fn, 2)
    assert img.q == 7
    assert img.f_index == 6
    assert is_minimal(img)
    # x -> a x relabels values: img(a x) = fn(x)
    for x in range(7):
        assert img.values[(2 * x) % 7] == fn.values[x]
    with pytest.raises(FunctionError):
        apply_automorphism(gmic(6, 1), 2)


def test_automorphism_group_action(rng):
    fn = gmic(11, 4)
    a, b = 3, 7
    lhs = apply_automorphism(apply_automorphism(fn, a), b)
    rhs = apply_automorphism(fn, (a * b) % 11)
    assert lhs == rhs
    assert apply_automorphism(fn, 1) == fn


def test_equality_and_hash():
    a = gmic(5, 3)
    b = GridFunction(5, 3, [Q(0), Q(1, 3), Q(2, 3), Q(1), Q(1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != gmic(5, 2)
    assert len({a, b, gmic(5, 2)}) == 2


def test_json_round_trip(tmp_path):
    fn = gmic(9, 4)
    data = to_json_dict(fn)
    assert from_json_dict(json.loads(json.dumps(data))) == fn
    path = tmp_path / "fn.fn"
    save_function(fn, str(path))
    assert load_function(str(path)) == fn


def test_constructor_coerces_strings_and_ints():
    fn = GridFunction(4, 2, ["0", "1/2", 1, "0.5"])
    assert fn.values == (Q(0), Q(1, 2), Q(1), Q(1, 2))
