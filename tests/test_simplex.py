import itertools
import math

import pytest

from groupcut.linalg import solve_affine
from groupcut.rationals import Q
from groupcut.simplex import (
    INFEASIBLE,
    OPTIMAL,
    LpState,
    SimplexError,
)


def test_structural_needs_a_bound():
    with pytest.raises(SimplexError):
        LpState([(None, None)])


def test_box_lp_exact_corner():
    state = LpState([(0, 1), (0, 1)])
    state.add_row({0: 1, 1: 1}, None, Q(3, 2))
    status, val = state.maximize({0: 1, 1: 1})
    assert status == OPTIMAL
    assert val == Q(3, 2)
    x, y = state.point()
    assert x + y == Q(3, 2)
    assert 0 <= x <= 1 and 0 <= y <= 1


def test_textbook_lp():
    # max 3x + 2y  s.t.  x + y <= 4, x <= 2, y <= 3, x,y >= 0
    state = LpState([(0, None), (0, None)])
    state.add_row({0: 1, 1: 1}, None, 4)
    state.add_row({0: 1}, None, 2)
    state.add_row({1: 1}, None, 3)
    status, val = state.maximize({0: 3, 1: 2})
    assert status == OPTIMAL
    assert val == 10
    assert state.point() == [2, 2]


def test_fractional_optimum_is_exact():
    state = LpState([(0, None)])
    state.add_row({0: 3}, None, 1)
    status, val = state.maximize({0: 1})
    assert status == OPTIMAL
    assert val == Q(1, 3)


def test_infeasible_row():
    state = LpState([(0, 1)])
    state.add_row({0: 1}, 2, None)
    status, val = state.maximize({0: 1})
    assert status == INFEASIBLE
    assert val is None


def test_minimize():
    state = LpState([(0, 2), (0, 2)])
    state.add_row({0: 1, 1: 2}, 2, None)
    status, val = state.minimize({0: 1, 1: 1})
    assert status == OPTIMAL
    assert val == 1  # x=0, y=1 meets x + 2y >= 2 cheapest
    assert state.point() == [0, 1]


def test_warm_restart_after_bound_change():
    state = LpState([(0, 10)])
    status, val = state.maximize({0: 1})
    assert (status, val) == (OPTIMAL, 10)
    state.set_bounds(0, 0, 4)
    status, val = state.maximize({0: 1})
    assert (status, val) == (OPTIMAL, 4)
    state.set_bounds(0, 6, 10)
    status, val = state.minimize({0: 1})
    assert (status, val) == (OPTIMAL, 6)


def test_logical_variable_reuse_in_rows():
    # rows may reference earlier logicals: z = x + y, then z + x <= 3
    state = LpState([(0, 5), (0, 5)])
    z = state.add_row({0: 1, 1: 1}, None, None)
    state.add_row({z: 1, 0: 1}, None, 3)
    status, val = state.maximize({0: 1, 1: 1})
    assert status == OPTIMAL
    assert val == 3  # x=0, y=3 maximizes x+y under 2x+y <= 3


def test_clone_solves_independently():
    state = LpState([(0, 1), (0, 1)])
    state.add_row({0: 1, 1: 1}, None, 1)
    twin = state.clone()
    twin.set_bounds(0, Q(3, 4), 1)
    status, val = twin.maximize({1: 1})
    assert (status, val) == (OPTIMAL, Q(1, 4))
    status, val = state.maximize({1: 1})
    assert (status, val) == (OPTIMAL, 1)


def test_box_objective_property(rng):
    # with only redundant rows the optimum is the obvious box corner
    for _ in range(25):
        n = rng.randint(1, 5)
        bounds = []
        for _ in range(n):
            lo = Q(rng.randint(-5, 0))
            hi = lo + Q(rng.randint(0, 7))
            bounds.append((lo, hi))
        state = LpState(bounds)
        state.add_row({j: 1 for j in range(n)}, None, sum(b[1] for b in bounds))
        obj = {j: Q(rng.randint(-4, 4)) for j in range(n)}
        want = sum((bounds[j][1] if c > 0 else bounds[j][0]) * c
                   for j, c in obj.items() if c)
        status, val = state.maximize(obj)
        assert status == OPTIMAL
        assert val == want
        point = state.point()
        for j, (lo, hi) in enumerate(bounds):
            assert lo <= point[j] <= hi


def test_value_by_variable_id():
    state = LpState([(0, 3)])
    row = state.add_row({0: 2}, None, 4)
    state.maximize({0: 1})
    assert state.value(0) == 2
    assert state.value(row) == 4


def _random_q(rng, lo=-6, hi=6):
    return Q(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def _oracle_max(bounds, rows, objective):
    """Best objective over basic feasible points, by brute force.

    bounds: per-structural (lo, up), both finite; rows: (coeffs, lo, up)
    over structurals; objective: per-structural coefficients. Every
    vertex is the unique solution of n tight constraints, so trying all
    n-subsets of the bound and row hyperplanes finds the optimum.
    Returns None when no point is feasible.
    """
    n = len(bounds)
    planes = []
    for j, (lo, up) in enumerate(bounds):
        unit = [1 if k == j else 0 for k in range(n)]
        planes += [(unit, lo), (unit, up)]
    for coeffs, lo, up in rows:
        planes += [(coeffs, b) for b in (lo, up) if b is not None]

    def feasible(x):
        if any(not lo <= v <= up for v, (lo, up) in zip(x, bounds)):
            return False
        for coeffs, lo, up in rows:
            act = sum(c * v for c, v in zip(coeffs, x))
            if (lo is not None and act < lo) or (up is not None and act > up):
                return False
        return True

    best = None
    for subset in itertools.combinations(planes, n):
        sol = solve_affine([a for a, _ in subset], [b for _, b in subset], n)
        if sol is None or sol[1] or not feasible(sol[0]):
            continue
        val = sum(c * v for c, v in zip(objective, sol[0]))
        if best is None or val > best:
            best = val
    return best


def _check_state(state):
    """Rows in lowest terms; values and bounds integers over L > 0."""
    for row, den in zip(state.D, state.den):
        assert all(type(c) is int for c in row)
        assert den > 0
        assert math.gcd(den, *row) == 1
    assert type(state.L) is int and state.L > 0
    bounds = [b for b in state.lower + state.upper if b is not None]
    assert all(type(x) is int for x in state.N + state.B + bounds)
    for row, value in zip(state.D, state.B):
        assert value == sum(c * x for c, x in zip(row, state.N))


def test_differential_against_vertex_oracle(rng, monkeypatch):
    # Bounds are drawn around an anchor point, so most LPs are feasible;
    # one draw in five ignores it to reach infeasible ones too.
    real_pivot = LpState._pivot
    pivots = []

    def checked_pivot(self, r, slot, target):
        out = real_pivot(self, r, slot, target)
        _check_state(self)
        pivots.append(out)
        return out

    monkeypatch.setattr(LpState, "_pivot", checked_pivot)

    def interval(center):
        if rng.random() < 0.2:
            center = _random_q(rng)
        lo = center - _random_q(rng, 0, 3)
        up = center + _random_q(rng, 0, 3)
        if rng.random() < 0.3:
            # two fresh, different denominators in one call, e.g. 1/3, 5/7
            p, r = rng.sample((5, 7, 11, 13, 17, 19, 23, 29, 31), 2)
            lo -= Q(rng.randint(1, p - 1), p)
            up += Q(rng.randint(1, r - 1), r)
        return lo, up

    solved = infeasible = 0
    for _ in range(100):
        n = rng.randint(1, 3)
        anchor = [_random_q(rng, -3, 3) for _ in range(n)]
        bounds = [interval(x) for x in anchor]
        state = LpState(bounds)
        expand = {j: [1 if k == j else 0 for k in range(n)] for j in range(n)}
        rows = {}  # logical id -> (structural coefficients, lo, up)

        def row_bounds(coeffs):
            lo, up = interval(sum(c * x for c, x in zip(coeffs, anchor)))
            return rng.choice(((lo, up), (lo, None), (None, up), (None, None)))

        def add_random_row(state):
            coeffs = {v: _random_q(rng, -3, 3) for v in
                      rng.sample(sorted(expand), min(3, len(expand)))}
            flat = [sum(c * expand[v][k] for v, c in coeffs.items())
                    for k in range(n)]
            lo, up = row_bounds(flat)
            var = state.add_row(coeffs, lo, up)
            expand[var] = flat
            rows[var] = (flat, lo, up)

        for _ in range(rng.randint(1, 3)):
            add_random_row(state)
        for _ in range(6):
            step = rng.random()
            if step < 0.25:
                add_random_row(state)
            elif step < 0.55:
                var = rng.randrange(state.nvars)
                if var < n:
                    lo, up = bounds[var] = interval(anchor[var])
                else:
                    lo, up = row_bounds(rows[var][0])
                    rows[var] = (rows[var][0], lo, up)
                state.set_bounds(var, lo, up)
            elif step < 0.7:
                # the clone carries on; the original must still solve alone
                twin = state.clone()
                want = _oracle_max(bounds, list(rows.values()), [1] * n)
                status, val = state.maximize({j: 1 for j in range(n)})
                assert (status, val) == ((OPTIMAL, want) if want is not None
                                         else (INFEASIBLE, None))
                state = twin
            objective = {v: _random_q(rng, -3, 3)
                         for v in rng.sample(sorted(expand), rng.randint(1, 2))}
            flat = [sum(c * expand[v][k] for v, c in objective.items())
                    for k in range(n)]
            sense = rng.choice((1, -1))
            want = _oracle_max(bounds, list(rows.values()),
                               [sense * c for c in flat])
            if sense > 0:
                status, val = state.maximize(objective)
            else:
                status, val = state.minimize(objective)
            _check_state(state)
            if want is None:
                assert (status, val) == (INFEASIBLE, None)
                infeasible += 1
                continue
            assert status == OPTIMAL
            assert val == sense * want
            point = state.point()
            assert sum(c * x for c, x in zip(flat, point)) == val
            assert all(lo <= x <= up for x, (lo, up) in zip(point, bounds))
            for var, (coeffs, lo, up) in rows.items():
                act = sum(c * x for c, x in zip(coeffs, point))
                assert state.value(var) == act
                assert lo is None or act >= lo
                assert up is None or act <= up
            solved += 1
    assert solved > 300 and infeasible > 100 and len(pivots) > 300
