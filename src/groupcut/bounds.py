"""Denominator growth of grid functions: determinant bounds and evidence.

A minimal function on the 1/q grid is a vertex of a rational polytope, so
its values have denominators controlled by basis determinants of the
constraint system in standard form. This module carries both directions:
a constructive basis whose determinant is exactly 2^((q-1)/2), giving the
exponential lower bound on the worst basis, and sampled or exhaustive
checks that no basis determinant exceeds 10^(q/4). It also measures the
largest denominators that actually occur among vertex functions.
"""

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .extremality import is_extreme
from .grid_functions import arithmetic_complexity
from .linalg import det_bareiss
from .polyhedra import (build_minimal_function_polytope, enumerate_vertices,
                        function_from_vertex)


class BoundsError(ValueError):
    pass


def _halve(x, q):
    """The residue y with 2y = x (mod q); q must be odd."""
    return x * ((q + 1) // 2) % q


@dataclass(frozen=True)
class HalvingSequence:
    """Ordering of all residues by alternating halving and reflection.

    Starts 0, f, f/2 and then alternates "halve some earlier element"
    (odd positions) with "reflect the previous element through f" (even
    positions), visiting every residue exactly once. Such an ordering
    supports a constraint basis whose determinant is exactly 2^((q-1)/2).
    """

    q: int
    f_index: int
    a: tuple

    def __post_init__(self):
        q, f, a = self.q, self.f_index, self.a
        if q < 3 or q % 2 == 0:
            raise BoundsError("q must be odd and at least 3")
        if not 0 < f < q or gcd(q, f) != 1:
            raise BoundsError("f_index must be coprime to q")
        if len(a) != q or sorted(a) != list(range(q)):
            raise BoundsError("sequence must visit every residue once")
        if a[0] != 0 or a[1] != f or a[2] != _halve(f, q):
            raise BoundsError("sequence must start 0, f, f/2")
        for i in range(3, q):
            if i % 2 == 1:
                halves = {_halve(a[j], q) for j in range(i)}
                if a[i] not in halves:
                    raise BoundsError(
                        f"a[{i}] is not half of an earlier element")
            elif a[i] != (f - a[i - 1]) % q:
                raise BoundsError(f"a[{i}] must reflect a[{i - 1}]")


def construct_sequence(q, f_index):
    """Greedy halving sequence: always halve the earliest usable element."""
    if q < 3 or q % 2 == 0:
        raise BoundsError("q must be odd and at least 3")
    if not 0 < f_index < q or gcd(q, f_index) != 1:
        raise BoundsError("f_index must be coprime to q")
    seq = [0, f_index, _halve(f_index, q)]
    seen = set(seq)
    while len(seq) < q:
        for s in seq:
            half = _halve(s, q)
            if half in seen or (f_index - half) % q in seen:
                continue
            seq.append(half)
            seen.add(half)
            seq.append((f_index - half) % q)
            seen.add(seq[-1])
            break
        else:
            raise BoundsError("halving sequence construction got stuck")
    return HalvingSequence(q, f_index, tuple(seq))


def basis_matrix(seq):
    """The q x q integer matrix whose rows follow the halving sequence.

    Row i encodes, in order: the pin at zero, the self-symmetry of a[2],
    symmetry pairs (a[i], a[i-1]) at i = 1 and even i >= 4, and the
    doubling subadditivity 2*pi[a[i]] >= pi[2*a[i]] at odd i >= 3.
    """
    q, a = seq.q, seq.a
    rows = []
    for i in range(q):
        row = [0] * q
        if i == 0:
            row[a[0]] = 1
        elif i == 2:
            row[a[2]] = 2
        elif i == 1 or i % 2 == 0:
            row[a[i]] += 1
            row[a[i - 1]] += 1
        else:
            row[a[i]] += -2
            row[2 * a[i] % q] += 1
        rows.append(row)
    return rows


def basis_determinant(seq):
    """|det| of the halving-sequence basis; always 2^((q-1)/2)."""
    return abs(det_bareiss(basis_matrix(seq)))


def _symmetry_rows(q, f_index):
    rows = []
    done = set()
    for x in range(q):
        y = (f_index - x) % q
        key = (min(x, y), max(x, y))
        if key in done:
            continue
        done.add(key)
        row = [0] * q
        row[x] += 1
        row[y] += 1
        rows.append(row)
    return rows


def _subadditivity_rows(q):
    rows = []
    for x in range(q):
        for y in range(x, q):
            row = [0] * q
            for var, c in ((x, 1), (y, 1), ((x + y) % q, -1)):
                row[var] += c
            rows.append(row)
    return rows


def check_upper_bound(q, f_index, sample_count, seed=0, exhaustive=False):
    """Test basis determinants of the standard-form system against bounds.

    The system has one equation pinning pi_0, one per distinct symmetry
    pair, and one per subadditivity inequality (with its own slack). A
    basis keeps the slack column for every subadditivity row except a
    chosen tight subset; expanding those unit columns leaves a square
    matrix over the kept function-value columns, whose determinant is the
    basis determinant up to sign. Every determinant must satisfy both
    det^4 <= 10^q and det^2 <= 5^(n-m-1) * 2^(m+2), checked in integers.

    Returns JSONL-ready rows (dicts with q, f_index, statistic, value).
    """
    pin_row = [1 if x == 0 else 0 for x in range(q)]
    sym = _symmetry_rows(q, f_index)
    sub = _subadditivity_rows(q)
    m = len(sym)
    max_tight = q - 1 - m
    rows = []

    def record(statistic, value):
        rows.append({"q": q, "f_index": f_index,
                     "statistic": statistic, "value": value})

    checked = 0
    singular = 0
    max_det = 0
    violations = 0

    def try_basis(tight, cols):
        nonlocal checked, singular, max_det, violations
        n = len(cols)
        mat = [[row[c] for c in cols] for row in
               [pin_row] + sym + [sub[i] for i in tight]]
        det = det_bareiss(mat)
        if det == 0:
            singular += 1
            return
        checked += 1
        det = abs(det)
        max_det = max(max_det, det)
        if det ** 4 > 10 ** q or det ** 2 > 5 ** (n - m - 1) * 2 ** (m + 2):
            violations += 1

    if exhaustive:
        for ntight in range(0, max_tight + 1):
            n = 1 + m + ntight
            for tight in combinations(range(len(sub)), ntight):
                for cols in combinations(range(q), n):
                    try_basis(tight, cols)
    else:
        rng = random.Random(seed)
        for _ in range(sample_count):
            ntight = rng.randint(0, max_tight)
            n = 1 + m + ntight
            tight = rng.sample(range(len(sub)), ntight)
            cols = rng.sample(range(q), n)
            try_basis(sorted(tight), sorted(cols))

    if checked or singular:
        record("bases_checked", checked)
        record("singular_skipped", singular)
        record("max_abs_det", max_det)
        record("bound_violations", violations)
    return rows


def empirical_complexity(q):
    """Largest denominators over all vertex functions with this grid.

    Returns (d_ext, d_ver): the maximum arithmetic complexity over the
    polytope vertices that are extreme, and over all polytope vertices,
    across every f_index up to q // 2 (larger f_index values mirror).
    """
    d_ext = 0
    d_ver = 0
    for f_index in range(1, q // 2 + 1):
        poly = build_minimal_function_polytope(q, f_index)
        for coords in enumerate_vertices(poly):
            fn = function_from_vertex(q, f_index, coords)
            denom = arithmetic_complexity(fn)
            d_ver = max(d_ver, denom)
            if denom > d_ext and is_extreme(fn).extreme:
                d_ext = max(d_ext, denom)
    return d_ext, d_ver
