"""Slope-block painting families on grids of size q = 36r + 22.

For every r >= 1 there is a partial painting of the additivity complex,
built from a fixed arrangement of triangle and quadrilateral motifs that
repeats r times along the diagonal. Its additivity constraints force any
compatible minimal function with f = 1/2 to be piecewise linear with at
most 2(r + 2) distinct slopes, arranged in mirrored blocks, so the whole
restricted polytope is parametrized by just r + 2 slope values. This
module constructs the painting, converts between function values and
slope vectors, builds the polytope the slope vectors live in, and
harvests many-slope extreme functions from its vertices.

Throughout, the slope vector s_0..s_{r+1} holds per-step increments: the
function climbs by s_t across each grid interval of the t-th block. The
mirrored blocks descend by the same amounts, which is baked into the
value formulas rather than carried as extra variables.
"""

from .complex2d import additivity_table, paint_table
from .extremality import is_extreme
from .grid_functions import GridFunction, number_of_slopes
from .polyhedra import Polytope, enumerate_vertices
from .rationals import Q, QZERO


class PatternError(ValueError):
    """Bad arguments to the slope-block construction."""


def grid_size(r):
    """Grid order q = 36r + 22 of the r-th painting family member."""
    _check_r(r)
    return 36 * r + 22


def _check_r(r):
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise PatternError("family index r must be a positive integer, got %r" % (r,))


def _normalization_form(r):
    """Coefficient row of the value at f: the scale pinned to 1 by symmetry."""
    row = [0] * (r + 2)
    row[0] = 3
    row[1] = 12
    for j in range(2, r + 1):
        row[j] = 18
    row[r + 1] = 14
    return tuple(row)


def _value_forms(r):
    """Rows expressing pi_0..pi_{q-1} as integer combinations of s_0..s_{r+1}.

    The first quarter is built block by block: within block i the value
    climbs by s_{i+1} per interval, with transition intervals borrowing
    the neighbouring slopes. The second quarter mirrors the first around
    the midpoint of the half-period, the upper half mirrors everything
    by pi_i = pi_{q-i}. All rows are homogeneous in s; scaling to an
    actual function happens through the normalization constraint.
    """
    q = 36 * r + 22
    n = r + 2
    forms = [None] * q

    def put(idx, row):
        if forms[idx] is not None:
            raise PatternError("value form %d assigned twice" % idx)
        forms[idx] = tuple(row)

    for i in range(r + 1):
        prefix = [0] * n
        prefix[0] += 1
        prefix[1] -= 2
        for j in range(1, i + 1):
            prefix[j] += 6

        row = list(prefix)
        row[i] -= 1
        row[i + 1] += 2
        put(6 * i, row)
        row = list(prefix)
        row[i + 1] += 2
        put(6 * i + 1, row)
        row = list(prefix)
        row[i + 1] += 3
        put(6 * i + 2, row)
        row = list(prefix)
        row[i + 1] += 4
        put(6 * i + 3, row)
        if i < r:
            row = list(prefix)
            row[i + 1] += 4
            row[i + 2] += 1
            put(6 * i + 4, row)
            row = list(prefix)
            row[i + 1] += 5
            row[i + 2] += 1
            put(6 * i + 5, row)

    for i in range(r + 1):
        prefix = [0] * n
        prefix[0] += 1
        prefix[1] -= 2
        prefix[r + 1] += 7
        for j in range(1, r + 1):
            prefix[j] += 9
        for j in range(1, i + 1):
            prefix[j] -= 3

        row = list(prefix)
        row[i + 1] -= 1
        put(9 * r + 5 - 3 * i, row)
        row = list(prefix)
        row[i + 1] -= 2
        put(9 * r + 4 - 3 * i, row)
        if i < r:
            row = list(prefix)
            row[i + 1] -= 2
            row[i + 2] -= 1
            put(9 * r + 3 - 3 * i, row)

    norm = _normalization_form(r)
    for t in range(9 * r + 6):
        mirror = forms[9 * r + 5 - t]
        put(9 * r + 6 + t, tuple(a - b for a, b in zip(norm, mirror)))
    for idx in range(18 * r + 12, q):
        put(idx, forms[q - idx])
    return tuple(forms)


def _delta_form(forms, q, x, y):
    """Coefficient row of the additivity slack at the vertex (x, y)."""
    fz = forms[(x + y) % q]
    return tuple(a + b - c for a, b, c in zip(forms[x], forms[y], fz))


def pi_from_slopes(r, slopes):
    """Function values from a slope vector; linear, no feasibility check.

    The map is the slope-space parametrization: it lands on an actual
    minimal function exactly when the slope vector lies in the polytope
    of build_slope_polytope, but any vector of length r + 2 is accepted
    (the zero vector maps to the zero function).
    """
    _check_r(r)
    vals = tuple(Q(s) for s in slopes)
    if len(vals) != r + 2:
        raise PatternError("expected %d slope values, got %d" % (r + 2, len(vals)))
    q = 36 * r + 22
    values = []
    for row in _value_forms(r):
        total = QZERO
        for c, s in zip(row, vals):
            if c:
                total += c * s
        values.append(total)
    return GridFunction(q, q // 2, values)


def slopes_from_pi(r, fn):
    """Slope vector read off a function; inverse of pi_from_slopes.

    Only the grid order, the position of f, and the x -> 1 - x invariance
    are validated here; feeding a function that violates the painting's
    additivities silently yields the slope vector of its best imitation.
    """
    _check_r(r)
    q = 36 * r + 22
    if fn.q != q:
        raise PatternError("function has grid order %d, family r=%d needs %d"
                           % (fn.q, r, q))
    if fn.f_index != q // 2:
        raise PatternError("function has f_index %d, expected %d"
                           % (fn.f_index, q // 2))
    for i in range(1, q // 2 + 1):
        if fn.values[i] != fn.values[q - i]:
            raise PatternError("function is not invariant under x -> 1 - x")
    out = [fn.values[1] - fn.values[0], fn.values[2] - fn.values[1]]
    for t in range(2, r + 2):
        out.append(fn.values[6 * t - 8] - fn.values[6 * t - 9])
    return tuple(out)


def build_prescribed_painting(r):
    """The partial painting whose additivities carve out the slope space.

    A vertex is painted green exactly when its additivity slack vanishes
    identically over the slope parametrization, and a higher face is green
    when all of its corner vertices are; everything else stays grey. This
    reproduces the motif arrangement triangle by triangle, including the
    mirror images under (x, y) -> (1-x, 1-y) and the two symmetry
    diagonals x + y = 1/2 and x + y = 3/2.
    """
    _check_r(r)
    forms = _value_forms(r)
    # pack each form into one integer in base 6*max|c| + 1: a combination
    # a + b - c of three forms then has digits below base/2, so it packs
    # to 0 exactly when it vanishes
    base = 6 * max(abs(c) for form in forms for c in form) + 1
    keys = [sum(c * base ** i for i, c in enumerate(form)) for form in forms]
    return paint_table(additivity_table(keys))


def build_slope_polytope(r):
    """The polytope of feasible slope vectors, in variables s_0..s_{r+1}.

    The minimal-function constraint system is pushed through the value
    forms: subadditivity rows become homogeneous inequalities, every
    reflection equality collapses to the single normalization row, and
    rows that vanish identically (the parametrization already enforces
    them) are dropped along with exact duplicates.
    """
    _check_r(r)
    q = 36 * r + 22
    forms = _value_forms(r)
    n = r + 2
    zero = (0,) * n
    ineqs = []
    seen = set()
    for x in range(q):
        for y in range(x, q):
            row = _delta_form(forms, q, x, y)
            if row == zero or row in seen:
                continue
            seen.add(row)
            ineqs.append((row, 0))
    eqs = []
    eq_seen = set()
    half = q // 2
    for x in range(q):
        partner = (half - x) % q
        if partner < x:
            continue
        row = tuple(a + b for a, b in zip(forms[x], forms[partner]))
        if row == zero or row in eq_seen:
            continue
        eq_seen.add(row)
        eqs.append((row, 1))
    return Polytope(n, ineqs, eqs)


def _extra_additive_vertices(r):
    """Vertices pinned additive for large r to tame the vertex enumeration."""
    return (
        (6 * r + 5, 36 * r + 18),
        (6 * r + 7, 36 * r + 10),
        (6 * r + 7, 36 * r + 12),
        (6 * r + 10, 36 * r + 3),
        (6 * r + 11, 36 * r),
        (9 * r - 18, 9 * r - 18),
        (9 * r - 12, 9 * r - 12),
        (9 * r - 9, 9 * r - 9),
        (9 * r - 3, 9 * r - 3),
        (9 * r + 3, 9 * r + 3),
    )


def pattern_extreme(r, k_slopes):
    """Extreme functions with at least k_slopes slopes from the r-th family.

    Enumerates the vertices of the slope polytope (with the extra pinned
    additivities once r >= 16), maps each vertex to its function, and
    keeps the ones that are extreme with enough distinct slopes. Since a
    family member has at most 2(r + 2) slopes, k_slopes above that bound
    just returns an empty list.
    """
    _check_r(r)
    if not isinstance(k_slopes, int) or isinstance(k_slopes, bool) or k_slopes < 1:
        raise PatternError("k_slopes must be a positive integer, got %r"
                           % (k_slopes,))
    poly = build_slope_polytope(r)
    if r >= 16:
        q = 36 * r + 22
        forms = _value_forms(r)
        zero = (0,) * poly.nvars
        extra = []
        for x, y in _extra_additive_vertices(r):
            row = _delta_form(forms, q, x, y)
            if row != zero and (row, 0) not in extra:
                extra.append((row, 0))
        poly = Polytope(poly.nvars, poly.ineqs, list(poly.eqs) + extra)
    out = []
    for vertex in enumerate_vertices(poly):
        fn = pi_from_slopes(r, vertex)
        if number_of_slopes(fn) < k_slopes:
            continue
        if not is_extreme(fn).extreme:
            continue
        out.append(fn)
    out.sort(key=lambda fn: fn.sort_key())
    return out
