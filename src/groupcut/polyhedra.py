"""Rational polytopes in constraint form and exact vertex enumeration.

A Polytope is a list of inequality rows a.x >= b plus equality rows a.x = b
over nvars variables. The two builders produce the feasible set of minimal
periodic grid functions with pi_0 eliminated, either from pairwise
subadditivity slacks or from the coarser triple-sum form; both share the
reflection equalities.

Vertex enumeration is double description on the homogenized cone: the
equality system is solved first and the inequalities are rewritten over the
affine hull's parameters, so the cone dimension is the polytope's true
dimension plus one. Rays are primitive integer vectors and tightness is
kept as bitmasks over processed rows. Masks are derived, never re-scanned:
a new ray is a positive combination of an adjacent pair, so it is tight
exactly on the pair's common rows plus the cutting row. A candidate pair
is adjacent when no other distinct tight set contains its common set
(the combinatorial test behind a popcount prefilter); at each cutting row
that test ANDs per-row bitsets over the distinct masks holding the row.
"""

from .grid_functions import GridFunction
from .linalg import RankTracker, integerize, matrix_rank, solve_affine
from .rationals import Q, QZERO, QONE, format_rational, parse_rational
from .simplex import INFEASIBLE, LpState

# Sequential redundancy tests need a resting box for otherwise-free
# variables. Any finite value works as long as it dwarfs every coordinate
# a ray direction could reach before the box binds; coefficients here are
# tiny integers and subdeterminant growth is bounded far below this.
ARTIFICIAL_BOX = 10 ** 30

# Substituted systems at least this dimension get an LP-based redundancy
# strip before double description; below it the row count is already small.
AUTO_REDUND_DIM = 8


class PolytopeError(ValueError):
    pass


class Polytope:
    """H-representation: ineqs are (coeffs, rhs) meaning a.x >= rhs."""

    def __init__(self, nvars, ineqs, eqs):
        self.nvars = nvars
        self.ineqs = [(tuple(a), b) for a, b in ineqs]
        self.eqs = [(tuple(a), b) for a, b in eqs]

    def row_count(self):
        """Raw count with equalities double-counted as inequality pairs."""
        return len(self.ineqs) + 2 * len(self.eqs)


def _pi_row(q, terms):
    """Coefficient vector over pi_1..pi_{q-1}; pi_0 contributions vanish."""
    row = [0] * (q - 1)
    for idx, coeff in terms:
        idx %= q
        if idx:
            row[idx - 1] += coeff
    return row


def symmetry_pairs(q, f_index):
    """Unordered reflection pairs {x, f-x}, listed by their smaller member."""
    pairs = []
    for x in range(q):
        partner = (f_index - x) % q
        if x <= partner:
            pairs.append((x, partner))
    return pairs


def build_minimal_function_polytope(q, f_index):
    """All subadditivity slacks for x <= y, plus the reflection equalities.

    Rows for x = 0 degenerate to 0 >= 0 and are kept so the raw row count
    reflects the full generated system.
    """
    if not 0 < f_index < q:
        raise PolytopeError("f_index must be in 1..q-1")
    ineqs = []
    for x in range(q):
        for y in range(x, q):
            row = _pi_row(q, [(x, 1), (y, 1), (x + y, -1)])
            ineqs.append((row, 0))
    eqs = []
    for x, partner in symmetry_pairs(q, f_index):
        eqs.append((_pi_row(q, [(x, 1), (partner, 1)]), 1))
    return Polytope(q - 1, ineqs, eqs)


def build_triple_system_polytope(q, f_index):
    """The triple-sum form: pi_i + pi_j + pi_k >= 1 whenever i+j+k = f.

    Same feasible set as the pairwise build (under the shared equalities),
    with about q^2/6 rows instead of q^2/2.
    """
    if not 0 < f_index < q:
        raise PolytopeError("f_index must be in 1..q-1")
    ineqs = []
    for i in range(q):
        for j in range(i, q):
            k = (f_index - i - j) % q
            if k < j:
                continue
            ineqs.append((_pi_row(q, [(i, 1), (j, 1), (k, 1)]), 1))
    eqs = []
    for x, partner in symmetry_pairs(q, f_index):
        eqs.append((_pi_row(q, [(x, 1), (partner, 1)]), 1))
    return Polytope(q - 1, ineqs, eqs)


def function_from_vertex(q, f_index, coords):
    """Lift a point of the pi_1..pi_{q-1} space back to a GridFunction."""
    return GridFunction(q, f_index, (QZERO,) + tuple(coords))


def dimension(poly):
    """Affine dimension of the solution set of the equality rows."""
    rows = [a for a, _ in poly.eqs]
    return poly.nvars - matrix_rank(rows, poly.nvars)


# -- vertex enumeration ----------------------------------------------------


def _dot(u, v):
    s = 0
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def _primitive(vec):
    g = 0
    for v in vec:
        v = -v if v < 0 else v
        while v:
            g, v = v, g % v
        if g == 1:
            return tuple(vec)
    if g <= 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


def _dd_rays(hrows, dim):
    """Extreme rays of {x : r.x >= 0 for r in hrows} plus leftover lineality."""
    lin = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []  # (primitive vec, tight bitmask)
    for nrows, row in enumerate(hrows):
        bit = 1 << nrows
        hit = None
        for idx, l in enumerate(lin):
            if _dot(row, l):
                hit = idx
                break
        if hit is not None:
            pivot = lin.pop(hit)
            s = _dot(row, pivot)
            if s < 0:
                pivot = tuple(-v for v in pivot)
                s = -s
            lin = [
                l if not _dot(row, l) else _primitive(
                    tuple(a * s - b * _dot(row, l) for a, b in zip(l, pivot))
                )
                for l in lin
            ]
            # lineality is orthogonal to every processed row, so shifting a
            # ray along the pivot only adds this row to its tight set
            old = rays
            rays = []
            seen = set()
            for vec, mask in old:
                sr = _dot(row, vec)
                if sr:
                    vec = _primitive(tuple(a * s - b * sr for a, b in zip(vec, pivot)))
                if vec not in seen:
                    seen.add(vec)
                    rays.append((vec, mask | bit))
            rays.append((pivot, bit - 1))
            continue
        plus, zero, minus = [], [], []
        for vec, mask in rays:
            s = _dot(row, vec)
            if s > 0:
                plus.append((vec, mask, s))
            elif s < 0:
                minus.append((vec, mask, s))
            else:
                zero.append((vec, mask | bit))
        if not minus:
            rays = [(v, m) for v, m, _ in plus] + zero
            continue
        if not plus:
            rays = zero
            continue
        # holders[b] is the set of distinct tight masks that hold row b;
        # a pair is adjacent when no mask but its own holds all of common
        index = {}
        for m in [m for _, m, _ in plus] + [m for _, m in zero] + [m for _, m, _ in minus]:
            index.setdefault(m, 1 << len(index))
        holders = [0] * nrows
        for m, ibit in index.items():
            m &= ~bit  # zero rays hold this row; no pair's common set does
            while m:
                low = m & -m
                holders[low.bit_length() - 1] |= ibit
                m ^= low
        everyone = (1 << len(index)) - 1
        need = dim - len(lin) - 2
        new = {}
        for pvec, pmask, ps in plus:
            others = everyone & ~index[pmask]
            for mvec, mmask, ms in minus:
                common = pmask & mmask
                if common.bit_count() < need:
                    continue
                rest = others & ~index[mmask]
                while rest and common:
                    low = common & -common
                    rest &= holders[low.bit_length() - 1]
                    common ^= low
                if rest:
                    continue
                vec = _primitive(tuple(ps * b - ms * a for a, b in zip(pvec, mvec)))
                if vec not in new:
                    new[vec] = (pmask & mmask) | bit
        rays = [(v, m) for v, m, _ in plus] + zero + list(new.items())
    return rays, lin


def _substituted_rows(ineqs, x0, basis):
    """Inequalities rewritten over the affine hull x0 + span(basis).

    Returns (rows, sources): rows are the distinct nontrivial (vec, b)
    pairs as coprime integers, in first-seen order, and sources[k] is the
    index in ineqs of the first row that became rows[k]. None when some
    row reads 0 >= b with b > 0.
    """
    rows, sources, seen = [], [], set()
    for i, (coeffs, rhs) in enumerate(ineqs):
        arow = [sum(Q(c) * bv[j] for j, c in enumerate(coeffs) if c) for bv in basis]
        shift = sum(Q(c) * x0[j] for j, c in enumerate(coeffs) if c)
        ints = integerize(arow + [Q(rhs) - shift])
        key = (tuple(ints[:-1]), ints[-1])
        if not any(key[0]):
            if key[1] > 0:
                return None
        elif key not in seen:
            seen.add(key)
            rows.append(key)
            sources.append(i)
    return rows, sources


def _sequential_redundancy(rows, nvars, var_bounds=None):
    """Indices of rows surviving one-at-a-time LP redundancy tests.

    rows are (coeffs, rhs) meaning a.x >= rhs. A row is dropped when the
    minimum of its left side over the remaining rows still meets the rhs;
    dropped rows stay out for later tests.
    """
    if var_bounds is None:
        var_bounds = [(-ARTIFICIAL_BOX, ARTIFICIAL_BOX)] * nvars
    state = LpState(var_bounds)
    logicals = []
    for coeffs, rhs in rows:
        lv = state.add_row({j: c for j, c in enumerate(coeffs) if c}, rhs, None)
        logicals.append(lv)
    survivors = []
    for i, (coeffs, rhs) in enumerate(rows):
        lv = logicals[i]
        state.set_bounds(lv, None, None)
        status, val = state.minimize({lv: QONE})
        if status == INFEASIBLE:
            raise PolytopeError("redundancy test on an empty system")
        if val >= rhs:
            continue  # redundant; leave the row relaxed
        state.set_bounds(lv, rhs, None)
        survivors.append(i)
    return survivors


def remove_redundant(poly):
    """Canonical minimal description of the same feasible set.

    The result keeps an independent basis of equality rows (stored
    equalities plus any inequalities that hold with equality everywhere)
    and exactly the facet inequalities modulo that affine hull. Facets
    are unique, so the output does not depend on input row order, and
    running the reduction twice changes nothing.
    """
    eq_rows = [(tuple(c), Q(b)) for c, b in poly.eqs]
    ineq_rows = [(tuple(c), Q(b)) for c, b in poly.ineqs]
    while True:
        sol = solve_affine([a for a, _ in eq_rows], [b for _, b in eq_rows],
                           poly.nvars)
        if sol is None:
            raise PolytopeError("redundancy removal on an empty system")
        x0, basis = sol
        d = len(basis)
        sub = _substituted_rows(ineq_rows, x0, basis)
        if sub is None:
            raise PolytopeError("redundancy removal on an empty system")
        rows, sources = sub
        implicit = _implicit_equalities(rows, d)
        if implicit:
            eq_rows.extend(ineq_rows[sources[i]] for i in implicit)
            continue
        keep = _sequential_redundancy(rows, d)
        facets = [ineq_rows[sources[i]] for i in keep]
        eq_basis = _independent_rows(eq_rows, poly.nvars)
        return Polytope(poly.nvars, facets, eq_basis)


def _implicit_equalities(rows, nvars):
    """Indices of rows a.x >= b with a.x == b on the whole feasible set."""
    box = [(-ARTIFICIAL_BOX, ARTIFICIAL_BOX)] * nvars
    state = LpState(box)
    logicals = []
    for coeffs, rhs in rows:
        lv = state.add_row({j: c for j, c in enumerate(coeffs) if c}, rhs, None)
        logicals.append(lv)
    found = []
    for i, (coeffs, rhs) in enumerate(rows):
        status, val = state.maximize({logicals[i]: QONE})
        if status == INFEASIBLE:
            raise PolytopeError("redundancy removal on an empty system")
        if val == rhs:
            found.append(i)
    return found


def _independent_rows(eq_rows, nvars):
    """Subset of equality rows spanning the same affine space, input order."""
    tracker = RankTracker(nvars + 1)
    kept = []
    for coeffs, rhs in eq_rows:
        before = tracker.rank
        tracker.add_row(list(coeffs) + [rhs])
        if tracker.rank > before:
            kept.append((coeffs, rhs))
    return kept


def enumerate_vertices(poly):
    """All vertices, as lexicographically sorted tuples of rationals.

    Equalities are eliminated first (inequalities rewritten over the affine
    hull), big substituted systems get an LP redundancy strip, and double
    description runs on the homogenization. Unbounded directions and
    leftover lineality simply yield no vertices for that part.
    """
    sol = solve_affine([a for a, _ in poly.eqs], [b for _, b in poly.eqs], poly.nvars)
    if sol is None:
        return []
    x0, basis = sol
    d = len(basis)
    if d == 0:
        for coeffs, rhs in poly.ineqs:
            if sum(Q(c) * v for c, v in zip(coeffs, x0) if c) < rhs:
                return []
        return [tuple(x0)]
    sub = _substituted_rows(poly.ineqs, x0, basis)
    if sub is None:
        return []
    rows = sub[0]
    if d >= AUTO_REDUND_DIM:
        keep = _sequential_redundancy(rows, d)
        rows = [rows[i] for i in keep]
    hrows = sorted(tuple(a) + (-b,) for a, b in rows)
    wrow = tuple([0] * d + [1])
    if wrow not in hrows:
        hrows.append(wrow)
        hrows.sort()
    rays, lin = _dd_rays(hrows, d + 1)
    if lin:
        return []
    verts = []
    for vec, _ in rays:
        w = vec[d]
        if w <= 0:
            continue
        t = [Q(vec[j], w) for j in range(d)]
        point = list(x0)
        for j, tj in enumerate(t):
            if tj:
                bv = basis[j]
                for k in range(poly.nvars):
                    if bv[k]:
                        point[k] += tj * bv[k]
        verts.append(tuple(point))
    verts.sort()
    return verts


# -- lrs-style text formats -------------------------------------------------


def write_ine(poly, path, name="polytope"):
    """H-representation text file (b + a.x >= 0 rows, lrs dialect)."""
    lines = [name, "H-representation"]
    if poly.eqs:
        idx = " ".join(str(i + 1) for i in range(len(poly.eqs)))
        lines.append("linearity %d %s" % (len(poly.eqs), idx))
    lines.append("begin")
    total = len(poly.eqs) + len(poly.ineqs)
    lines.append("%d %d rational" % (total, poly.nvars + 1))
    for coeffs, rhs in list(poly.eqs) + list(poly.ineqs):
        parts = [format_rational(Q(-rhs))]
        parts.extend(format_rational(Q(c)) for c in coeffs)
        lines.append(" ".join(parts))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ine(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    linearity = set()
    it = iter(lines)
    for ln in it:
        if ln.startswith("linearity"):
            parts = ln.split()
            linearity = {int(p) - 1 for p in parts[2:]}
        elif ln == "begin":
            break
    header = next(it).split()
    m, ncols = int(header[0]), int(header[1])
    ineqs, eqs = [], []
    for i in range(m):
        vals = [parse_rational(tok) for tok in next(it).split()]
        if len(vals) != ncols:
            raise PolytopeError("row %d has %d entries, expected %d" % (i, len(vals), ncols))
        row = (tuple(vals[1:]), -vals[0])
        if i in linearity:
            eqs.append(row)
        else:
            ineqs.append(row)
    return Polytope(ncols - 1, ineqs, eqs)


def write_ext(vertices, nvars, path, name="vertices"):
    """V-representation text file listing vertices only."""
    lines = [name, "V-representation", "begin"]
    lines.append("%d %d rational" % (len(vertices), nvars + 1))
    for v in vertices:
        lines.append("1 " + " ".join(format_rational(Q(c)) for c in v))
    lines.append("end")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ext(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    it = iter(lines)
    for ln in it:
        if ln == "begin":
            break
    header = next(it).split()
    m = int(header[0])
    verts = []
    for _ in range(m):
        vals = [parse_rational(tok) for tok in next(it).split()]
        if vals[0] != 1:
            raise PolytopeError("rays are not supported in vertex files")
        verts.append(tuple(vals[1:]))
    return verts
