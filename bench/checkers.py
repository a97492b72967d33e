"""Output checkers written apart from groupcut, on plain integers.

Nothing here imports the package. A function is given as its grid order q,
the index f of its breakpoint, and its q values pi_0..pi_{q-1} as exact
rationals (anything with numerator and denominator). Every test is made on
the values scaled to integers over their common denominator:

- minimal: pi_0 = 0, pi_x + pi_{f-x} = 1 and pi_x + pi_y >= pi_{x+y} (mod q);
- vertex: the rows tight at the function (the symmetry equalities and the
  additive pairs, over pi_1..pi_{q-1}) have rank q - 1, found by elimination
  modulo a 61-bit prime. A full rank modulo p implies a full rank over the
  rationals, so no non-vertex passes; for q <= 48 every nonzero minor is
  below p (Hadamard: entries of absolute value <= 2, at most 3 per row), so
  no vertex is refused either;
- covered: every grid interval is covered by the additive triangles, with
  coverage carried along additive edges (the interval lemma);
- slopes: the number of distinct increments pi_{x+1} - pi_x.

Each check_* function returns (problems, verified): the list of problems,
empty when the output passed, and the number of outputs that passed every
check on their own, counted here and not taken from the program.
"""

from fractions import Fraction
from math import lcm

_PRIME = (1 << 61) - 1


class Fn:
    """A grid function as plain integers: values[x] / den."""

    __slots__ = ("q", "f", "values", "den")

    def __init__(self, q, f, values):
        if len(values) != q:
            raise ValueError("expected %d values, got %d" % (q, len(values)))
        den = lcm(*(int(v.denominator) for v in values))
        self.q = q
        self.f = f
        self.den = den
        self.values = tuple(int(v.numerator) * (den // int(v.denominator))
                            for v in values)

    def key(self):
        """Canonical identity: equal functions give equal keys."""
        return (self.q, self.f, self.den, self.values)

    def additive(self, x, y):
        v = self.values
        q = self.q
        return v[x % q] + v[y % q] == v[(x + y) % q]


def from_vertex(q, f, coords):
    """The function whose values are 0 followed by the vertex coordinates."""
    return Fn(q, f, (Fraction(0),) + tuple(coords))


def minimality_problem(fn):
    """None when fn is minimal, else a short reason."""
    q, f, v, den = fn.q, fn.f, fn.values, fn.den
    if v[0] != 0:
        return "pi_0 is not 0"
    for x in range(q):
        if v[x] + v[(f - x) % q] != den:
            return "not symmetric about f at x=%d" % x
    for x in range(q):
        vx = v[x]
        for y in range(x, q):
            if vx + v[y] < v[(x + y) % q]:
                return "not subadditive at (%d, %d)" % (x, y)
    return None


def tight_rows(fn):
    """Rows over pi_1..pi_{q-1} of every constraint tight at fn."""
    q, f = fn.q, fn.f
    rows = []
    for x in range(q):
        partner = (f - x) % q
        if x <= partner:
            rows.append(_row(q, ((x, 1), (partner, 1))))
    for x in range(q):
        for y in range(x, q):
            if fn.additive(x, y):
                rows.append(_row(q, ((x, 1), (y, 1), ((x + y) % q, -1))))
    return [r for r in rows if any(r)]


def _row(q, terms):
    row = [0] * (q - 1)
    for idx, c in terms:
        if idx:
            row[idx - 1] += c
    return row


def rank_mod_prime(rows, ncols, stop_at=None):
    """Rank of integer rows modulo a 61-bit prime (a lower bound over Q)."""
    pivots = {}
    for row in rows:
        r = [c % _PRIME for c in row]
        for col in range(ncols):
            lead = r[col]
            if not lead:
                continue
            piv = pivots.get(col)
            if piv is None:
                inv = pow(lead, -1, _PRIME)
                pivots[col] = [c * inv % _PRIME for c in r]
                break
            r = [(a - lead * b) % _PRIME for a, b in zip(r, piv)]
        if stop_at is not None and len(pivots) >= stop_at:
            break
    return len(pivots)


def is_vertex(fn):
    n = fn.q - 1
    return rank_mod_prime(tight_rows(fn), n, stop_at=n) == n


def is_covered(fn):
    """Every interval covered, via additive triangles and additive edges."""
    q = fn.q
    add = [[fn.additive(x, y) for y in range(q)] for x in range(q)]
    parent = list(range(q))
    covered = [False] * q

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def join(spans, cover):
        roots = [find(z) for z in spans]
        root = min(roots)
        flag = cover or any(covered[r] for r in roots)
        for r in roots:
            parent[r] = root
        covered[root] = flag

    for x in range(q):
        x1 = (x + 1) % q
        for y in range(q):
            y1 = (y + 1) % q
            a, b, c, d = add[x][y], add[x1][y], add[x][y1], add[x1][y1]
            if a and b and c:      # lower triangle
                join((x, y, (x + y) % q), True)
            if c and d and b:      # upper triangle
                join((x, y, (x + y + 1) % q), True)
            if a and b:            # horizontal edge: x and x+y intervals
                join((x, (x + y) % q), False)
            if a and c:            # vertical edge: y and x+y intervals
                join((y, (x + y) % q), False)
            if c and b:            # diagonal edge: x and y intervals
                join((x, y), False)
    return all(covered[find(z)] for z in range(q))


def slope_count(fn):
    v, q = fn.values, fn.q
    return len({v[(x + 1) % q] - v[x] for x in range(q)})


def extremality_problem(fn):
    """None when fn is minimal, a vertex and covered (hence extreme)."""
    problem = minimality_problem(fn)
    if problem:
        return problem
    if not is_vertex(fn):
        return "not a vertex of the minimal-function polytope"
    if not is_covered(fn):
        return "some interval is not covered"
    return None


# -- workload checkers -------------------------------------------------------


def automorphism_image(fn, unit):
    """The function x -> fn(unit^-1 x), whose breakpoint is unit * f."""
    q = fn.q
    inv = pow(unit, -1, q)
    out = Fn.__new__(Fn)
    out.q = q
    out.f = unit * fn.f % q
    out.den = fn.den
    out.values = tuple(fn.values[inv * x % q] for x in range(q))
    return out


def check_enumerate(q, base_f, unit, base_vertices, image_vertices,
                    expected_count):
    """Vertex lists of P(q, base_f) and P(q, unit * base_f).

    The base list must have the reference count and consist of distinct
    vertices of the minimal-function polytope; the image list must be the
    image of the base list under x -> unit * x, an automorphism of the
    group that maps one polytope onto the other. Verified are the distinct
    base vertices that passed, plus the distinct image vertices that are
    the image of one of those.
    """
    problems = []
    if len(base_vertices) != expected_count:
        problems.append("f=%d: %d vertices, expected %d"
                        % (base_f, len(base_vertices), expected_count))
    base = [from_vertex(q, base_f, v) for v in base_vertices]
    if len({fn.key() for fn in base}) != len(base):
        problems.append("f=%d: repeated vertices" % base_f)
    passed = {}
    for i, fn in enumerate(base):
        problem = minimality_problem(fn)
        if problem is None and not is_vertex(fn):
            problem = "not a vertex of the minimal-function polytope"
        if problem is None:
            passed[fn.key()] = fn
        elif len(problems) < 10:
            problems.append("f=%d vertex %d: %s" % (base_f, i, problem))
    image_f = unit * base_f % q
    image = {from_vertex(q, image_f, v).key() for v in image_vertices}
    if len(image) != len(image_vertices):
        problems.append("f=%d: repeated vertices" % image_f)
    want = {automorphism_image(fn, unit).key() for fn in base}
    if image != want:
        problems.append("f=%d: %d vertices differ from the image of f=%d "
                        "under x -> %dx" % (image_f, len(image ^ want),
                                            base_f, unit))
    mapped = {automorphism_image(fn, unit).key() for fn in passed.values()}
    return problems, len(passed) + len(image & mapped)


def check_pattern(functions, q, f, min_slopes, expected_count):
    """Prescribed-pattern output: minimal, covered, enough slopes."""
    problems = []
    if len(functions) != expected_count:
        problems.append("%d functions, expected %d"
                        % (len(functions), expected_count))
    fns = [Fn(*fn) for fn in functions]
    if len({fn.key() for fn in fns}) != len(fns):
        problems.append("repeated functions")
    passed = set()
    for i, fn in enumerate(fns):
        if (fn.q, fn.f) != (q, f):
            problems.append("function %d: grid (%d, %d), expected (%d, %d)"
                            % (i, fn.q, fn.f, q, f))
            continue
        problem = minimality_problem(fn)
        if problem is None and not is_covered(fn):
            problem = "some interval is not covered"
        if problem is None and slope_count(fn) < min_slopes:
            problem = "%d slopes, expected at least %d" % (slope_count(fn),
                                                          min_slopes)
        if problem:
            problems.append("function %d: %s" % (i, problem))
        else:
            passed.add(fn.key())
    return problems, len(passed)


def check_search(functions, q, f, min_slopes, polytope_vertices):
    """Emitted set == the covered vertices with >= min_slopes slopes.

    polytope_vertices are all vertices of the minimal-function polytope
    P(q, f), found by a route other than the search; each emitted function
    is also certified extreme here on its own.
    """
    problems = []
    fns = [Fn(*fn) for fn in functions]
    emitted = {fn.key() for fn in fns}
    if len(emitted) != len(fns):
        problems.append("repeated functions")
    want = set()
    for coords in polytope_vertices:
        fn = from_vertex(q, f, coords)
        if slope_count(fn) >= min_slopes and is_covered(fn):
            want.add(fn.key())
    if emitted != want:
        problems.append("%d functions emitted, %d expected, %d differ"
                        % (len(emitted), len(want), len(emitted ^ want)))
    passed = set()
    for i, fn in enumerate(fns):
        problem = extremality_problem(fn)
        if problem is None and slope_count(fn) < min_slopes:
            problem = "%d slopes, expected at least %d" % (slope_count(fn),
                                                          min_slopes)
        if problem:
            problems.append("function %d: %s" % (i, problem))
        else:
            passed.add(fn.key())
    return problems, len(passed & want)
