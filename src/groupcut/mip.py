"""Mixed-integer models for hunting many-slope extreme functions.

The model couples a candidate grid function pi with a 0/1 painting of the
two-dimensional additivity complex: a binary per vertex, triangle and edge
(0 = additive, 1 = strict), slope variables with assignment binaries tying
every grid interval to one of k ordered slope values, and coverage binaries
that certify every interval is reachable from a directly covered one in a
bounded number of edge-transfer steps.

Nothing here solves anything.  ``emit_mip`` and ``emit_mip_2q`` write a
CPLEX-style LP text file for an external solver; ``parse_lp`` reads such a
file back so emitted models can be checked structurally; ``refind_function``
turns a solver solution file into an exact GridFunction for re-verification;
``function_assignment`` substitutes a known function into a model so its
feasibility can be confirmed row by row in exact arithmetic.

Only the x <= y half of the swap-symmetric binaries exists.  References to
the other half are canonicalized through the swap map, under which lower
triangles, upper triangles, diagonal edges and vertices keep their kind
while horizontal and vertical edges trade places.
"""

import math
import os
import re

from .complex2d import DEDGE, HEDGE, LOWER, UPPER, function_table, green_cells
from .grid_functions import GridFunction
from .polyhedra import symmetry_pairs
from .rationals import Q, lcm_denominators, parse_rational, snap_to_denominator

__all__ = [
    "MipError",
    "MipModel",
    "SolutionFile",
    "build_mip",
    "build_mip_2q",
    "emit_mip",
    "emit_mip_2q",
    "function_assignment",
    "mip_2q_filename",
    "mip_filename",
    "parse_lp",
    "parse_lp_string",
    "refind_function",
]

TYPE_COVERS = ("standard", "fulldim", "fulldim_covers")

_SENSES = ("<=", ">=", "=")

_BINARY_TOL = Q(1, 10 ** 6)


class MipError(ValueError):
    pass


# ---------------------------------------------------------------------------
# canonical variable names

def _vertex_var(q, x, y):
    x %= q
    y %= q
    if x > y:
        x, y = y, x
    return "p_%d_%d" % (x, y)


# painting variable prefix of each canonical edge or triangle kind
_CELL_PREFIX = {DEDGE: "d", LOWER: "l", UPPER: "u"}


def _face_var(prefix, q, x, y):
    """Lower/upper triangle or diagonal edge; swap keeps the kind."""
    x %= q
    y %= q
    if x > y:
        x, y = y, x
    return "%s_%d_%d" % (prefix, x, y)


def _hedge_var(q, x, y):
    x %= q
    y %= q
    if x <= y:
        return "h_%d_%d" % (x, y)
    return "v_%d_%d" % (y, x)


def _vedge_var(q, x, y):
    x %= q
    y %= q
    if x < y:
        return "v_%d_%d" % (x, y)
    return "h_%d_%d" % (y, x)


def _direct_cover_vars(q, z):
    """Triangle variables whose additivity directly covers interval z.

    A triangle covers z when one of its three projections is the interval
    [z, z+1]: first coordinate, second coordinate, or the wrapped sum (the
    sum projection of an upper triangle at (x, y) is x + y + 1).
    """
    z %= q
    names = {}
    for y in range(q):
        names[_face_var("l", q, z, y)] = None
        names[_face_var("u", q, z, y)] = None
    for x in range(q):
        names[_face_var("l", q, x, z)] = None
        names[_face_var("u", q, x, z)] = None
    for x in range(q):
        names[_face_var("l", q, x, (z - x) % q)] = None
        names[_face_var("u", q, x, (z - x - 1) % q)] = None
    return list(names)


def _transfer_edge_vars(q, x, z):
    """The three edges whose additivity moves coverage between x and z.

    Diagonal edge of cell (x, z) reflects interval x onto interval z; the
    horizontal edge at (x, z-x) and the vertical edge at (x-z, z) translate
    one onto the other.  Canonical names may coincide; duplicates are kept
    out by the caller's merge.
    """
    return (
        _face_var("d", q, x, z),
        _hedge_var(q, x, (z - x) % q),
        _vedge_var(q, (x - z) % q, z),
    )


# ---------------------------------------------------------------------------
# model container

class _VarSpec(object):
    __slots__ = ("kind", "lo", "hi")

    def __init__(self, kind, lo, hi):
        self.kind = kind
        self.lo = lo
        self.hi = hi

    def as_tuple(self):
        return (self.kind, self.lo, self.hi)


class MipModel:
    """A linear 0/1 model: variables with bounds, named rows, an objective.

    Rows are stored with integer coefficients and integer right-hand sides;
    ``add_row`` clears rational input by the least common denominator, which
    leaves the feasible set unchanged.
    """

    def __init__(self, q, f_index, k, maxstep, m, type_cover, a_index=None):
        self.q = q
        self.f_index = f_index
        self.k = k
        self.maxstep = maxstep
        self.m = m
        self.type_cover = type_cover
        self.a_index = a_index
        self.vars = {}
        self.rows = []
        self.objective = ()

    @property
    def epsilon(self):
        """Strictness margin for white vertices and for slope gaps."""
        return Q(1, self.m)

    def add_variable(self, name, kind, lo=None, hi=None):
        if name in self.vars:
            raise MipError("duplicate variable %r" % name)
        self.vars[name] = _VarSpec(kind, lo, hi)

    def fix_variable(self, name, value):
        spec = self.vars[name]
        spec.lo = value
        spec.hi = value

    def add_row(self, name, terms, sense, rhs):
        if sense not in _SENSES:
            raise MipError("unknown row sense %r" % sense)
        merged = {}
        for coeff, var in terms:
            if var not in self.vars:
                raise MipError("row %s references unknown variable %r" % (name, var))
            merged[var] = merged.get(var, 0) + Q(coeff)
        rhs = Q(rhs)
        scale = lcm_denominators([c for c in merged.values()] + [rhs])
        cleaned = tuple(
            (int(c * scale), var) for var, c in merged.items() if c != 0
        )
        self.rows.append((name, cleaned, sense, int(rhs * scale)))

    def set_objective(self, terms):
        merged = {}
        for coeff, var in terms:
            if var not in self.vars:
                raise MipError("objective references unknown variable %r" % var)
            merged[var] = merged.get(var, 0) + Q(coeff)
        scale = lcm_denominators(list(merged.values()) or [Q(0)])
        self.objective = tuple(
            (int(c * scale), var) for var, c in merged.items() if c != 0
        )

    def count_rows(self, prefix):
        return sum(1 for name, _, _, _ in self.rows if name.startswith(prefix))

    def binary_names(self):
        return [n for n, spec in self.vars.items() if spec.kind == "binary"]

    def check_assignment(self, assignment):
        """Exact feasibility check; returns a list of violation messages."""
        out = []
        vals = {}
        for name, spec in self.vars.items():
            if name not in assignment:
                raise MipError("assignment misses variable %r" % name)
            v = Q(assignment[name])
            vals[name] = v
            if spec.kind == "binary" and v not in (0, 1):
                out.append("%s = %s is not 0/1" % (name, v))
            if spec.lo is not None and v < spec.lo:
                out.append("%s = %s below lower bound %s" % (name, v, spec.lo))
            if spec.hi is not None and v > spec.hi:
                out.append("%s = %s above upper bound %s" % (name, v, spec.hi))
        for name, terms, sense, rhs in self.rows:
            lhs = sum(c * vals[var] for c, var in terms)
            ok = (
                lhs <= rhs if sense == "<=" else
                lhs >= rhs if sense == ">=" else
                lhs == rhs
            )
            if not ok:
                out.append("%s: %s %s %s fails" % (name, lhs, sense, rhs))
        return out

    def __eq__(self, other):
        if not isinstance(other, MipModel):
            return NotImplemented
        return (
            (self.q, self.f_index, self.k, self.maxstep, self.m,
             self.type_cover, self.a_index)
            == (other.q, other.f_index, other.k, other.maxstep, other.m,
                other.type_cover, other.a_index)
            and {n: s.as_tuple() for n, s in self.vars.items()}
            == {n: s.as_tuple() for n, s in other.vars.items()}
            and self.rows == other.rows
            and self.objective == other.objective
        )

    def __repr__(self):
        return "MipModel(q=%d, f_index=%d, k=%d, vars=%d, rows=%d)" % (
            self.q, self.f_index, self.k, len(self.vars), len(self.rows))

    def to_lp_string(self):
        return _write_lp(self)

    def write(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_lp_string())


# ---------------------------------------------------------------------------
# model construction

def _check_args(q, f_index, k, maxstep, m):
    for label, value in (("q", q), ("f_index", f_index), ("k", k),
                         ("maxstep", maxstep), ("m", m)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise MipError("%s must be an integer, got %r" % (label, value))
    if q < 2:
        raise MipError("grid order must be at least 2, got %r" % q)
    if not 0 < f_index < q:
        raise MipError("f_index must lie in 1..q-1, got %r" % f_index)
    if not 1 <= k <= q:
        raise MipError("slope count must lie in 1..q, got %r" % k)
    if maxstep < 0:
        raise MipError("maxstep must be nonnegative, got %r" % maxstep)
    if m < 2:
        raise MipError("strictness divisor m must be at least 2, got %r" % m)


def build_mip(q, f_index, k, maxstep, m, type_cover="standard",
              objective="slope_gap", objective_weights=None):
    """Assemble the k-slope search model without writing it anywhere."""
    _check_args(q, f_index, k, maxstep, m)
    if type_cover not in TYPE_COVERS:
        raise MipError("unknown cover type %r" % (type_cover,))
    return _assemble(q, f_index, k, maxstep, m, type_cover,
                     objective, objective_weights, uncovered=(), edges=())


def build_mip_2q(q, f_index, a_index, k, maxstep, m,
                 objective="slope_gap", objective_weights=None):
    """Standard model specialised to one uncovered reflection pair.

    Intervals [a-1, a] and [f-a, f-a+1] are pinned uncovered at every
    saturation step, everything else is required to end covered, and the
    horizontal edge at height f - 2a + 1 joining the two pinned intervals
    is prescribed additive.
    """
    _check_args(q, f_index, k, maxstep, m)
    if not isinstance(a_index, int) or isinstance(a_index, bool):
        raise MipError("a_index must be an integer, got %r" % (a_index,))
    if not 0 < a_index < f_index:
        raise MipError("a_index must lie in 1..f_index-1, got %r" % a_index)
    t = f_index - 2 * a_index + 1
    if t <= 0:
        raise MipError(
            "translation point f_index - 2*a_index + 1 = %d is not positive" % t)
    uncovered = sorted({(a_index - 1) % q, (f_index - a_index) % q})
    edges = tuple((x, t) for x in (a_index - 1, a_index))
    return _assemble(q, f_index, k, maxstep, m, "standard",
                     objective, objective_weights,
                     uncovered=tuple(uncovered), edges=edges, a_index=a_index)


def _assemble(q, f_index, k, maxstep, m, type_cover,
              objective, objective_weights, uncovered, edges, a_index=None):
    model = MipModel(q, f_index, k, maxstep, m, type_cover, a_index=a_index)
    indirect = type_cover != "fulldim_covers" and maxstep >= 1
    laststep = maxstep if type_cover != "fulldim_covers" else 0

    for x in range(q):
        model.add_variable("pi_%d" % x, "continuous", Q(0), Q(1))
    model.fix_variable("pi_0", Q(0))
    for j in range(1, k + 1):
        model.add_variable("s_%d" % j, "continuous", Q(-q), Q(q))
    for x in range(q):
        for y in range(x, q):
            model.add_variable("p_%d_%d" % (x, y), "binary")
    for prefix in ("l", "u", "d"):
        for x in range(q):
            for y in range(x, q):
                model.add_variable("%s_%d_%d" % (prefix, x, y), "binary")
    for x in range(q):
        for y in range(x, q):
            model.add_variable("h_%d_%d" % (x, y), "binary")
    for x in range(q):
        for y in range(x + 1, q):
            model.add_variable("v_%d_%d" % (x, y), "binary")
    for x in range(q):
        for j in range(1, k + 1):
            model.add_variable("delta_%d_%d" % (x, j), "binary")
    for z in range(q):
        for i in range(laststep + 1):
            model.add_variable("c_%d_%d" % (z, i), "binary")
    if indirect:
        for x in range(q):
            for z in range(q):
                model.add_variable("g_%d_%d" % (x, z), "binary")
        for i in range(1, maxstep + 1):
            for x in range(q):
                for z in range(q):
                    model.add_variable("w_%d_%d_%d" % (x, z, i), "binary")

    for z in range(q):
        if z in uncovered:
            for i in range(laststep + 1):
                model.fix_variable("c_%d_%d" % (z, i), 1)
        elif type_cover == "fulldim_covers":
            model.fix_variable("c_%d_0" % z, 0)
        else:
            model.fix_variable("c_%d_%d" % (z, laststep), 0)

    _add_symmetry_rows(model)
    _add_subadditivity_rows(model)
    _add_slope_rows(model)
    _add_inclusion_rows(model)
    _add_direct_cover_rows(model)
    if indirect:
        _add_transfer_rows(model)
    if type_cover == "fulldim":
        _add_isolation_rows(model)
    for x, t in edges:
        model.add_row("edge_%d" % (x % q,), _delta_terms(q, x, t), "=", 0)
    _set_objective(model, objective, objective_weights)
    return model


def _delta_terms(q, x, y):
    terms = [(1, "pi_%d" % (x % q)), (1, "pi_%d" % (y % q)),
             (-1, "pi_%d" % ((x + y) % q))]
    return terms


def _add_symmetry_rows(model):
    q = model.q
    for x, partner in symmetry_pairs(q, model.f_index):
        terms = [(1, "pi_%d" % x), (1, "pi_%d" % partner)]
        model.add_row("sym_%d" % x, terms, "=", 1)


def _add_subadditivity_rows(model):
    """Subadditivity slack at least epsilon when white, zero when additive."""
    q = model.q
    m = model.m
    for x in range(q):
        for y in range(x, q):
            p = "p_%d_%d" % (x, y)
            delta = _delta_terms(q, x, y)
            lo = [(m * c, var) for c, var in delta] + [(-1, p)]
            model.add_row("sub_lo_%d_%d" % (x, y), lo, ">=", 0)
            hi = list(delta) + [(-2, p)]
            model.add_row("sub_hi_%d_%d" % (x, y), hi, "<=", 0)


def _add_slope_rows(model):
    q = model.q
    k = model.k
    m = model.m
    for j in range(1, k):
        model.add_row("ord_%d" % j,
                      [(m, "s_%d" % j), (-m, "s_%d" % (j + 1))], ">=", 1)
    for x in range(q):
        terms = [(1, "delta_%d_%d" % (x, j)) for j in range(1, k + 1)]
        model.add_row("asg_%d" % x, terms, "=", 1)
    for x in range(q):
        rise = [(q, "pi_%d" % x), (-q, "pi_%d" % ((x + 1) % q))]
        for j in range(1, k + 1):
            d = "delta_%d_%d" % (x, j)
            up = [(1, "s_%d" % j)] + rise + [(2 * q, d)]
            model.add_row("lnk_hi_%d_%d" % (x, j), up, "<=", 2 * q)
            dn = [(-1, "s_%d" % j)] + [(-c, v) for c, v in rise] + [(2 * q, d)]
            model.add_row("lnk_lo_%d_%d" % (x, j), dn, "<=", 2 * q)
    for j in range(1, k + 1):
        terms = [(1, "delta_%d_%d" % (x, j)) for x in range(q)]
        model.add_row("use_%d" % j, terms, ">=", 1)


def _inclusion(model, face, corners):
    """face is additive exactly when every corner vertex is."""
    q = model.q
    names = [_vertex_var(q, cx, cy) for cx, cy in corners]
    seen = []
    for p in names:
        if p not in seen:
            seen.append(p)
            model.add_row("inc_%s_%s" % (face, p),
                          [(1, face), (-1, p)], ">=", 0)
    terms = [(1, face)] + [(-1, p) for p in names]
    model.add_row("inc_%s_sum" % face, terms, "<=", 0)


def _add_inclusion_rows(model):
    q = model.q
    for x in range(q):
        for y in range(x, q):
            a, b, c, d = (x, y), (x, y + 1), (x + 1, y), (x + 1, y + 1)
            _inclusion(model, "l_%d_%d" % (x, y), (a, b, c))
            _inclusion(model, "u_%d_%d" % (x, y), (b, d, c))
            _inclusion(model, "h_%d_%d" % (x, y), (a, c))
            if x < y:
                _inclusion(model, "v_%d_%d" % (x, y), (a, b))
            _inclusion(model, "d_%d_%d" % (x, y), (b, c))


def _add_direct_cover_rows(model):
    q = model.q
    for z in range(q):
        c = "c_%d_0" % z
        cover = _direct_cover_vars(q, z)
        for idx, t in enumerate(cover):
            model.add_row("cov_%d_%d" % (z, idx), [(1, c), (-1, t)], "<=", 0)
        terms = [(1, c)] + [(-1, t) for t in cover]
        model.add_row("cov_%d_lb" % z, terms, ">=", 1 - len(cover))


def _add_transfer_rows(model):
    """Edge-connection binaries and per-step coverage saturation."""
    q = model.q
    for x in range(q):
        for z in range(q):
            g = "g_%d_%d" % (x, z)
            seen = []
            for t in _transfer_edge_vars(q, x, z):
                if t not in seen:
                    seen.append(t)
                    model.add_row("con_%s_%s" % (g, t),
                                  [(1, g), (-1, t)], "<=", 0)
            terms = [(1, g)] + [(-1, t)
                                for t in _transfer_edge_vars(q, x, z)]
            model.add_row("con_%s_lb" % g, terms, ">=", -2)
    for i in range(1, model.maxstep + 1):
        for z in range(q):
            ci = "c_%d_%d" % (z, i)
            prev = "c_%d_%d" % (z, i - 1)
            model.add_row("sat_%s_mono" % ci, [(1, ci), (-1, prev)], "<=", 0)
            bulk = [(1, ci), (-1, prev)]
            for x in range(q):
                w = "w_%d_%d_%d" % (x, z, i)
                g = "g_%d_%d" % (x, z)
                cx = "c_%d_%d" % (x, i - 1)
                model.add_row("stp_%s_g" % w, [(1, w), (-1, g)], ">=", 0)
                model.add_row("stp_%s_c" % w, [(1, w), (-1, cx)], ">=", 0)
                model.add_row("stp_%s_ub" % w,
                              [(1, w), (-1, g), (-1, cx)], "<=", 0)
                model.add_row("sat_%s_%d" % (ci, x),
                              [(1, ci), (-1, w)], "<=", 0)
                bulk.append((-1, w))
            model.add_row("sat_%s_lb" % ci, bulk, ">=", -q)


def _add_isolation_rows(model):
    """No additive vertex whose six surrounding triangles are all white.

    Vertices on the two axes and on the reflection diagonal are exempt:
    their additivities are forced by minimality, not by the painting.
    """
    q = model.q
    f = model.f_index
    for x in range(q):
        for y in range(x, q):
            if x % q == 0 or y % q == 0 or (x + y) % q == f:
                continue
            terms = [(1, _vertex_var(q, x, y))]
            for tx, ty in ((x, y), (x - 1, y), (x, y - 1)):
                terms.append((-1, _face_var("l", q, tx, ty)))
            for tx, ty in ((x, y - 1), (x - 1, y - 1), (x - 1, y)):
                terms.append((-1, _face_var("u", q, tx, ty)))
            model.add_row("iso_%d_%d" % (x, y), terms, ">=", -5)


def _set_objective(model, objective, weights):
    k = model.k
    q = model.q
    if objective == "slope_gap":
        if weights is not None:
            raise MipError("slope_gap objective takes no weights")
        model.set_objective([(1, "s_1"), (-1, "s_%d" % k)])
        return
    if objective == "weighted_slope_gaps":
        if weights is None or len(weights) != k - 1:
            raise MipError("weighted_slope_gaps needs k-1 weights")
        terms = []
        for j, w in enumerate(weights, start=1):
            terms.append((Q(w), "s_%d" % j))
            terms.append((-Q(w), "s_%d" % (j + 1)))
        model.set_objective(terms)
        return
    if objective in ("weighted_slack", "weighted_strict"):
        if weights is None:
            raise MipError("%s needs a {(x, y): weight} mapping" % objective)
        terms = []
        for (x, y), w in sorted(weights.items()):
            if not 0 <= x <= y <= q - 1:
                raise MipError("weight pair (%r, %r) is not canonical" % (x, y))
            if objective == "weighted_slack":
                terms.extend((Q(w) * c, var) for c, var in _delta_terms(q, x, y))
            else:
                terms.append((Q(w), "p_%d_%d" % (x, y)))
        model.set_objective(terms)
        return
    raise MipError("unknown objective %r" % (objective,))


# ---------------------------------------------------------------------------
# file names and emitters

def mip_filename(q, f_index, k, m, type_cover="standard"):
    if type_cover == "standard":
        return "%dslope_q%d_f%d_m%d.lp" % (k, q, f_index, m)
    return "%dslope_q%d_f%d_%s_m%d.lp" % (k, q, f_index, type_cover, m)


def mip_2q_filename(q, f_index, a_index, k, maxstep, m):
    return "mip_q%d_f%d_a%d_%dslope_%dmaxstep_m%d.lp" % (
        q, f_index, a_index, k, maxstep, m)


def _resolve_path(path, default_name):
    if os.path.isdir(path) or path.endswith(os.sep):
        return os.path.join(path, default_name)
    return path


def emit_mip(q, f_index, k, maxstep, m, type_cover, path,
             objective="slope_gap", objective_weights=None):
    """Write the k-slope model as an LP file; returns the path written.

    A directory path gets the canonical file name appended.
    """
    model = build_mip(q, f_index, k, maxstep, m, type_cover,
                      objective, objective_weights)
    target = _resolve_path(path, mip_filename(q, f_index, k, m, type_cover))
    model.write(target)
    return target


def emit_mip_2q(q, f_index, a_index, k, maxstep, m, path,
                objective="slope_gap", objective_weights=None):
    model = build_mip_2q(q, f_index, a_index, k, maxstep, m,
                         objective, objective_weights)
    target = _resolve_path(
        path, mip_2q_filename(q, f_index, a_index, k, maxstep, m))
    model.write(target)
    return target


# ---------------------------------------------------------------------------
# LP text writer

_WRAP = 78


def _term_words(terms):
    words = []
    for idx, (coeff, var) in enumerate(terms):
        mag = abs(coeff)
        if idx == 0:
            sign = "-" if coeff < 0 else ""
            word = sign + ("%d %s" % (mag, var) if mag != 1 else var)
        else:
            sign = "-" if coeff < 0 else "+"
            word = "%s %s" % (sign, "%d %s" % (mag, var) if mag != 1 else var)
        words.append(word)
    return words


def _wrap_line(lead, words):
    lines = []
    cur = lead
    for word in words:
        if len(cur) + 1 + len(word) > _WRAP and cur.strip():
            lines.append(cur)
            cur = "  " + word
        else:
            cur = cur + " " + word
    lines.append(cur)
    return lines


def _format_bound(value):
    if value.denominator != 1:
        raise MipError("non-integer bound %s" % (value,))
    return str(int(value))


def _write_lp(model):
    out = []
    head = "\\ mip q=%d f=%d k=%d maxstep=%d m=%d type=%s" % (
        model.q, model.f_index, model.k, model.maxstep, model.m,
        model.type_cover)
    if model.a_index is not None:
        head += " a=%d" % model.a_index
    out.append(head)
    out.append("Maximize")
    obj_words = _term_words(model.objective) if model.objective else ["0", "pi_0"]
    out.extend(_wrap_line(" obj:", obj_words))
    out.append("Subject To")
    for name, terms, sense, rhs in model.rows:
        words = _term_words(terms) + [sense, str(rhs)]
        out.extend(_wrap_line(" %s:" % name, words))
    out.append("Bounds")
    for name, spec in model.vars.items():
        if spec.lo is not None and spec.lo == spec.hi:
            out.append(" %s = %s" % (name, _format_bound(spec.lo)))
        elif spec.kind == "continuous":
            out.append(" %s <= %s <= %s" % (
                _format_bound(spec.lo), name, _format_bound(spec.hi)))
    out.append("Binaries")
    out.extend(_wrap_line(" ", [n for n in model.binary_names()]))
    out.append("End")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# LP text reader

_TOKEN_RE = re.compile(r"<=|>=|=|[+\-:]|[A-Za-z_][A-Za-z0-9_]*|\d+")

_HEAD_RE = re.compile(
    r"\\ mip q=(\d+) f=(\d+) k=(\d+) maxstep=(\d+) m=(\d+) type=(\w+)"
    r"(?: a=(\d+))?")

_BOUND_RANGE_RE = re.compile(
    r"^\s*(-?\d+)\s*<=\s*([A-Za-z_][A-Za-z0-9_]*)\s*<=\s*(-?\d+)\s*$")
_BOUND_FIX_RE = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(-?\d+)\s*$")


def parse_lp(path):
    with open(path) as handle:
        return parse_lp_string(handle.read())


def parse_lp_string(text):
    """Read back a file produced by this module into a MipModel.

    Understands exactly the dialect the writer emits: a metadata comment,
    Maximize / Subject To / Bounds / Binaries / End sections, named rows
    with integer coefficients, and integer bounds.
    """
    meta = _HEAD_RE.match(text)
    if meta is None:
        raise MipError("missing or malformed model header comment")
    q, f_index, k, maxstep, m = (int(meta.group(i)) for i in range(1, 6))
    a_index = int(meta.group(7)) if meta.group(7) else None
    model = MipModel(q, f_index, k, maxstep, m, meta.group(6), a_index=a_index)

    sections = {"maximize": [], "subject to": [], "bounds": [], "binaries": []}
    current = None
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if not line.strip():
            continue
        lowered = line.strip().lower()
        if lowered in ("maximize", "subject to", "bounds", "binaries", "end"):
            current = None if lowered == "end" else lowered
            continue
        if current is None:
            raise MipError("line outside any section: %r" % line)
        sections[current].append(line)

    def register(name):
        if name not in model.vars:
            model.add_variable(name, "continuous")

    rows = _parse_rows(" ".join(sections["subject to"]), register)
    objective = _parse_rows(" ".join(sections["maximize"]), register)
    if len(objective) != 1 or objective[0][0] != "obj":
        raise MipError("expected a single objective row named obj")
    for line in sections["bounds"]:
        got = _BOUND_RANGE_RE.match(line)
        if got:
            lo, name, hi = got.groups()
            register(name)
            model.vars[name].lo = Q(int(lo))
            model.vars[name].hi = Q(int(hi))
            continue
        got = _BOUND_FIX_RE.match(line)
        if got:
            name, value = got.groups()
            register(name)
            model.fix_variable(name, Q(int(value)))
            continue
        raise MipError("bad bounds line %r" % line)
    for token in " ".join(sections["binaries"]).split():
        register(token)
        model.vars[token].kind = "binary"
        if model.vars[token].lo is not None and model.vars[token].lo == model.vars[token].hi:
            fixed = int(model.vars[token].lo)
            model.vars[token].lo = fixed
            model.vars[token].hi = fixed
    for name, terms, sense, rhs in rows:
        if sense is None:
            raise MipError("row %s has no relation" % name)
        model.rows.append((name, terms, sense, rhs))
    obj_terms = objective[0][1]
    if obj_terms == ((0, "pi_0"),):
        obj_terms = ()
    model.objective = tuple(t for t in obj_terms if t[0] != 0)
    return model


def _parse_rows(text, register):
    """Split a token stream into (name, terms, sense, rhs) rows."""
    tokens = _TOKEN_RE.findall(text)
    rows = []
    pos = 0
    n = len(tokens)
    while pos < n:
        name = tokens[pos]
        if pos + 1 >= n or tokens[pos + 1] != ":":
            raise MipError("expected a row label near %r" % name)
        pos += 2
        terms = []
        sense = None
        rhs = 0
        sign = 1
        coeff = None
        while pos < n:
            tok = tokens[pos]
            if tok == ":" :
                raise MipError("stray label separator in row %s" % name)
            if tok in _SENSES:
                sense = tok
                pos += 1
                sign = 1
                continue
            if tok == "+":
                sign = 1
                pos += 1
                continue
            if tok == "-":
                sign = -sign
                pos += 1
                continue
            if tok.isdigit():
                if sense is not None:
                    rhs = sign * int(tok)
                    pos += 1
                    break
                coeff = sign * int(tok)
                pos += 1
                continue
            if pos + 1 < n and tokens[pos + 1] == ":":
                break
            if sense is not None:
                raise MipError("unexpected token %r after relation in %s"
                               % (tok, name))
            register(tok)
            terms.append((sign if coeff is None else coeff, tok))
            sign = 1
            coeff = None
            pos += 1
        rows.append((name, tuple(terms), sense, rhs))
    return rows


# ---------------------------------------------------------------------------
# solution files and function recovery

class SolutionFile:
    """Variable values reported by an external solver.

    Plain text, one "name value" pair per line; lines starting with '#'
    are comments.  Values may be decimals or p/q rationals.
    """

    def __init__(self, values):
        self.values = dict(values)

    def __contains__(self, name):
        return name in self.values

    @classmethod
    def read(cls, path):
        values = {}
        with open(path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise MipError("line %d is not 'name value': %r"
                                   % (lineno, raw.rstrip("\n")))
                values[fields[0]] = fields[1]
        return cls(values)

    def value(self, name):
        try:
            raw = self.values[name]
        except KeyError:
            raise MipError("solution has no variable %r" % name) from None
        if isinstance(raw, str):
            return parse_rational(raw)
        return Q(raw)

    def binary(self, name):
        v = self.value(name)
        rounded = int(v + Q(1, 2)) if v >= 0 else -int(-v + Q(1, 2))
        if abs(v - rounded) > _BINARY_TOL:
            raise MipError("%s = %s is not within 1e-6 of an integer"
                           % (name, v))
        if rounded not in (0, 1):
            raise MipError("%s rounds to %d, not a 0/1 value"
                           % (name, rounded))
        return rounded


def refind_function(solution, q, f_index):
    """Rationalize the pi values of a solver solution into a GridFunction.

    Each value is snapped to the nearest rational with denominator at most
    10^ceil(q/4); a value farther than 1e-6 from its snap is refused.  The
    caller re-verifies minimality and extremality exactly; nothing about
    the solver's claim is trusted here.
    """
    values = []
    for x in range(q):
        name = "pi_%d" % x
        if name not in solution:
            raise MipError("solution is missing %s" % name)
        raw = solution.value(name)
        snapped = snap_to_denominator(raw, 10 ** math.ceil(q / 4))
        if abs(snapped - raw) > _BINARY_TOL:
            raise MipError("cannot rationalize %s = %s (best snap %s)"
                           % (name, raw, snapped))
        values.append(snapped)
    return GridFunction(q, f_index, values)


# ---------------------------------------------------------------------------
# substituting a known function into a model

def function_assignment(model, fn):
    """Value every model variable from an exact grid function.

    The function must live on the model's grid, use exactly k distinct
    slopes, and be covered the way the model's cover type demands; the
    painting binaries are read off the additivity pattern, coverage
    binaries from its saturation.  Feed the result to check_assignment to
    confirm feasibility in exact arithmetic.
    """
    q = model.q
    if fn.q != q or fn.f_index != model.f_index:
        raise MipError("function grid (q=%d, f=%d) does not match model"
                       % (fn.q, fn.f_index))
    assignment = {}
    for x in range(q):
        assignment["pi_%d" % x] = fn.values[x]

    slopes = fn.interval_slopes()
    ordered = sorted(set(slopes), reverse=True)
    if len(ordered) != model.k:
        raise MipError("function has %d distinct slopes, model wants %d"
                       % (len(ordered), model.k))
    for j, s in enumerate(ordered, start=1):
        assignment["s_%d" % j] = s
    for x in range(q):
        j = ordered.index(slopes[x]) + 1
        for jj in range(1, model.k + 1):
            assignment["delta_%d_%d" % (x, jj)] = 1 if jj == j else 0

    table = function_table(fn)
    assignment.update(
        (("p_%d_%d" % (x, y)), 0 if table[x][y] else 1)
        for x in range(q) for y in range(x, q))
    for x in range(q):
        for y in range(x, q):
            for prefix in ("luhvd" if x < y else "luhd"):
                assignment["%s_%d_%d" % (prefix, x, y)] = 1
    for kind, x, y in green_cells(table):
        if kind == HEDGE:
            assignment[_hedge_var(q, x, y)] = 0
        else:
            assignment[_face_var(_CELL_PREFIX[kind], q, x, y)] = 0

    uncovered = [z for z in range(q)
                 if all(assignment[t] for t in _direct_cover_vars(q, z))]
    cover = {("c_%d_0" % z): (1 if z in uncovered else 0) for z in range(q)}
    assignment.update(cover)
    if model.type_cover == "fulldim_covers":
        if uncovered:
            raise MipError("intervals %r are not directly covered"
                           % uncovered)
        return assignment

    if model.maxstep >= 1:
        for x in range(q):
            for z in range(q):
                vals = [assignment[t] for t in _transfer_edge_vars(q, x, z)]
                assignment["g_%d_%d" % (x, z)] = min(vals)
    for i in range(1, model.maxstep + 1):
        for z in range(q):
            still = assignment["c_%d_%d" % (z, i - 1)]
            for x in range(q):
                w = max(assignment["g_%d_%d" % (x, z)],
                        assignment["c_%d_%d" % (x, i - 1)])
                assignment["w_%d_%d_%d" % (x, z, i)] = w
                if w == 0:
                    still = 0
            assignment["c_%d_%d" % (z, i)] = still
    bad = [z for z in range(q)
           if assignment["c_%d_%d" % (z, model.maxstep)] == 1
           and model.vars["c_%d_%d" % (z, model.maxstep)].lo != 1]
    if bad:
        raise MipError("intervals %r stay uncovered after %d transfer steps"
                       % (bad, model.maxstep))
    return assignment
