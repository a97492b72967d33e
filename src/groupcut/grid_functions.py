"""Periodic piecewise linear functions sampled on the grid {0, 1/q, ..., (q-1)/q}.

A GridFunction stores the q sampled values pi_0..pi_{q-1} of a function on
[0,1) extended periodically, together with the distinguished index f_index
(the grid point playing the role of the fractional right-hand side). The
subadditivity slack delta(x, y) = pi_x + pi_y - pi_{(x+y) mod q} is the
basic quantity everything else is built on: it vanishes exactly on additive
pairs, and minimality means pi_0 = 0, delta >= 0 everywhere, and the
reflection identity pi_x + pi_{(f-x) mod q} = 1.
"""

import json
from math import gcd

from .rationals import Q, QZERO, QONE, format_rational, lcm_denominators, parse_rational


class FunctionError(ValueError):
    """Bad construction data or file contents for a GridFunction."""


class GridFunction:
    __slots__ = ("q", "f_index", "values")

    def __init__(self, q, f_index, values):
        if q < 2:
            raise FunctionError("grid order must be at least 2, got %r" % q)
        if not 0 < f_index < q:
            raise FunctionError("f_index must lie in 1..q-1, got %r" % f_index)
        vals = tuple(Q(v) for v in values)
        if len(vals) != q:
            raise FunctionError("expected %d values, got %d" % (q, len(vals)))
        self.q = q
        self.f_index = f_index
        self.values = vals

    def __eq__(self, other):
        return (
            isinstance(other, GridFunction)
            and self.q == other.q
            and self.f_index == other.f_index
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.q, self.f_index, self.values))

    def __repr__(self):
        body = ", ".join(format_rational(v) for v in self.values)
        return "GridFunction(q=%d, f_index=%d, [%s])" % (self.q, self.f_index, body)

    def value(self, x):
        return self.values[x % self.q]

    def delta(self, x, y):
        """Subadditivity slack pi_x + pi_y - pi_{x+y}, indices mod q."""
        q = self.q
        return self.values[x % q] + self.values[y % q] - self.values[(x + y) % q]

    def evaluate(self, point):
        """Value of the periodic piecewise linear interpolation at a rational."""
        frac = point - (point.numerator // point.denominator)
        scaled = frac * self.q
        lo = scaled.numerator // scaled.denominator
        t = scaled - lo
        left = self.values[lo % self.q]
        if t == 0:
            return left
        right = self.values[(lo + 1) % self.q]
        return left + t * (right - left)

    def interval_slopes(self):
        """Slope of the interpolant on each of the q grid intervals."""
        q = self.q
        out = []
        for x in range(q):
            nxt = self.values[(x + 1) % q]
            out.append((nxt - self.values[x]) * q)
        return out

    def sort_key(self):
        return (self.q, self.f_index) + self.values


def gmic(q, f_index):
    """The classical two-slope mixed integer cut function on the q-grid.

    Rises linearly from 0 to 1 on [0, f] and falls linearly back to 0 on
    [f, 1], with f = f_index/q.
    """
    vals = []
    for x in range(q):
        if x <= f_index:
            vals.append(Q(x, f_index))
        else:
            vals.append(Q(q - x, q - f_index))
    return GridFunction(q, f_index, vals)


def integer_values(fn):
    """The values scaled over their common denominator, as integers."""
    den = lcm_denominators(fn.values)
    return [v.numerator * (den // v.denominator) for v in fn.values]


def is_subadditive(fn):
    """delta >= 0 on every pair, tested on the integer values."""
    keys = integer_values(fn)
    wrapped = keys * 2
    return all(kx + ky >= kz for x, kx in enumerate(keys)
               for ky, kz in zip(keys[x:], wrapped[2 * x:]))


def satisfies_symmetry(fn):
    q, f = fn.q, fn.f_index
    for x in range(q):
        if fn.values[x] + fn.values[(f - x) % q] != QONE:
            return False
    return True


def is_minimal(fn):
    """pi_0 = 0, subadditive, and symmetric about the f point."""
    return fn.values[0] == QZERO and satisfies_symmetry(fn) and is_subadditive(fn)


def restrict(fn, m):
    """Sample the interpolant on the m-times finer grid.

    Returns a GridFunction with order m*q and f_index m*f_index; the
    original values reappear at every m-th position.
    """
    if m < 1:
        raise FunctionError("refinement factor must be positive, got %r" % m)
    q = fn.q
    vals = []
    for j in range(m * q):
        base, off = divmod(j, m)
        left = fn.values[base]
        if off == 0:
            vals.append(left)
        else:
            right = fn.values[(base + 1) % q]
            vals.append(left + Q(off, m) * (right - left))
    return GridFunction(m * q, m * fn.f_index, vals)


def arithmetic_complexity(fn):
    """Least common denominator of the sampled values.

    Equivalently the smallest v with every value in (1/v)Z, which is the
    size of grid needed to represent the function exactly.
    """
    return lcm_denominators(fn.values)


def number_of_slopes(fn):
    return len(set(fn.interval_slopes()))


def apply_automorphism(fn, a):
    """Precompose with the group automorphism x -> a*x (gcd(a, q) = 1).

    The image has f_index = a*f_index mod q and inherits subadditivity and
    the reflection identity, so it maps minimal functions to minimal ones.
    """
    q = fn.q
    if gcd(a % q, q) != 1:
        raise FunctionError("%d is not a unit mod %d" % (a, q))
    inv = pow(a % q, -1, q)
    vals = [fn.values[(inv * x) % q] for x in range(q)]
    new_f = (a * fn.f_index) % q
    return GridFunction(q, new_f, vals)


def to_json_dict(fn):
    return {
        "q": fn.q,
        "f_index": fn.f_index,
        "values": [format_rational(v) for v in fn.values],
    }


def from_json_dict(data):
    try:
        q = int(data["q"])
        f_index = int(data["f_index"])
        raw = data["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FunctionError("malformed function record: %s" % exc) from exc
    return GridFunction(q, f_index, [parse_rational(s) for s in raw])


def save_function(fn, path):
    with open(path, "w") as fh:
        json.dump(to_json_dict(fn), fh)
        fh.write("\n")


def load_function(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FunctionError("not a function file: %s" % exc) from exc
    return from_json_dict(data)
