"""Extremality testing for grid functions.

A minimal function is extreme when it is not the midpoint of two distinct
minimal functions. At grid order q that reduces to three checks: minimality,
being a vertex of the minimal-function polytope (the additivity relations
that hold at the function pin it down), and all q intervals being covered
by the additivity complex. The last two read one additivity table.
"""

from typing import NamedTuple

from .complex2d import function_table, table_components
from .grid_functions import FunctionError, is_minimal, restrict
from .linalg import matrix_rank
from .polyhedra import _pi_row, symmetry_pairs


class ExtremalityResult(NamedTuple):
    extreme: bool
    minimal: bool
    vertex: bool
    covered: bool
    uncovered_intervals: tuple


def _certifying_rows(q, f_index, table):
    """Equality rows pinning fn, over value variables 1..q-1 (pi_0 fixed)."""
    rows = [_pi_row(q, [(x, 1), (partner, 1)])
            for x, partner in symmetry_pairs(q, f_index)]
    for x in range(q):
        row = table[x]
        for y in range(x, q):
            if row[y]:
                rows.append(_pi_row(q, [(x, 1), (y, 1), (x + y, -1)]))
    return [row for row in rows if any(row)]


def _is_vertex(fn, table):
    q = fn.q
    rows = _certifying_rows(q, fn.f_index, table)
    return matrix_rank(rows, q - 1, stop_at=q - 1) == q - 1


def is_polytope_vertex(fn):
    """Whether the equalities tight at fn determine it uniquely."""
    return _is_vertex(fn, function_table(fn))


def oversampling_vertex_test(fn, m):
    """Vertex test for the restriction of fn's interpolation to 1/(mq).

    For m >= 3 this decides extremality of the interpolation, so it serves
    as an independent oracle for is_extreme.
    """
    if m < 1:
        raise FunctionError("oversampling factor must be at least 1")
    return is_polytope_vertex(restrict(fn, m))


def is_extreme(fn):
    """Full extremality test with a certificate of what failed.

    extreme holds iff fn is minimal, is a vertex of the minimal-function
    polytope, and its additivity painting covers every interval.
    """
    minimal = is_minimal(fn)
    table = function_table(fn)
    vertex = _is_vertex(fn, table)
    partition = table_components(table)
    covered = partition.all_covered()
    uncovered = tuple(sorted(partition.uncovered_intervals()))
    return ExtremalityResult(
        extreme=minimal and vertex and covered,
        minimal=minimal,
        vertex=vertex,
        covered=covered,
        uncovered_intervals=uncovered,
    )
