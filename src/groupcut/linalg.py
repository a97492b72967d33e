"""Exact dense linear algebra kernels.

Small self-contained routines used across the package: integer row-space
rank with early termination, rational Gauss-Jordan for affine solution
sets, and the fraction-free Bareiss determinant. Matrices here are tiny
(hundreds of columns at most) so everything is plain lists; the point is
exactness, not asymptotics.
"""

from math import gcd

from .rationals import Q, QZERO, QONE


def integerize(row):
    """Scale a row of rationals/ints to coprime integers (sign preserved)."""
    den = 1
    for v in row:
        if isinstance(v, int):
            continue
        d = int(v.denominator)
        den = den // gcd(den, d) * d
    out = []
    for v in row:
        if isinstance(v, int):
            out.append(v * den)
        else:
            out.append(int(v.numerator) * (den // int(v.denominator)))
    g = gcd(*out)
    if g > 1:
        out = [v // g for v in out]
    return out


class RankTracker:
    """Incremental row-space rank over the integers.

    Rows are folded into an echelon basis one at a time; add_row reports
    whether the row increased the rank. Feeding rows until the rank hits a
    known ceiling and then stopping is the intended usage pattern.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivot_rows = {}  # leading column -> integer row

    @property
    def rank(self):
        return len(self.pivot_rows)

    def clone(self):
        """Independent copy; stored rows are immutable so they are shared."""
        other = RankTracker(self.ncols)
        other.pivot_rows = dict(self.pivot_rows)
        return other

    def add_row(self, row):
        work = integerize(row)
        for col in sorted(self.pivot_rows):
            lead = work[col]
            if not lead:
                continue
            piv = self.pivot_rows[col]
            plead = piv[col]
            work = [w * plead - p * lead for w, p in zip(work, piv)]
            g = gcd(*work)
            if g > 1:
                work = [w // g for w in work]
        for col, v in enumerate(work):
            if v:
                self.pivot_rows[col] = work
                return True
        return False


def matrix_rank(rows, ncols, stop_at=None):
    """Rank of the given rows; stops early once stop_at is reached."""
    tr = RankTracker(ncols)
    for row in rows:
        tr.add_row(row)
        if stop_at is not None and tr.rank >= stop_at:
            break
    return tr.rank


def solve_affine(rows, rhs, nvars):
    """Solution set of A x = b over the rationals.

    Returns (x0, basis) where x0 is one solution and basis spans the
    kernel of A, or None when the system is inconsistent. With no rows the
    whole space comes back (x0 = 0, standard basis).
    """
    aug = []
    for row, b in zip(rows, rhs):
        aug.append([Q(v) for v in row] + [Q(b)])
    pivot_cols = []
    r = 0
    for c in range(nvars):
        sel = None
        for i in range(r, len(aug)):
            if aug[i][c]:
                sel = i
                break
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        lead = aug[r][c]
        if lead != QONE:
            aug[r] = [v / lead for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][nvars]:
            return None
    x0 = [QZERO] * nvars
    for i, c in enumerate(pivot_cols):
        x0[c] = aug[i][nvars]
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(nvars):
        if free in pivot_set:
            continue
        vec = [QZERO] * nvars
        vec[free] = QONE
        for i, c in enumerate(pivot_cols):
            vec[c] = -aug[i][free]
        basis.append(vec)
    return x0, basis


def det_bareiss(matrix):
    """Determinant of a square integer matrix, fraction-free."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = None
            for i in range(k + 1, n):
                if a[i][k]:
                    swap = i
                    break
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]
