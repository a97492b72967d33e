"""Exact simplex over bounded variables, built for warm restarts.

The engine keeps every constraint as a logical variable: a row a.x with
activity bounds [lo, up] becomes a variable s = a.x whose bounds are the
row bounds. The working dictionary expresses the m basic variables over
the fixed-width set of nonbasic slots (one per structural variable), so
the tableau stays skinny no matter how many rows pile up: m rows by
nslots columns.

All mutable state is integer; rationals (Q) appear only at the API
boundary. Row r is stored fraction-free as integer numerators D[r] over a
positive denominator den[r], with gcd(den[r], *D[r]) == 1, and a pivot
rewrites rows with integer multiply-adds only (integer-preserving pivots,
as in Edmonds' and Bareiss' elimination and in lrs). Values share one
positive denominator L, the lcm of every finite bound's denominator so
far; it only grows, rescaling every numerator. Nonbasic values N and all
bounds are integers over L. Basic row r has value B[r] over den[r]*L, and
B[r] == D[r].N because rows are homogeneous in the nonbasic slots, so a
pivot updates B[r] with its row's multiply-add and gcd division. Reduced
costs are numerators over one denominator. All denominators are positive,
so the ratio, bound and sign tests compare numerators directly. Rows are
replaced, never edited in place, so clones share unpivoted rows.

That shape makes the depth-first search cheap: cloning a state copies the
row list, adding a row appends one basic logical (still dual feasible),
and tightening bounds is repaired by Bland-rule dual pivots. All
arithmetic is exact; statuses are only ever "optimal" or "infeasible"
because every variable the callers create is bounded.
"""

from math import gcd

from .rationals import Q, QZERO

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class SimplexError(ValueError):
    """Internal invariant violation (cycling guard, unbounded direction)."""


def _pivot_guard(nrows, nslots):
    """Iteration cap of one primal or dual loop; reaching it is a bug."""
    return 1000 + 40 * (nrows + nslots) ** 2


def _reduced(row, den):
    """row / den in lowest terms, den > 0."""
    g = gcd(den, *row)
    if g > 1:
        return [x // g for x in row], den // g
    return row, den


class LpState:
    def __init__(self, structural_bounds):
        """structural_bounds: list of (lower, upper) pairs, None = unbounded.

        Each structural variable needs at least one finite bound to rest on.
        """
        self.nslots = len(structural_bounds)
        self.L = 1        # shared positive denominator of values and bounds
        self.lower = []   # var -> lower bound over L, or None
        self.upper = []   # var -> upper bound over L, or None
        self.nb = []      # slot -> var id
        self.N = []       # slot -> resting value over L
        self.slot_of = {}  # var id -> slot (when nonbasic)
        self.row_of = {}   # var id -> row (when basic)
        self.bs = []      # row -> var id
        self.B = []       # row -> value over den[r] * L, equal to D[r].N
        self.D = []       # row -> integer numerators over slots
        self.den = []     # row -> positive integer denominator
        for j, (lo, up) in enumerate(structural_bounds):
            lo, up = self._scaled_bounds(lo, up)
            if lo is None and up is None:
                raise SimplexError("structural variable %d has no finite bound" % j)
            self.lower.append(lo)
            self.upper.append(up)
            self.nb.append(j)
            self.N.append(lo if lo is not None else up)
            self.slot_of[j] = j

    # -- inspection ---------------------------------------------------

    @property
    def nvars(self):
        return len(self.lower)

    def value(self, var):
        row = self.row_of.get(var)
        if row is not None:
            return Q(self.B[row], self.den[row] * self.L)
        return Q(self.N[self.slot_of[var]], self.L)

    def point(self):
        return [self.value(j) for j in range(self.nslots)]

    def bounds(self, var):
        lo, up = self.lower[var], self.upper[var]
        return (None if lo is None else Q(lo, self.L),
                None if up is None else Q(up, self.L))

    # -- construction and mutation -------------------------------------

    def _scaled_bounds(self, lo, up):
        """lo and up as numerators over L, growing L for both first."""
        lo = None if lo is None else Q(lo)
        up = None if up is None else Q(up)
        L = self.L
        for b in (lo, up):
            if b is not None and L % b.denominator:
                L = L // gcd(L, b.denominator) * b.denominator
        if L != self.L:
            k = L // self.L
            self.L = L
            self.N = [x * k for x in self.N]
            self.B = [x * k for x in self.B]
            self.lower = [None if x is None else x * k for x in self.lower]
            self.upper = [None if x is None else x * k for x in self.upper]
        return (None if lo is None else lo.numerator * (L // lo.denominator),
                None if up is None else up.numerator * (L // up.denominator))

    def _express(self, coeffs):
        """sum coeffs[v]*x_v over the nonbasic slots, as (numerators, den)."""
        row = [0] * self.nslots
        den = 1
        for v, c in coeffs.items():
            if not c:
                continue
            c = Q(c)
            num, cden = c.numerator, c.denominator
            r = self.row_of.get(v)
            if r is not None:
                cden *= self.den[r]
            else:
                s = self.slot_of[v]
            # put row / den and num / cden (times D[r] when v is basic)
            # over one denominator
            common = den // gcd(den, cden) * cden
            scale = common // den
            if scale != 1:
                row = [x * scale for x in row]
            num *= common // cden
            den = common
            if r is not None:
                row = [x + num * y for x, y in zip(row, self.D[r])]
            else:
                row[s] += num
        return _reduced(row, den)

    def add_row(self, coeffs, lo, up):
        """Add the constraint lo <= sum coeffs[v]*x_v <= up.

        coeffs may reference structural variables and earlier logicals.
        Returns the id of the new logical variable; the row enters the
        basis immediately, which keeps the dictionary valid without any
        pivoting.
        """
        row, den = self._express(coeffs)
        lo, up = self._scaled_bounds(lo, up)
        var = self.nvars
        self.lower.append(lo)
        self.upper.append(up)
        self.row_of[var] = len(self.bs)
        self.bs.append(var)
        self.B.append(sum(x * y for x, y in zip(row, self.N) if x))
        self.D.append(row)
        self.den.append(den)
        return var

    def set_bounds(self, var, lo, up):
        lo, up = self._scaled_bounds(lo, up)
        self.lower[var] = lo
        self.upper[var] = up
        slot = self.slot_of.get(var)
        if slot is None:
            return
        val = self.N[slot]
        if lo is not None and val < lo:
            self._move_nonbasic(slot, lo)
        elif up is not None and val > up:
            self._move_nonbasic(slot, up)

    def _move_nonbasic(self, slot, target):
        delta = target - self.N[slot]
        if not delta:
            return
        D, B = self.D, self.B
        for r in range(len(self.bs)):
            c = D[r][slot]
            if c:
                B[r] += c * delta
        self.N[slot] = target

    def clone(self):
        other = LpState.__new__(LpState)
        other.nslots = self.nslots
        other.L = self.L
        other.lower = list(self.lower)
        other.upper = list(self.upper)
        other.nb = list(self.nb)
        other.N = list(self.N)
        other.slot_of = dict(self.slot_of)
        other.row_of = dict(self.row_of)
        other.bs = list(self.bs)
        other.B = list(self.B)
        other.D = list(self.D)
        other.den = list(self.den)
        return other

    # -- pivoting -------------------------------------------------------

    def _pivot(self, r, slot, target):
        """Swap basic row r with nonbasic slot; the leaver rests at target.

        target is a numerator over L. Returns the new row r as
        (numerators, denominator).
        """
        D, den, B = self.D, self.den, self.B
        row, d = D[r], den[r]
        piv = row[slot]
        # x_leave = row.x / d, solved for the entering slot:
        # x_enter = (d * x_leave - sum_{k != slot} row[k] * x_k) / piv.
        # gcd(d, *row) == 1, so the new row is already in lowest terms;
        # its value is newrow.N with N[slot] replaced by target.
        bnew = self.N[slot] * piv + target * d - B[r]
        if piv > 0:
            newrow = [-c for c in row]
            newrow[slot] = d
            m = piv
        else:
            newrow = list(row)
            newrow[slot] = -d
            m = -piv
            bnew = -bnew
        enter = self.nb[slot]
        leave = self.bs[r]
        nslot = self.N[slot]
        for i in range(len(self.bs)):
            if i == r:
                continue
            drow = D[i]
            b = drow[slot]
            if not b:
                continue
            e = den[i]
            # drow/e with b * x_enter / e replaced by (b/e) * newrow/m
            g = gcd(b, m)
            scale = m // g
            bval = B[i] - b * nslot
            b //= g
            if scale == 1:
                out = [x + b * y for x, y in zip(drow, newrow)]
            else:
                out = [x * scale + b * y for x, y in zip(drow, newrow)]
                e *= scale
                bval *= scale
            out[slot] = b * newrow[slot]
            bval += b * bnew
            g = gcd(e, *out)
            if g > 1:
                out = [x // g for x in out]
                e //= g
                bval //= g
            D[i] = out
            den[i] = e
            B[i] = bval
        D[r] = newrow
        den[r] = m
        B[r] = bnew
        self.bs[r] = enter
        self.nb[slot] = leave
        self.N[slot] = target
        del self.slot_of[enter]
        self.row_of[enter] = r
        del self.row_of[leave]
        self.slot_of[leave] = slot
        return newrow, m

    def _can_increase(self, slot):
        up = self.upper[self.nb[slot]]
        return up is None or self.N[slot] < up

    def _can_decrease(self, slot):
        lo = self.lower[self.nb[slot]]
        return lo is None or self.N[slot] > lo

    # -- feasibility (dual pivots, zero objective) ----------------------

    def restore_feasible(self):
        """Bland-rule dual pivots until no basic violates its bounds.

        Returns True on success, False when some row certifies emptiness.
        """
        guard = _pivot_guard(len(self.bs), self.nslots)
        for _ in range(guard):
            pick = None
            B, den, lower, upper = self.B, self.den, self.lower, self.upper
            for r in range(len(self.bs)):
                v = self.bs[r]
                bv = B[r]
                lo, up = lower[v], upper[v]
                if lo is not None and bv < lo * den[r]:
                    cand = (v, r, lo, 1)
                elif up is not None and bv > up * den[r]:
                    cand = (v, r, up, -1)
                else:
                    continue
                if pick is None or cand[0] < pick[0]:
                    pick = cand
            if pick is None:
                return True
            _, r, target, need = pick
            drow = self.D[r]
            enter = None
            for slot in range(self.nslots):
                c = drow[slot]
                if not c:
                    continue
                # delta sign for the entering slot: (target - value)/c
                rises = (c > 0) == (need > 0)
                if rises:
                    ok = self._can_increase(slot)
                else:
                    ok = self._can_decrease(slot)
                if ok and (enter is None or self.nb[slot] < self.nb[enter]):
                    enter = slot
            if enter is None:
                return False
            self._pivot(r, enter, target)
        raise SimplexError("dual simplex cycling guard tripped")

    # -- optimization ----------------------------------------------------

    def maximize(self, coeffs):
        """Maximize sum coeffs[v]*x_v. Returns (status, value or None).

        The state is left at the optimal point on success.
        """
        if not self.restore_feasible():
            return INFEASIBLE, None
        # reduced costs: numerators objd over one positive denominator
        objd, od = self._express(coeffs)
        guard = _pivot_guard(len(self.bs), self.nslots)
        degenerate_run = 0
        for _ in range(guard):
            enter = None
            best = None
            bland = degenerate_run >= 30
            for slot in range(self.nslots):
                d = objd[slot]
                if d > 0 and self._can_increase(slot):
                    direction = 1
                elif d < 0 and self._can_decrease(slot):
                    direction = -1
                else:
                    continue
                if bland:
                    key = self.nb[slot]
                    if best is None or key < best:
                        best = key
                        enter = (slot, direction)
                else:
                    key = d if d > 0 else -d
                    if best is None or key > best:
                        best = key
                        enter = (slot, direction)
            if enter is None:
                return OPTIMAL, sum((Q(c) * self.value(v)
                                     for v, c in coeffs.items()), QZERO)
            slot, direction = enter
            step, blocker = self._ratio_test(slot, direction)
            if step is None:
                raise SimplexError("unbounded direction; caller broke boundedness")
            degenerate_run = degenerate_run + 1 if step == 0 else 0
            if blocker is None:
                evar = self.nb[slot]
                bound = self.upper[evar] if direction > 0 else self.lower[evar]
                self._move_nonbasic(slot, bound)
            else:
                r, target = blocker
                newrow, m = self._pivot(r, slot, target)
                # refresh reduced costs with the same substitution:
                # objd/od + f/(od*m) * newrow, objd[slot] dropped
                f = objd[slot]
                if f:
                    objd[slot] = 0
                    objd = [x * m + f * y for x, y in zip(objd, newrow)]
                    objd, od = _reduced(objd, od * m)
        raise SimplexError("primal simplex cycling guard tripped")

    def minimize(self, coeffs):
        status, val = self.maximize({v: -Q(c) for v, c in coeffs.items()})
        if val is not None:
            val = -val
        return status, val

    def _ratio_test(self, slot, direction):
        """Largest step for the entering slot; returns (step, blocker).

        step is the step's numerator over a positive denominator, so only
        its sign and zeroness mean anything; None means unbounded.
        blocker None means the entering variable's own opposite bound is
        the tightest, i.e. a bound flip; otherwise blocker = (row, bound
        over L the leaving basic variable rests at).
        """
        evar = self.nb[slot]
        if direction > 0:
            own = self.upper[evar]
            sn = None if own is None else own - self.N[slot]
        else:
            own = self.lower[evar]
            sn = None if own is None else self.N[slot] - own
        sd = 1  # steps, in units of 1/L, compare as pairs sn / sd, sd > 0
        blocker = None
        tie = None
        D, den, B = self.D, self.den, self.B
        for r in range(len(self.bs)):
            c = D[r][slot]
            if not c:
                continue
            # the basic moves at rate c / den[r] per unit step, so it
            # reaches lim after (lim * den[r] - B[r]) / rate units of 1/L
            rate = c if direction > 0 else -c
            bvar = self.bs[r]
            lim = self.upper[bvar] if rate > 0 else self.lower[bvar]
            if lim is None:
                continue
            tn = lim * den[r] - B[r]
            td = rate
            if td < 0:
                tn, td = -tn, -td
            if tn < 0:
                tn = 0
            if sn is not None:
                cross = tn * sd - sn * td
                if cross > 0 or (cross == 0 and (blocker is None or bvar > tie)):
                    continue
            sn, sd = tn, td
            blocker = (r, lim)
            tie = bvar
        return sn, blocker
