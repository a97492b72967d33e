"""Exact simplex over bounded variables, built for warm restarts.

The engine keeps every constraint as a logical variable: a row a.x with
activity bounds [lo, up] becomes a variable s = a.x whose bounds are the
row bounds. The working dictionary expresses the m basic variables over
the fixed-width set of nonbasic slots (one per structural variable), so
the tableau stays skinny no matter how many rows pile up: m rows by
n_structural columns.

Each dictionary row is stored fraction-free: integer numerators D[r] over
one positive integer denominator den[r], reduced by a single gcd after
every update so that gcd(den[r], *D[r]) == 1. A pivot rewrites rows with
integer multiply-adds only (integer-preserving pivots, as in Edmonds'
and Bareiss' elimination and in lrs). Because den[r] > 0, a numerator
has the sign of the coefficient it stands for, so the ratio test and the
sign tests read the numerators directly. Only the short vectors (values,
bounds, reduced costs) hold rationals (Q). Rows are replaced, never
edited in place, so clones share the rows neither side has pivoted.

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


class LpState:
    def __init__(self, structural_bounds):
        """structural_bounds: list of (lower, upper) pairs, None = unbounded.

        Each structural variable needs at least one finite bound to rest on.
        """
        self.nslots = len(structural_bounds)
        self.nstructural = self.nslots
        self.lower = []
        self.upper = []
        self.nb = []      # slot -> var id
        self.nval = []    # slot -> resting value
        self.slot_of = {}  # var id -> slot (when nonbasic)
        self.row_of = {}   # var id -> row (when basic)
        self.bs = []      # row -> var id
        self.bval = []    # row -> current value
        self.D = []       # row -> integer numerators over slots
        self.den = []     # row -> positive integer denominator
        for j, (lo, up) in enumerate(structural_bounds):
            lo = None if lo is None else Q(lo)
            up = None if up is None else Q(up)
            if lo is None and up is None:
                raise SimplexError("structural variable %d has no finite bound" % j)
            self.lower.append(lo)
            self.upper.append(up)
            self.nb.append(j)
            self.nval.append(lo if lo is not None else up)
            self.slot_of[j] = j

    # -- inspection ---------------------------------------------------

    @property
    def nvars(self):
        return len(self.lower)

    def value(self, var):
        row = self.row_of.get(var)
        if row is not None:
            return self.bval[row]
        return self.nval[self.slot_of[var]]

    def point(self):
        return [self.value(j) for j in range(self.nstructural)]

    def bounds(self, var):
        return self.lower[var], self.upper[var]

    # -- construction and mutation -------------------------------------

    def add_row(self, coeffs, lo, up):
        """Add the constraint lo <= sum coeffs[v]*x_v <= up.

        coeffs may reference structural variables and earlier logicals.
        Returns the id of the new logical variable; the row enters the
        basis immediately, which keeps the dictionary valid without any
        pivoting.
        """
        row = [0] * self.nslots
        den = 1
        val = QZERO
        for v, c in coeffs.items():
            if not c:
                continue
            c = Q(c)
            num, cden = int(c.numerator), int(c.denominator)
            r = self.row_of.get(v)
            if r is not None:
                val += c * self.bval[r]
                cden *= self.den[r]
            else:
                s = self.slot_of[v]
                val += c * self.nval[s]
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
        g = gcd(den, *row)
        if g > 1:
            row = [x // g for x in row]
            den //= g
        var = self.nvars
        self.lower.append(None if lo is None else Q(lo))
        self.upper.append(None if up is None else Q(up))
        self.row_of[var] = len(self.bs)
        self.bs.append(var)
        self.bval.append(val)
        self.D.append(row)
        self.den.append(den)
        return var

    def set_bounds(self, var, lo, up):
        lo = None if lo is None else Q(lo)
        up = None if up is None else Q(up)
        self.lower[var] = lo
        self.upper[var] = up
        slot = self.slot_of.get(var)
        if slot is None:
            return
        val = self.nval[slot]
        target = None
        if lo is not None and val < lo:
            target = lo
        elif up is not None and val > up:
            target = up
        if target is not None:
            self._move_nonbasic(slot, target)

    def _move_nonbasic(self, slot, target):
        delta = target - self.nval[slot]
        if not delta:
            return
        dn, dd = delta.numerator, delta.denominator
        D, den, bval = self.D, self.den, self.bval
        for r in range(len(self.bs)):
            c = D[r][slot]
            if c:
                bval[r] += Q(c * dn, den[r] * dd)
        self.nval[slot] = target

    def clone(self):
        other = LpState.__new__(LpState)
        other.nslots = self.nslots
        other.nstructural = self.nstructural
        other.lower = list(self.lower)
        other.upper = list(self.upper)
        other.nb = list(self.nb)
        other.nval = list(self.nval)
        other.slot_of = dict(self.slot_of)
        other.row_of = dict(self.row_of)
        other.bs = list(self.bs)
        other.bval = list(self.bval)
        other.D = list(self.D)
        other.den = list(self.den)
        return other

    # -- pivoting -------------------------------------------------------

    def _pivot(self, r, slot, target):
        """Swap basic row r with nonbasic slot; the leaver rests at target.

        Returns the new row r as (numerators, denominator).
        """
        D, den, bval = self.D, self.den, self.bval
        row, d = D[r], den[r]
        piv = row[slot]
        # x_leave = row.x / d, solved for the entering slot:
        # x_enter = (d * x_leave - sum_{k != slot} row[k] * x_k) / piv.
        # gcd(d, *row) == 1, so the new row is already in lowest terms.
        if piv > 0:
            newrow = [-c for c in row]
            newrow[slot] = d
            m = piv
        else:
            newrow = list(row)
            newrow[slot] = -d
            m = -piv
        diff = target - bval[r]
        delta = Q(diff.numerator * d, diff.denominator * piv)
        dn, dd = delta.numerator, delta.denominator
        enter = self.nb[slot]
        leave = self.bs[r]
        enter_val = self.nval[slot] + delta
        for i in range(len(self.bs)):
            if i == r:
                continue
            drow = D[i]
            b = drow[slot]
            if not b:
                continue
            e = den[i]
            if dn:
                bval[i] += Q(b * dn, e * dd)
            # drow/e with b * x_enter / e replaced by (b/e) * newrow/m
            g = gcd(b, m)
            scale = m // g
            b //= g
            if scale == 1:
                out = [x + b * y for x, y in zip(drow, newrow)]
            else:
                out = [x * scale + b * y for x, y in zip(drow, newrow)]
                e *= scale
            out[slot] = b * newrow[slot]
            g = gcd(e, *out)
            if g > 1:
                out = [x // g for x in out]
                e //= g
            D[i] = out
            den[i] = e
        D[r] = newrow
        den[r] = m
        self.bs[r] = enter
        bval[r] = enter_val
        self.nb[slot] = leave
        self.nval[slot] = target
        del self.slot_of[enter]
        self.row_of[enter] = r
        del self.row_of[leave]
        self.slot_of[leave] = slot
        return newrow, m

    def _can_increase(self, slot):
        up = self.upper[self.nb[slot]]
        return up is None or self.nval[slot] < up

    def _can_decrease(self, slot):
        lo = self.lower[self.nb[slot]]
        return lo is None or self.nval[slot] > lo

    # -- feasibility (dual pivots, zero objective) ----------------------

    def restore_feasible(self):
        """Bland-rule dual pivots until no basic violates its bounds.

        Returns True on success, False when some row certifies emptiness.
        """
        guard = _pivot_guard(len(self.bs), self.nslots)
        for _ in range(guard):
            pick = None
            for r in range(len(self.bs)):
                v = self.bs[r]
                bv = self.bval[r]
                lo, up = self.lower[v], self.upper[v]
                if lo is not None and bv < lo:
                    cand = (v, r, lo, 1)
                elif up is not None and bv > up:
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
                # delta sign for the entering slot: (target - bval)/c
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
        objd = [QZERO] * self.nslots
        for v, c in coeffs.items():
            if not c:
                continue
            c = Q(c)
            r = self.row_of.get(v)
            if r is not None:
                c /= self.den[r]
                drow = self.D[r]
                for k in range(self.nslots):
                    if drow[k]:
                        objd[k] += c * drow[k]
            else:
                objd[self.slot_of[v]] += c
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
                total = QZERO
                for v, c in coeffs.items():
                    total += Q(c) * self.value(v)
                return OPTIMAL, total
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
                # refresh reduced costs with the same substitution
                f = objd[slot]
                if f:
                    objd[slot] = QZERO
                    f /= m
                    for k in range(self.nslots):
                        if newrow[k]:
                            objd[k] += f * newrow[k]
        raise SimplexError("primal simplex cycling guard tripped")

    def minimize(self, coeffs):
        status, val = self.maximize({v: -Q(c) for v, c in coeffs.items()})
        if val is not None:
            val = -val
        return status, val

    def _ratio_test(self, slot, direction):
        """Largest step for the entering slot; returns (step, blocker).

        blocker None means the entering variable's own opposite bound is
        the tightest, i.e. a bound flip; otherwise blocker = (row, bound
        the leaving basic variable rests at). step None means unbounded.
        """
        evar = self.nb[slot]
        if direction > 0:
            own = self.upper[evar]
            step = None if own is None else own - self.nval[slot]
        else:
            own = self.lower[evar]
            step = None if own is None else self.nval[slot] - own
        # steps are compared as integer pairs sn / sd with sd > 0
        sn = sd = None
        if step is not None:
            sn, sd = step.numerator, step.denominator
        blocker = None
        tie = None
        D, den, bval = self.D, self.den, self.bval
        for r in range(len(self.bs)):
            c = D[r][slot]
            if not c:
                continue
            # the basic moves at rate c / den[r] per unit step, so it
            # reaches lim after (lim - value) * den[r] / rate = tn / td
            rate = c if direction > 0 else -c
            bvar = self.bs[r]
            lim = self.upper[bvar] if rate > 0 else self.lower[bvar]
            if lim is None:
                continue
            val = bval[r]
            ld, vd = lim.denominator, val.denominator
            tn = (lim.numerator * vd - val.numerator * ld) * den[r]
            td = ld * vd * rate
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
        if blocker is not None:
            step = Q(sn, sd)
        return step, blocker
