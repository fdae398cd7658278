"""Exact rational linear programming.

Two-phase simplex over arbitrary-precision rationals with Bland's
smallest-index rule for both the entering and the leaving variable, so every
solve terminates (no cycling) and is bit-for-bit deterministic.

Rationals appear only in a program's inputs and in its result.  Each tableau
row is built from the nonzero terms of its input row as an integer vector with
a positive scale folded into its basic column ("fraction-free" pivoting,
Bareiss 1968), and the reduced-cost row is an integer vector known up to one
positive factor, since pricing reads only its signs.  The pivot sequence is
identical to a plain Fraction tableau because entering/leaving choices depend
only on signs and exact ratios.

A pivot on entry p > 0 of row r updates each row i with entry q in the
pivot column.  With g = gcd(p, q), p' = p/g and q' = q/g, the new row is
p'*row_i - q'*row_r divided by the gcd of its entries and right side.  That is
p*row_i - q*row_r over g, so both normalize to the same primitive row: every
entry, ratio test and pivot equals that of the full product.  When p' = 1 (p
divides q, as when p = 1) the new row differs from row_i only in the columns
where row_r is nonzero, so only those are touched.  Otherwise row_i is scaled
by p' and then updated on those columns, or rebuilt in one pass when row_r is
mostly nonzero.  The reduced-cost row is updated by the same rule.  Rows are
kept primitive, and the pivot row is never rescaled, so it needs no
normalizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm


class Relation(Enum):
    LE = "<="
    GE = ">="
    EQ = "="


class Sense(Enum):
    MIN = "min"
    MAX = "max"


class Status(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpRow:
    coeffs: tuple[int | Fraction, ...]
    relation: Relation
    rhs: int | Fraction


@dataclass
class LinearProgram:
    """num_vars nonnegative variables, no upper bounds.

    Coefficients and right-hand sides are ints or Fractions.
    """

    num_vars: int
    rows: list[LpRow] = field(default_factory=list)
    objective: tuple[tuple[int | Fraction, ...], Sense] | None = None

    def add(self, coeffs, relation: Relation, rhs) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.num_vars:
            raise ValueError("row length does not match num_vars")
        self.rows.append(LpRow(coeffs, relation, rhs))

    def set_objective(self, coeffs, sense: Sense) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        self.objective = (coeffs, sense)


@dataclass(frozen=True)
class LpResult:
    status: Status
    point: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None


class _Tableau:
    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self.rows: list[list[int]] = []    # coefficient part, len n_cols, primitive with rhs
        self.rhs: list[int] = []           # scaled right-hand sides, kept >= 0
        self.basis: list[int] = []         # basic column per row; diag = rows[i][basis[i]] > 0

    def value(self, i: int) -> Fraction:
        return Fraction(self.rhs[i], self.rows[i][self.basis[i]])

    def _normalize(self, i: int) -> None:
        g = gcd(self.rhs[i], *self.rows[i])
        if g > 1:
            self.rows[i] = [a // g for a in self.rows[i]]
            self.rhs[i] //= g

    def pivot(self, j: int, r: int, obj: list[int] | None) -> None:
        if self.rows[r][j] < 0:
            # Only reached when driving out a zero-valued basic variable.
            self.rows[r] = [-a for a in self.rows[r]]
            self.rhs[r] = -self.rhs[r]
        row_r = self.rows[r]
        p = row_r[j]
        support = _support(row_r)
        for i, row_i in enumerate(self.rows):
            q = row_i[j]
            if q and i != r:
                g = gcd(p, q)
                p_i, q_i = p // g, q // g
                self.rows[i] = _combine(row_i, p_i, q_i, row_r, support)
                self.rhs[i] = p_i * self.rhs[i] - q_i * self.rhs[r]
                self._normalize(i)
        if obj is not None and obj[j]:
            obj[:] = _eliminate(obj, p, obj[j], row_r, support)
        self.basis[r] = j  # row r stays primitive: it is not rescaled

    def reduced_costs(self, cost: list[int]) -> list[int]:
        """Reduced costs of the basis, up to one positive factor.

        A basic column is nonzero only in its own row, so each row clears its
        basic column with the cost still standing there.
        """
        obj = list(cost)
        for row, b in zip(self.rows, self.basis):
            if obj[b]:
                obj = _eliminate(obj, row[b], obj[b], row, _support(row))
        return obj

    def run_simplex(self, obj: list[int], banned: set[int],
                    ban_on_leave: set[int] | None = None) -> str:
        while True:
            enter = -1
            for j in range(self.n_cols):
                if j not in banned and obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            for i in range(len(self.rows)):
                a = self.rows[i][enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    lhs = self.rhs[i] * self.rows[leave][enter]
                    rhs = self.rhs[leave] * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded"
            if ban_on_leave and self.basis[leave] in ban_on_leave:
                banned.add(self.basis[leave])
            self.pivot(enter, leave, obj)


def _support(row: list[int]) -> list[tuple[int, int]]:
    """(column, entry) for every nonzero entry of row."""
    cols = list(compress(count(), row))
    return list(zip(cols, map(row.__getitem__, cols)))


def _combine(row: list[int], p: int, q: int, other: list[int],
             support: list[tuple[int, int]]) -> list[int]:
    """p*row - q*other, where support lists other's nonzero entries.  With
    p == 1 only those columns change, and row itself is updated."""
    if p == 1:
        for c, b in support:
            row[c] -= q * b
        return row
    if 2 * len(support) > len(row):
        return [p * a - q * b for a, b in zip(row, other)]
    row = [p * a for a in row]
    for c, b in support:
        row[c] -= q * b
    return row


def _eliminate(obj: list[int], p: int, q: int, row: list[int],
               support: list[tuple[int, int]]) -> list[int]:
    """p*obj - q*row over the gcd of its entries; p > 0 keeps every sign."""
    g = gcd(p, q)
    out = _combine(obj, p // g, q // g, row, support)
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


def _dense(terms: list[tuple[int, int | Fraction]], s: int, width: int) -> list[int]:
    """s * value in each term's column and 0 elsewhere; s is a multiple of
    every denominator."""
    row = [0] * width
    for k, v in terms:
        row[k] = v.numerator * (s // v.denominator)
    return row


def solve(lp: LinearProgram) -> LpResult:
    """Two-phase exact simplex; see module docstring for guarantees."""
    if lp.num_vars < 1:
        raise ValueError("program must have at least one variable")
    n = lp.num_vars

    # Keep each row's nonzero terms; drop identically-zero rows.
    rows: list[tuple[list[tuple[int, int | Fraction]], Relation, int | Fraction]] = []
    for row in lp.rows:
        if len(row.coeffs) != n:
            raise ValueError("row length does not match num_vars")
        terms = [(k, c) for k, c in enumerate(row.coeffs) if c]
        if not terms:
            if row.relation is Relation.LE:
                ok = row.rhs >= 0
            elif row.relation is Relation.GE:
                ok = row.rhs <= 0
            else:
                ok = row.rhs == 0
            if not ok:
                return LpResult(Status.INFEASIBLE)
            continue
        rows.append((terms, row.relation, row.rhs))

    n_slack = sum(1 for _, rel, _ in rows if rel is not Relation.EQ)
    # A row can start with its slack basic only if the slack coefficient comes
    # out positive once the rhs has been made nonnegative; the rest get an
    # artificial variable and a phase-1 solve.
    needs_art = []
    for _, rel, rhs in rows:
        neg = rhs < 0
        if rel is Relation.EQ:
            needs_art.append(True)
        elif rel is Relation.LE:
            needs_art.append(neg)      # slack +1 flips to -1 when the row is negated
        else:
            needs_art.append(not neg)  # surplus -1 flips to +1 when negated
    n_art = sum(needs_art)
    n_cols = n + n_slack + n_art

    tab = _Tableau(n_cols)
    art_cols: list[int] = []
    slack_at = n
    art_at = n + n_slack
    for idx, (terms, rel, rhs) in enumerate(rows):
        scale = lcm(rhs.denominator, *(c.denominator for _, c in terms))
        b = rhs.numerator * (scale // rhs.denominator)
        s = -scale if b < 0 else scale  # a row with a negative rhs is negated
        dense = _dense(terms, s, n_cols)
        if rel is not Relation.EQ:
            dense[slack_at] = s if rel is Relation.LE else -s
        if needs_art[idx]:
            dense[art_at] = scale
            basis_col = art_at
            art_cols.append(art_at)
            art_at += 1
        else:
            basis_col = slack_at
        if rel is not Relation.EQ:
            slack_at += 1
        tab.rows.append(dense)
        tab.rhs.append(abs(b))
        tab.basis.append(basis_col)
        tab._normalize(len(tab.rows) - 1)

    banned: set[int] = set()

    if art_cols:
        cost = [0] * n_cols
        for c in art_cols:
            cost[c] = 1
        obj = tab.reduced_costs(cost)
        # Bounded below by 0, so never unbounded; once an artificial leaves the
        # basis it is banned from re-entering.
        tab.run_simplex(obj, banned, ban_on_leave=set(art_cols))
        if any(tab.rhs[i] for i in range(len(tab.rows)) if tab.basis[i] in art_cols):
            return LpResult(Status.INFEASIBLE)
        _drive_out_artificials(tab, set(art_cols))
        banned |= set(art_cols)

    if lp.objective is None:
        point = _extract_point(tab, n)
        return LpResult(Status.FEASIBLE, point=point)

    coeffs, sense = lp.objective
    sign = 1 if sense is Sense.MIN else -1
    terms = [(k, c) for k, c in enumerate(coeffs) if c]
    scale = lcm(*(c.denominator for _, c in terms))
    obj = tab.reduced_costs(_dense(terms, sign * scale, n_cols))
    outcome = tab.run_simplex(obj, banned)
    if outcome == "unbounded":
        return LpResult(Status.UNBOUNDED)
    point = _extract_point(tab, n)
    value = sum(c * x for c, x in zip(coeffs, point))
    return LpResult(Status.OPTIMAL, point=point, objective_value=value)


def _drive_out_artificials(tab: _Tableau, art_cols: set[int]) -> None:
    """Pivot zero-valued basic artificials out; drop rows that are redundant."""
    keep = []
    for i in range(len(tab.rows)):
        if tab.basis[i] not in art_cols:
            keep.append(i)
            continue
        enter = -1
        for j in range(tab.n_cols):
            if j not in art_cols and tab.rows[i][j]:
                enter = j
                break
        if enter < 0:
            continue  # 0 = 0 row
        tab.pivot(enter, i, None)
        keep.append(i)
    if len(keep) != len(tab.rows):
        tab.rows = [tab.rows[i] for i in keep]
        tab.rhs = [tab.rhs[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]


def _extract_point(tab: _Tableau, n: int) -> tuple[Fraction, ...]:
    point = [Fraction(0)] * n
    for i, b in enumerate(tab.basis):
        if b < n:
            point[b] = tab.value(i)
    return tuple(point)
