"""The explicit rate region: inequalities, membership tests, redundancy.

A region inequality pairs a coefficient vector lambda with the multipliers
f(lambda) of the entropy profile:

    sum_l lambda_l R_l  >=  sum_a f_a(lambda) H_a.

Membership of a rate tuple is decided two independent ways: by evaluating the
ordered inequalities against the ascending-sorted rates (the rearrangement
pairing makes those sufficient), and by exact LP feasibility of the underlying
per-level allocation.  That allocation LP has O(L^2) rows: "the a smallest
entries of column a sum to at least H_a" is linearized with one threshold and
L excess variables per level (Ogryczak & Tamir 2003).  Non-redundancy is
certified by cutting planes over the ordered rows; every witness is checked.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterator

from .errors import ResourceLimitError
from .generator import expand_permutations, iter_ordered
from .lp import LinearProgram, Relation, Sense, Status, solve
from .ratio import format_rational
from .resolution import LambdaVector, scaled_row

MAX_LP_LEVELS = 12
MAX_REMEMBERED_L = 10
MAX_REDUNDANCY_LEVELS = 6


@dataclass(frozen=True, slots=True)
class Inequality:
    """One halfspace of the region; f is recomputable from lam.

    ``row`` is (lambda | -f) as a primitive integer vector over the (R, H)
    columns, so lambda . R >= f . H exactly when row . (R | H) >= 0.  Rows
    built from lambda take it from ``scaled_row``'s integer pass; any other
    inequality rescales its Fractions once, when ``row`` is first read.
    """

    lam: LambdaVector
    f_values: tuple[Fraction, ...]
    _row: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_lambda(cls, lam, shared: dict | None = None) -> "Inequality":
        """lambda's row, f and integer form both from one ``scaled_row`` pass;
        equal ints and equal f values share one object through ``shared``."""
        lv = LambdaVector.coerce(lam)
        ints, D = scaled_row(lv)
        if shared is None:
            shared = {}
        f = []
        for v in ints[lv.L:]:
            g = gcd(v, D)
            key = (-v // g, D // g)
            value = shared.get(key)
            if value is None:
                value = shared[key] = Fraction(*key)
            f.append(value)
        row = primitive(ints)
        return cls(lv, tuple(f), tuple(map(shared.setdefault, row, row)))

    @property
    def row(self) -> tuple[int, ...]:
        if self._row is None:
            values = (*self.lam, *(-v for v in self.f_values))
            d = lcm(*(v.denominator for v in values))
            object.__setattr__(self, "_row", primitive(
                [v.numerator * (d // v.denominator) for v in values]))
        return self._row

    @property
    def L(self) -> int:
        return self.lam.L

    @property
    def theta(self) -> int | None:
        return self.lam.theta

    def lhs(self, rates) -> Fraction:
        return sum(map(mul, self.lam, rates))

    def rhs(self, entropies) -> Fraction:
        return sum(map(mul, self.f_values, entropies))

    def to_json_obj(self) -> dict:
        return {
            "lambda": [format_rational(c) for c in self.lam],
            "f": [format_rational(v) for v in self.f_values],
            "theta": self.theta,
        }


@dataclass(frozen=True)
class RateQuery:
    """Rate tuple plus entropy profile to be tested for achievability."""

    rates: tuple[Fraction, ...]
    entropies: tuple[Fraction, ...]

    def __post_init__(self):
        rates = tuple(Fraction(r) for r in self.rates)
        entropies = tuple(Fraction(h) for h in self.entropies)
        if len(rates) != len(entropies) or not rates:
            raise ValueError("rates and entropies must have the same positive length")
        if any(r < 0 for r in rates) or any(h < 0 for h in entropies):
            raise ValueError("rates and entropies must be nonnegative")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "entropies", entropies)

    @property
    def L(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class SuperpositionAllocation:
    """Per-level rate split r[l][a]; row sums give the rates and every
    cardinality-a encoder subset must cover the level-a entropy."""

    r: tuple[tuple[Fraction, ...], ...]

    @property
    def L(self) -> int:
        return len(self.r)

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.r)

    def satisfies(self, query: RateQuery) -> bool:
        """Exact check; the weakest cardinality-a subset is the a smallest
        entries of column a, so one sorted prefix per level covers them all."""
        L = self.L
        if L != query.L or any(len(row) != L for row in self.r):
            return False
        if any(x < 0 for row in self.r for x in row):
            return False
        if self.row_sums() != query.rates:
            return False
        for a in range(1, L + 1):
            smallest = sorted(row[a - 1] for row in self.r)[:a]
            if sum(smallest, Fraction(0)) < query.entropies[a - 1]:
                return False
        return True

    def to_json_obj(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.r]


@dataclass(frozen=True)
class MembershipVerdict:
    achievable: bool
    method: str  # "ineq" | "lp"
    witness_inequality: Inequality | None = None
    witness_allocation: SuperpositionAllocation | None = None

    def to_json_obj(self) -> dict:
        witness = None
        if self.witness_inequality is not None:
            witness = self.witness_inequality.to_json_obj()
        elif self.witness_allocation is not None:
            witness = {"allocation": self.witness_allocation.to_json_obj()}
        return {"achievable": self.achievable, "method": self.method, "witness": witness}


def primitive(ints) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


_TABLES: dict[int, tuple[list[Inequality], Iterator[tuple], dict]] = {}
_TABLES_LOCK = threading.Lock()


def ordered_inequalities(L: int) -> Iterator[Inequality]:
    """The ordered rows S_L^0 in canonical order, computed as they are read.

    L is checked first; each row comes from ``Inequality.from_lambda``, and
    equal ints and f values share one object.  For L <= MAX_REMEMBERED_L the
    rows are remembered: later reads replay them and each row is built once
    per process.  Larger L is streamed; its shared values (3,775 at L=12)
    are kept until the stream is dropped.
    """
    members = iter_ordered(L)
    if L > MAX_REMEMBERED_L:
        shared: dict = {}
        return (Inequality.from_lambda(lv, shared) for lv in members)
    return _replay(L, *_TABLES.setdefault(L, ([], members, {})))


def _replay(L: int, rows: list, members: Iterator, shared: dict) -> Iterator[Inequality]:
    i = 0
    while True:
        with _TABLES_LOCK:  # one reader at a time extends a table
            if i == len(rows):
                try:
                    rows.append(Inequality.from_lambda(next(members), shared))
                except StopIteration:
                    return
                except BaseException:
                    _TABLES.pop(L, None)  # an interrupted enumeration is finished
                    raise
        yield rows[i]
        i += 1


def iter_inequalities(L: int, ordered_only: bool = True) -> Iterator[Inequality]:
    """The region's halfspaces as they are read, L checked first; ordered-only
    gives the table rows.  The closure reuses each ordered row's f, which
    depends only on sorted lambda."""
    rows = ordered_inequalities(L)
    if ordered_only:
        return rows
    return (Inequality(lv, row.f_values) for row in rows
            for lv in expand_permutations((row.lam,)))


def list_inequalities(L: int, ordered_only: bool = True) -> list[Inequality]:
    """``iter_inequalities`` as a list."""
    return list(iter_inequalities(L, ordered_only))


def check_achievable_inequalities(query: RateQuery) -> MembershipVerdict:
    """Test the ordered inequalities against ascending-sorted rates.

    Descending lambda against ascending rates is the permutation minimizing
    the pairing, so these S_L^0 tests cover the whole permutation closure.
    The query is scaled once to integers, the rates by dR dH and the
    entropies by dH dR (dR, dH the lcms of their denominators), so each row
    is one integer dot product with its primitive ``row``, negative exactly
    when the row is violated.  The witness, when violated, is mapped back to
    the caller's rate order.
    """
    order = sorted(range(query.L), key=lambda i: (query.rates[i], i))
    rates = [query.rates[i] for i in order]
    d_rates = lcm(*(r.denominator for r in rates))
    d_entropies = lcm(*(h.denominator for h in query.entropies))
    point = [r.numerator * (d_rates // r.denominator) * d_entropies for r in rates] + \
        [h.numerator * (d_entropies // h.denominator) * d_rates for h in query.entropies]
    for row in ordered_inequalities(query.L):
        if sum(map(mul, row.row, point)) < 0:
            rank = sorted(range(query.L), key=order.__getitem__)
            witness = Inequality(row.lam.permuted(rank), row.f_values)
            return MembershipVerdict(False, "ineq", witness_inequality=witness)
    return MembershipVerdict(True, "ineq")


def check_lp_levels(L: int) -> None:
    if L > MAX_LP_LEVELS:
        raise ResourceLimitError(f"feasibility LP limited to L <= {MAX_LP_LEVELS}")


def compact_allocation_lp(query: RateQuery) -> LinearProgram:
    """The allocation-existence LP in O(L^2) rows.

    Variables: r[l][a] flattened row-major, then for each middle level
    a = 2..L-1 a threshold t_a followed by excesses u[l][a].  The a smallest
    entries x_l of a column sum to max_t (a t - sum_l (t - x_l)^+), so they
    reach H_a exactly when some t_a, u >= 0 have a t_a - sum_l u[l][a] >= H_a
    and u[l][a] >= t_a - x_l.  Level 1 (every entry) is a shift: column
    l * L holds y_l = r[l][0] - H_1 >= 0, so each rate row has right side
    R_l - H_1.  Level L (the column sum) is a single row.
    """
    L = query.L
    check_lp_levels(L)
    n = L * L + max(L - 2, 0) * (L + 1)
    lp = LinearProgram(n)
    zero = [0] * n
    for l in range(L):
        row = zero.copy()
        row[l * L:(l + 1) * L] = [1] * L
        lp.add(row, Relation.EQ, query.rates[l] - query.entropies[0])
    if L > 1:
        row = zero.copy()
        row[L - 1:L * L:L] = [1] * L
        lp.add(row, Relation.GE, query.entropies[L - 1])
    for a in range(2, L):
        t = L * L + (a - 2) * (L + 1)
        row = zero.copy()
        row[t] = a
        row[t + 1:t + 1 + L] = [-1] * L
        lp.add(row, Relation.GE, query.entropies[a - 1])
        for l in range(L):
            row = zero.copy()
            row[t + 1 + l] = 1
            row[l * L + a - 1] = 1
            row[t] = -1
            lp.add(row, Relation.GE, 0)
    return lp


def check_achievable_lp(query: RateQuery) -> MembershipVerdict:
    """Exact LP feasibility of the per-level allocation system.

    The allocation witness is re-verified exactly before it is returned.
    """
    result = solve(compact_allocation_lp(query))
    if result.status is Status.INFEASIBLE:
        return MembershipVerdict(False, "lp")
    L, point, h1 = query.L, result.point, query.entropies[0]
    allocation = SuperpositionAllocation(tuple(
        (point[l * L] + h1,) + point[l * L + 1:(l + 1) * L] for l in range(L)))
    if not allocation.satisfies(query):
        raise RuntimeError("LP allocation failed exact verification")
    return MembershipVerdict(True, "lp", witness_allocation=allocation)


def _most_violated(rows, rhs, own, orbit, excluded, rates) -> list:
    """(lambda, rhs) of each orbit's most violated closure row but `excluded`:
    descending lambda against ascending rates is an orbit's minimum, as in the
    inequality method, and the orbit `own` of `excluded` is scanned in full."""
    ascending = sorted(range(len(rates)), key=lambda i: (rates[i], i))
    rank = sorted(range(len(rates)), key=ascending.__getitem__)
    cuts = []
    for k, row in enumerate(rows):
        lams = [lam for lam in orbit if lam != excluded] if k == own \
            else [tuple(row.lam[r] for r in rank)]
        value, lam = min(((sum(map(mul, lam, rates)), lam) for lam in lams),
                         default=(rhs[k], None))
        if value < rhs[k]:
            cuts.append((lam, rhs[k]))
    return cuts


def _certify_ordered(rows, rhs, own, orbit) -> tuple[bool, tuple[Fraction, ...]]:
    """Minimize the ordered row `own` over R >= 0 and every other closure row
    by cutting planes (Kelley 1960): each round adds the most violated row of
    every orbit to an LP with L columns, until the closing pass finds none.

    A positive R_i of a vertex of {R >= 0 : C R >= b}, C >= 0, is at most
    b_c / C_ci for some row c, and nonzero C_ci are at least 1 here, so the
    box R <= top = max b holds an optimal vertex of every round.  In
    x = top - R every row has a nonnegative right side: no phase 1.
    """
    rep, top, L = rows[own].lam.components, max(rhs), len(rows[own].lam)
    lp = LinearProgram(L)
    lp.set_objective(rep, Sense.MAX)
    for i in range(L):
        lp.add([int(k == i) for k in range(L)], Relation.LE, top)
    rates = (Fraction(0),) * L  # the optimum with no cuts
    while cuts := _most_violated(rows, rhs, own, orbit, rep, rates):
        for lam, b in cuts:
            lp.add(lam, Relation.LE, top * sum(lam) - b)
        rates = tuple(top - x for x in solve(lp).point)  # a box: always optimal
    return sum(map(mul, rep, rates)) < rhs[own], rates


def _orbits(L: int, entropies):
    """Ordered rows, their right sides and each row's orbit in closure order."""
    if L > MAX_REDUNDANCY_LEVELS:  # before any work
        raise ResourceLimitError(f"redundancy certificates limited to L <= {MAX_REDUNDANCY_LEVELS}")
    entropies = tuple(Fraction(h) for h in entropies)
    if len(entropies) != L or any(h <= 0 for h in entropies):
        raise ValueError("entropies must be strictly positive and of length L")
    rows = list(ordered_inequalities(L))
    return rows, [row.rhs(entropies) for row in rows], \
        [[lv.components for lv in expand_permutations((row.lam,))] for row in rows]


def _unsorted(rates, lam: LambdaVector) -> tuple[Fraction, ...]:
    """Rates for lam from rates for its sorted_desc."""
    return tuple(rates[lam.order.index(i)] for i in range(len(rates)))


def redundancy_certificate(L: int, index: int, entropies
                           ) -> tuple[Inequality, bool, tuple[Fraction, ...] | None]:
    """(inequality, essential, witness) for one row of the full closure.

    Minimizes the indexed inequality's left side subject to all the others
    (rates nonnegative).  An optimum strictly below the indexed right side
    proves the inequality is not implied; the minimizer is the witness.  It
    is found for the ordered representative (f depends only on the sorted
    lambda), permuted back and re-checked against every other closure row.
    """
    rows, rhs, orbits = _orbits(L, entropies)
    owners = [k for k, orbit in enumerate(orbits) for _ in orbit]
    if not 0 <= index < len(owners):
        raise ValueError(f"index must be in 0..{len(owners) - 1}")
    own = owners[index]
    target = LambdaVector(orbits[own][index - owners.index(own)])
    essential, rates = _certify_ordered(rows, rhs, own, orbits[own])
    witness = _unsorted(rates, target) if essential else None
    if essential and _most_violated(rows, rhs, own, orbits[own], target.components, witness):
        raise RuntimeError("redundancy witness violates another closure row")
    return Inequality(target, rows[own].f_values), essential, witness


def redundancy_certificates(L: int, entropies) -> Iterator[tuple[Inequality, bool, tuple | None]]:
    """(inequality, essential, witness) for every closure row in index order:
    each ordered representative is certified once, the closing pass of its
    loop having checked every other closure row, and its witness permuted."""
    rows, rhs, orbits = _orbits(L, entropies)
    for own, (row, orbit) in enumerate(zip(rows, orbits)):
        essential, rates = _certify_ordered(rows, rhs, own, orbit)
        for lv in map(LambdaVector, orbit):
            witness = _unsorted(rates, lv) if essential else None
            yield Inequality(lv, row.f_values), essential, witness
