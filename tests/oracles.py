"""Reference implementations that only tests call."""

import functools
import itertools
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from math import comb, gcd, lcm

from smdc.entropy import (_WORK_DIGITS, COMPARISON_SLACK, ENTROPY_DENOM_BITS,
                          MAX_ENTROPY_CELLS, MAX_ENTROPY_LEVELS, EntropyVector,
                          JointDistribution, check_chain_levels)
from smdc.errors import ResourceLimitError
from smdc.fm import _implied_homogeneous
from smdc.lp import LinearProgram, LpResult, Relation, Sense, Status, solve
from smdc.ratio import format_rational
from smdc.region import (Inequality, MembershipVerdict, RateQuery, list_inequalities,
                         ordered_inequalities)
from smdc.resolution import LambdaVector, Resolution, _check_alpha, f_vector
from smdc.rng import random_fraction

MAX_BRUTEFORCE_L = 12


def assert_feasible_point(lp, point) -> bool:
    """Exact row-by-row (and nonnegativity) verification of a candidate point."""
    point = tuple(Fraction(x) for x in point)
    if len(point) != lp.num_vars:
        raise ValueError("point dimension does not match num_vars")
    if any(x < 0 for x in point):
        return False
    for row in lp.rows:
        lhs = sum(c * x for c, x in zip(row.coeffs, point))
        if row.relation is Relation.LE and not lhs <= row.rhs:
            return False
        if row.relation is Relation.GE and not lhs >= row.rhs:
            return False
        if row.relation is Relation.EQ and lhs != row.rhs:
            return False
    return True


def theta_chain_counts_dp(L: int) -> list[int]:
    """Block sizes D_1..D_L of the enumeration, by walking the theta chains.

    D_k counts chains (theta_{zeta}=0, then k-1 steps with 1 <= theta' <=
    theta+1); D_1 is the single-nonzero vector.  No vectors are materialized.
    """
    counts = [1]
    # states[t] = number of partial chains currently ending at theta = t
    states = {0: 1}
    for _ in range(2, L + 1):
        nxt: dict[int, int] = {}
        for t, c in states.items():
            for t2 in range(1, t + 2):
                nxt[t2] = nxt.get(t2, 0) + c
        states = nxt
        counts.append(sum(states.values()))
    return counts


def closure_redundancy_lp(L: int, index: int, entropies) -> LinearProgram:
    """Minimize one closure row over R >= 0 and every other closure row: an
    optimum below its right side proves that row essential.  One row per
    closure member, so it is kept for small L only."""
    ineqs = list_inequalities(L, ordered_only=False)
    lp = LinearProgram(L)
    for i, ineq in enumerate(ineqs):
        if i != index:
            lp.add(tuple(ineq.lam), Relation.GE, ineq.rhs(entropies))
    lp.set_objective(tuple(ineqs[index].lam), Sense.MIN)
    return lp


def greedy_minimize_system(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Greedy irredundant subsystem via one exact LP implication test per row."""
    kept = sorted(set(rows))
    for row in sorted(set(rows)):
        others = [r for r in kept if r != row]
        if _implied_homogeneous(row, others):
            kept = others
    return kept


def check_achievable_inequalities_fraction(query: RateQuery) -> MembershipVerdict:
    """Test the ordered inequalities against ascending-sorted rates.

    Descending lambda against ascending rates is the permutation minimizing
    the pairing, so these S_L^0 tests cover the whole permutation closure.
    The witness, when violated, is mapped back to the caller's rate order.
    Each row is two Fraction dot products; the library scans integer rows.
    """
    order = sorted(range(query.L), key=lambda i: (query.rates[i], i))
    sorted_rates = [query.rates[i] for i in order]
    for row in ordered_inequalities(query.L):
        if row.lhs(sorted_rates) < row.rhs(query.entropies):
            rank = sorted(range(query.L), key=order.__getitem__)
            witness = Inequality(row.lam.permuted(rank), row.f_values)
            return MembershipVerdict(False, "ineq", witness_inequality=witness)
    return MembershipVerdict(True, "ineq")


def superposition_feasibility_lp(query) -> LinearProgram:
    """The allocation-existence LP with one row per encoder subset; variables
    r[l][a] flattened row-major.  Exponential in L."""
    L = query.L
    lp = LinearProgram(L * L)
    zero = [Fraction(0)] * (L * L)
    for l in range(L):
        row = zero.copy()
        for a in range(L):
            row[l * L + a] = Fraction(1)
        lp.add(row, Relation.EQ, query.rates[l])
    for a in range(1, L + 1):
        for subset in itertools.combinations(range(L), a):
            row = zero.copy()
            for l in subset:
                row[l * L + (a - 1)] = Fraction(1)
            lp.add(row, Relation.GE, query.entropies[a - 1])
    return lp


def is_monotone(ev, tol: Fraction = COMPARISON_SLACK) -> bool:
    full = (1 << ev.L) - 1
    for u in range(1, full + 1):
        for i in range(ev.L):
            v = u | (1 << i)
            if v != u and ev[u] > ev[v] + tol:
                return False
    return True


def is_submodular(ev, tol: Fraction = COMPARISON_SLACK) -> bool:
    full = (1 << ev.L) - 1
    for u in range(1, full + 1):
        for v in range(u + 1, full + 1):
            if ev[u] + ev[v] + tol < ev[u | v] + ev[u & v]:
                return False
    return True


def masks_of_weight(L: int, alpha: int) -> list[int]:
    """Every weight-alpha bitmask of length L, ascending."""
    return [m for m in range(1, 1 << L) if bin(m).count("1") == alpha]


def resolution_lp(lam_values: tuple[Fraction, ...], alpha: int) -> tuple[LinearProgram, list[int]]:
    """The defining alpha-resolution LP: one column per weight-alpha mask,
    C(L, alpha) of them, and one row per component."""
    L = len(lam_values)
    masks = masks_of_weight(L, alpha)
    lp = LinearProgram(len(masks))
    for i in range(L):
        lp.add([Fraction(1) if m >> i & 1 else Fraction(0) for m in masks],
               Relation.LE, lam_values[i])
    lp.set_objective([Fraction(1)] * len(masks), Sense.MAX)
    return lp, masks


def f_alpha_bruteforce(lam, alpha: int) -> Fraction:
    """Independent oracle for f_alpha: solve the defining LP exactly."""
    lv = LambdaVector.coerce(lam)
    _check_alpha(lv.L, alpha)
    if lv.L > MAX_BRUTEFORCE_L:
        raise ResourceLimitError(
            f"brute-force LP limited to L <= {MAX_BRUTEFORCE_L} ({comb(lv.L, alpha)} variables)")
    result = solve(resolution_lp(lv.components, alpha)[0])
    assert result.status is Status.OPTIMAL
    return result.objective_value


def uniform_resolution(L: int, alpha: int) -> Resolution:
    """Weight 1/C(L-1, alpha-1) on every weight-alpha mask: the unique optimal
    resolution for the all-ones vector, and the Han's-inequality witness."""
    w = Fraction(1, comb(L - 1, alpha - 1))
    return Resolution(L, alpha, {m: w for m in masks_of_weight(L, alpha)})


def random_lambda(rng, length: int) -> tuple[Fraction, ...]:
    """Nonnegative grid rationals, not all zero."""
    while True:
        comps = tuple(random_fraction(rng) for _ in range(length))
        if any(comps):
            return comps


PRIMES_TO_97 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                67, 71, 73, 79, 83, 89, 97)


def random_prime_lambda(rng, length: int) -> tuple[Fraction, ...]:
    """Nonnegative k/p with k <= 16 and p a prime up to 97, not all zero:
    the denominators are mostly distinct, so their lcm is large."""
    while True:
        comps = tuple(Fraction(rng.randrange(17), rng.choice(PRIMES_TO_97))
                      for _ in range(length))
        if any(comps):
            return comps


def random_normalized_lambda(rng, length: int) -> tuple[Fraction, ...]:
    """As random_lambda, then scaled so the minimum nonzero component is 1."""
    comps = random_lambda(rng, length)
    scale = min(c for c in comps if c)
    return tuple(c / scale for c in comps)


def is_member(lam) -> bool:
    """Membership in the permutation-closed coefficient set."""
    return LambdaVector.coerce(lam).theta_seq is not None


def format_rational_list(values) -> list[str]:
    return [format_rational(v) for v in values]



def chain_feasibility_lp(lam, ev: EntropyVector) -> tuple[bool, list[Resolution] | None]:
    """One optimal resolution per level whose entropy-weighted totals descend.

    A single exact LP over all weights: per-level feasibility against lambda,
    per-level optimality (total equals f_a(lambda)), and the descending chain
    between consecutive levels.  Only generator-set members are accepted.
    The search that smdc.entropy.chain_feasibility's fixed chain replaced.
    """
    lv = LambdaVector.coerce(lam)
    if lv.L != ev.L:
        raise ValueError("lambda and entropy vector dimensions differ")
    check_chain_levels(lv.L)
    if lv.theta_seq is None:
        raise ValueError("lambda is not in the generator set")
    L = lv.L
    f_values = f_vector(lv).values

    masks_by_level = {a: [m for m in range(1, 1 << L) if bin(m).count("1") == a]
                      for a in range(1, L + 1)}
    offsets = {}
    n = 0
    for a in range(1, L + 1):
        offsets[a] = n
        n += len(masks_by_level[a])

    lp = LinearProgram(n)
    zero = [0] * n
    for a in range(1, L + 1):
        for i in range(L):
            row = zero.copy()
            for j, m in enumerate(masks_by_level[a]):
                if m >> i & 1:
                    row[offsets[a] + j] = 1
            lp.add(row, Relation.LE, lv.components[i])
        row = zero.copy()
        for j in range(len(masks_by_level[a])):
            row[offsets[a] + j] = 1
        lp.add(row, Relation.EQ, f_values[a - 1])
    for a in range(2, L + 1):
        row = zero.copy()
        for j, m in enumerate(masks_by_level[a - 1]):
            row[offsets[a - 1] + j] = ev[m]
        for j, m in enumerate(masks_by_level[a]):
            row[offsets[a] + j] = -ev[m]
        lp.add(row, Relation.GE, -COMPARISON_SLACK)

    result = solve(lp)
    if result.status is not Status.FEASIBLE:
        return False, None
    resolutions = []
    for a in range(1, L + 1):
        weights = {m: result.point[offsets[a] + j]
                   for j, m in enumerate(masks_by_level[a])
                   if result.point[offsets[a] + j]}
        resolutions.append(Resolution(L, a, weights))
    return True, resolutions


def entropy_vector_decimal(jd: JointDistribution) -> EntropyVector:
    """All marginal joint entropies of a distribution, deterministically rounded.

    Every entropy through stdlib decimal at 30 digits: the rounding that
    smdc.entropy.entropy_vector's float filter must reproduce."""
    L = jd.L
    if L > MAX_ENTROPY_LEVELS:
        raise ResourceLimitError(f"entropy vectors limited to L <= {MAX_ENTROPY_LEVELS}")
    cells = 1
    for s in jd.alphabet_sizes:
        cells *= s
    if cells > MAX_ENTROPY_CELLS:
        raise ResourceLimitError("alphabet product exceeds the cell budget")

    denom = lcm(*(p.denominator for p in jd.pmf.values()))
    weights = {outcome: p.numerator * (denom // p.denominator)
               for outcome, p in jd.pmf.items() if p}
    values: dict[int, Fraction] = {}
    # A fresh context, so that the caller's decimal settings change no digit.
    with localcontext(Context(prec=_WORK_DIGITS, rounding=ROUND_HALF_EVEN)):
        ln = functools.cache(lambda n: Decimal(n).ln())  # per call, at this precision
        ln2 = ln(2)
        log2_denom = ln(denom) / ln2
        denom_ln2 = denom * ln2
        for mask in range(1, 1 << L):
            coords = [i for i in range(L) if mask >> i & 1]
            marginal: dict[tuple[int, ...], int] = {}
            for outcome, w in weights.items():
                key = tuple(outcome[i] for i in coords)
                marginal[key] = marginal.get(key, 0) + w
            bits = log2_denom - sum(w * ln(w) for w in marginal.values()) / denom_ln2
            scaled = (bits * (1 << ENTROPY_DENOM_BITS)).to_integral_value()
            values[mask] = Fraction(int(scaled), 1 << ENTROPY_DENOM_BITS)
    return EntropyVector(L, values)


def elemental_inequalities(L: int) -> list[dict[int, int]]:
    """Shannon's elemental inequalities sum_u c[u] h(u) >= 0 over L variables,
    as {mask: coefficient} with h(0) = 0 dropped: H(X_i | X_rest) >= 0 for
    each i, and I(X_i; X_j | X_K) >= 0 for each pair i < j and each K that
    avoids both, L + C(L, 2) 2^(L-2) in all.  Together they cut out the
    polymatroid cone (Yeung 1997, IEEE Trans. IT 43(6))."""
    full = (1 << L) - 1
    rows = [{full: 1, full ^ 1 << i: -1} for i in range(L)]
    for i, j in itertools.combinations(range(L), 2):
        pair = 1 << i | 1 << j
        rows += [{k | 1 << i: 1, k | 1 << j: 1, k | pair: -1, k: -1}
                 for k in range(full + 1) if not k & pair]
    for row in rows:
        row.pop(0, None)
    return rows


# The full-width exact simplex that smdc.lp.solve replaced, kept as its reference.

class _DenseTableau:
    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self.rows: list[list[int]] = []    # coefficient part, len n_cols
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
        p = self.rows[r][j]
        row_r = self.rows[r]
        for i in range(len(self.rows)):
            if i == r:
                continue
            q = self.rows[i][j]
            if q:
                row_i = self.rows[i]
                self.rows[i] = [p * a - q * b for a, b in zip(row_i, row_r)]
                self.rhs[i] = p * self.rhs[i] - q * self.rhs[r]
                self._normalize(i)
        if obj is not None and obj[j]:
            obj[:] = _dense_eliminate(obj, p, obj[j], row_r)
        self.basis[r] = j
        self._normalize(r)

    def reduced_costs(self, cost: list[int]) -> list[int]:
        """Reduced costs of the basis, up to one positive factor.

        A basic column is nonzero only in its own row, so each row clears its
        basic column with the cost still standing there.
        """
        obj = list(cost)
        for i, b in enumerate(self.basis):
            if obj[b]:
                obj = _dense_eliminate(obj, self.rows[i][b], obj[b], self.rows[i])
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


def _dense_eliminate(obj: list[int], p: int, q: int, row: list[int]) -> list[int]:
    """p*obj - q*row over the gcd of its entries; p > 0 keeps every sign."""
    out = [p * a - q * b for a, b in zip(obj, row)]
    g = gcd(*out)
    return [a // g for a in out] if g > 1 else out


def _dense_scaled(values) -> tuple[int, list[int]]:
    """(s, s * values) for the least s > 0 that makes every value an int."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def dense_solve(lp: LinearProgram) -> LpResult:
    """The simplex that ``solve`` replaced: every pivot rebuilds each row it
    touches across all columns.  Same pivots, statuses and points."""
    if lp.num_vars < 1:
        raise ValueError("program must have at least one variable")
    n = lp.num_vars

    # Drop identically-zero rows.
    rows: list[tuple[tuple[int | Fraction, ...], Relation, int | Fraction]] = []
    for row in lp.rows:
        if len(row.coeffs) != n:
            raise ValueError("row length does not match num_vars")
        if not any(row.coeffs):
            if row.relation is Relation.LE:
                ok = row.rhs >= 0
            elif row.relation is Relation.GE:
                ok = row.rhs <= 0
            else:
                ok = row.rhs == 0
            if not ok:
                return LpResult(Status.INFEASIBLE)
            continue
        rows.append((row.coeffs, row.relation, row.rhs))

    n_slack = sum(1 for _, rel, _ in rows if rel is not Relation.EQ)
    # A row can start with its slack basic only if the slack coefficient comes
    # out positive once the rhs has been made nonnegative; the rest get an
    # artificial variable and a phase-1 solve.
    needs_art = []
    for coeffs, rel, rhs in rows:
        neg = rhs < 0
        if rel is Relation.EQ:
            needs_art.append(True)
        elif rel is Relation.LE:
            needs_art.append(neg)      # slack +1 flips to -1 when the row is negated
        else:
            needs_art.append(not neg)  # surplus -1 flips to +1 when negated
    n_art = sum(needs_art)
    n_cols = n + n_slack + n_art

    tab = _DenseTableau(n_cols)
    art_cols: list[int] = []
    slack_at = n
    art_at = n + n_slack
    for idx, (coeffs, rel, rhs) in enumerate(rows):
        scale, dense = _dense_scaled(coeffs + (rhs,))
        b = dense.pop()
        if b < 0:
            dense = [-a for a in dense]
            b = -b
            slack_sign = -1 if rel is Relation.LE else 1
        else:
            slack_sign = 1 if rel is Relation.LE else -1
        dense += [0] * (n_slack + n_art)
        if rel is not Relation.EQ:
            dense[slack_at] = slack_sign * scale
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
        tab.rhs.append(b)
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
        _dense_drive_out_artificials(tab, set(art_cols))
        banned |= set(art_cols)

    if lp.objective is None:
        point = _dense_extract_point(tab, n)
        return LpResult(Status.FEASIBLE, point=point)

    coeffs, sense = lp.objective
    sign = 1 if sense is Sense.MIN else -1
    cost = [sign * c for c in _dense_scaled(coeffs)[1]] + [0] * (n_cols - n)
    obj = tab.reduced_costs(cost)
    outcome = tab.run_simplex(obj, banned)
    if outcome == "unbounded":
        return LpResult(Status.UNBOUNDED)
    point = _dense_extract_point(tab, n)
    value = sum(c * x for c, x in zip(coeffs, point))
    return LpResult(Status.OPTIMAL, point=point, objective_value=value)


def _dense_drive_out_artificials(tab: _DenseTableau, art_cols: set[int]) -> None:
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


def _dense_extract_point(tab: _DenseTableau, n: int) -> tuple[Fraction, ...]:
    point = [Fraction(0)] * n
    for i, b in enumerate(tab.basis):
        if b < n:
            point[b] = tab.value(i)
    return tuple(point)
