"""Reference implementations that only tests call."""

import itertools
from fractions import Fraction
from math import comb

from smdc.entropy import COMPARISON_SLACK
from smdc.errors import ResourceLimitError
from smdc.fm import _implied_homogeneous
from smdc.lp import LinearProgram, Relation, Sense, Status, solve
from smdc.ratio import format_rational
from smdc.region import list_inequalities
from smdc.resolution import LambdaVector, Resolution, _check_alpha
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
