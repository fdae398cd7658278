"""Reference implementations that only tests call."""

from fractions import Fraction

from smdc.lp import Relation


def assert_feasible_point(lp, point) -> bool:
    """Exact row-by-row (and lower-bound) verification of a candidate point."""
    point = tuple(Fraction(x) for x in point)
    if len(point) != lp.num_vars:
        raise ValueError("point dimension does not match num_vars")
    for x, b in zip(point, lp.lower_bounds()):
        if x < b:
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
