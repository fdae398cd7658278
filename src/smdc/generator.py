"""Enumeration and counting of the minimal coefficient set.

Ordered members are built recursively: the all-or-nothing base vector
(1,0,...,0), then for every nonzero count zeta >= 2 a full-support vector of
dimension zeta padded with zeros.  A full-support vector grows by prepending a
new leading component equal to (tail sum)/t for an integer t between 1 and
theta_prev + 1, where theta_prev encoded the previous leading component.

Output order is fixed: zeta ascending, then the stored theta-sequence
lexicographically descending, which the recursion emits naturally when t runs
downward.  The walk carries only its running total and the theta-sequence,
which fills each member's cache.  Counting uses the closed form of the
theta-chain counts, without materializing any vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from typing import Iterator

from .errors import ResourceLimitError
from .resolution import LambdaVector

MAX_ENUM_L = 14
MAX_EXPAND_L = 7
MAX_COUNT_L = 1000


def _full_support(components: tuple[Fraction, ...], total: tuple[int, int],
                  theta_seq: tuple[int, ...], remaining: int,
                  shared: dict) -> Iterator[tuple]:
    """Depth-first walk below a full-support tail: its components, their sum
    and its thetas, bottom-up as ``LambdaVector.theta_seq`` stores them.

    The sum is carried as (num, den) in lowest terms, so each step is integer
    arithmetic: with g = gcd(num, t) and h = gcd(t + 1, den), the new
    component total/t is (num/g) / (den t/g) and the new sum total (t+1)/t
    is (num/g)((t+1)/h) / ((den/h)(t/g)), both in lowest terms because num,
    den and t, t+1 are coprime.  Equal components share one Fraction through
    ``shared``."""
    if remaining == 0:
        yield components, theta_seq
        return
    num, den = total
    for t in range(theta_seq[-1] + 1 if theta_seq else 1, 0, -1):
        g, h = gcd(num, t), gcd(t + 1, den)
        key = (num // g, den * (t // g))
        part = shared.get(key)
        if part is None:
            part = shared[key] = Fraction(*key)
        yield from _full_support((part,) + components,
                                 (num // g * ((t + 1) // h), den // h * (t // g)),
                                 theta_seq + (t,), remaining - 1, shared)


def _check_levels(L: int) -> None:
    if not 1 <= L <= MAX_ENUM_L:
        raise ResourceLimitError(f"enumeration limited to 1 <= L <= {MAX_ENUM_L}")


def _members(L: int) -> Iterator[LambdaVector]:
    one, zero = Fraction(1), Fraction(0)
    shared: dict[tuple[int, int], Fraction] = {}
    for zeta in range(1, L + 1):
        zeros = (zero,) * (L - zeta)
        for comps, theta_seq in _full_support((one,), (1, 1), (), zeta - 1, shared):
            yield LambdaVector.member(comps + zeros, theta_seq)


def iter_ordered(L: int) -> Iterator[LambdaVector]:
    """Stream the ordered members for L levels in canonical order.

    L is checked when this is called, not when the stream is first read.
    Memory stays O(L) plus one Fraction per distinct component value (1,105
    at L=12): each zeta block is a depth-first walk of the recursion tree, so
    large L never holds the full (super-exponential) set at once.
    """
    _check_levels(L)
    return _members(L)


def generate_ordered(L: int) -> list[LambdaVector]:
    """All ordered members as a list."""
    return list(iter_ordered(L))


def _distinct_permutations(values: tuple[Fraction, ...]) -> Iterator[tuple[Fraction, ...]]:
    """Distinct permutations of a multiset, ascending lexicographic."""
    pool = sorted(values)
    n = len(pool)

    def rec(remaining: list[Fraction], prefix: tuple[Fraction, ...]):
        if len(prefix) == n:
            yield prefix
            return
        seen = None
        for i, v in enumerate(remaining):
            if seen is not None and v == seen:
                continue
            seen = v
            yield from rec(remaining[:i] + remaining[i + 1:], prefix + (v,))

    yield from rec(pool, ())


def expand_permutations(g0) -> list[LambdaVector]:
    """Permutation closure of a list of ordered members, duplicates removed.

    Per-member blocks keep the input order; within a block permutations are
    ascending lexicographic, so indexes are stable.
    """
    out: list[LambdaVector] = []
    for lv in g0:
        lv = LambdaVector.coerce(lv)
        if lv.L > MAX_EXPAND_L:
            raise ResourceLimitError(
                f"permutation closure limited to L <= {MAX_EXPAND_L}")
        out.extend(LambdaVector(p) for p in _distinct_permutations(lv.components))
    return out


def theta_chain_counts(L: int) -> list[int]:
    """Block sizes D_1..D_L of the enumeration: D_k = Catalan(k-1).

    D_k counts chains (theta_{zeta}=0, then k-1 steps with 1 <= theta' <=
    theta+1), the height sequences of Dyck paths (Stanley 2015, *Catalan
    Numbers*); D_1 is the single-nonzero vector.  No vectors are materialized.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if L > MAX_COUNT_L:
        raise ResourceLimitError(f"counting limited to L <= {MAX_COUNT_L}")
    counts = [1]
    for k in range(L - 1):
        counts.append(counts[-1] * 2 * (2 * k + 1) // (k + 2))
    return counts


def count_ordered(L: int) -> int:
    """Number of ordered members, counted without enumeration."""
    return sum(theta_chain_counts(L))


def check_bounds(L: int) -> tuple[int, int, int]:
    """(2^(L-1), count, L!) with the sandwich verified.

    The lower bound is attained at L <= 3 (counts 1, 2, 4 against 2^(L-1) =
    1, 2, 4) and the upper bound at L <= 2 (counts 1, 2 against L! = 1, 2).
    Both bounds are strict for L >= 4, and that is asserted here.
    """
    count = count_ordered(L)
    lower = 1 << (L - 1)
    upper = factorial(L)
    if not lower <= count <= upper:
        raise AssertionError(f"count bound violated at L={L}: {lower}, {count}, {upper}")
    if L >= 4 and not lower < count < upper:
        raise AssertionError(f"strict count bound violated at L={L}")
    return lower, count, upper

