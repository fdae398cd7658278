"""Subset entropy checks on concrete joint distributions.

Joint entropies of every coordinate subset are rounded to rationals with
denominator 2^40, so all downstream comparisons stay exact.  Over the common
denominator D of the pmf, H(X_U) = log2 D - (sum W ln W) / (D ln 2) with
integer marginal weights W, evaluated in stdlib decimal at 30 significant
digits.  Each ln, product, sum and quotient there has relative error at most
0.5e-29, so with at most 10^6 cells and D below 2^100 the result is off by
under 1e-21 bits, over 10^8 times below half a 2^-40 step.  Inequality
checks (Han's inequality and the chained optimal-resolution feasibility) allow
a 2^-30 slack in the >= direction: orders of magnitude above the accumulated
rounding error at these sizes, so a true instance can never be flipped by
rounding.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from math import comb, lcm

from .errors import ResourceLimitError
from .lp import LinearProgram, Relation, Status, solve
from .resolution import LambdaVector, Resolution, f_vector
from .rng import SplitMix64, random_pmf

ENTROPY_DENOM_BITS = 40
COMPARISON_SLACK = Fraction(1, 1 << 30)

MAX_ENTROPY_LEVELS = 5
MAX_ENTROPY_CELLS = 10 ** 6
MAX_CHAIN_LEVELS = 4

_WORK_DIGITS = 30


@dataclass(frozen=True)
class JointDistribution:
    """Exact pmf over a product alphabet; zero-probability cells may be omitted."""

    alphabet_sizes: tuple[int, ...]
    pmf: dict[tuple[int, ...], Fraction]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.alphabet_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("alphabet sizes must be positive")
        pmf = {tuple(k): Fraction(v) for k, v in self.pmf.items()}
        for key, p in pmf.items():
            if len(key) != len(sizes) or any(not 0 <= x < s for x, s in zip(key, sizes)):
                raise ValueError(f"outcome {key} outside the alphabet")
            if p < 0:
                raise ValueError("probabilities must be nonnegative")
        if sum(pmf.values(), Fraction(0)) != 1:
            raise ValueError("pmf does not sum to 1")
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "pmf", pmf)

    @property
    def L(self) -> int:
        return len(self.alphabet_sizes)


@dataclass(frozen=True)
class EntropyVector:
    """H_u in bits for every nonzero coordinate mask u, as 2^-40 rationals."""

    L: int
    values: dict[int, Fraction]

    def __getitem__(self, mask: int) -> Fraction:
        if mask == 0:
            return Fraction(0)
        return self.values[mask]


def entropy_vector(jd: JointDistribution) -> EntropyVector:
    """All marginal joint entropies of a distribution, deterministically rounded."""
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


def han_check(ev: EntropyVector, slack: Fraction = COMPARISON_SLACK) -> bool:
    """Averages of H over k-subsets, normalized by k, must fall with k."""
    L = ev.L
    level_sum = [Fraction(0)] * (L + 1)
    for mask, h in ev.values.items():
        level_sum[bin(mask).count("1")] += h
    for a in range(2, L + 1):
        lhs = level_sum[a - 1] / comb(L - 1, a - 2)
        rhs = level_sum[a] / comb(L - 1, a - 1)
        if lhs < rhs - slack:
            return False
    return True


def check_chain_levels(L: int) -> None:
    if L > MAX_CHAIN_LEVELS:
        raise ResourceLimitError(f"chain feasibility limited to L <= {MAX_CHAIN_LEVELS}")


def chain_feasibility(lam, ev: EntropyVector,
                      slack: Fraction = COMPARISON_SLACK
                      ) -> tuple[bool, list[Resolution] | None]:
    """One optimal resolution per level whose entropy-weighted totals descend.

    A single exact LP over all weights: per-level feasibility against lambda,
    per-level optimality (total equals f_a(lambda)), and the descending chain
    between consecutive levels.  Only generator-set members are accepted.
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
        lp.add(row, Relation.GE, -slack)

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


def random_joint_distribution(rng: SplitMix64, alphabet_sizes,
                              denom_bits: int = 16) -> JointDistribution:
    """Exact random pmf: integer weights below 2^denom_bits, normalized."""
    sizes = tuple(int(s) for s in alphabet_sizes)
    cells = list(itertools.product(*(range(s) for s in sizes)))
    probs = random_pmf(rng, len(cells), denom_bits)
    return JointDistribution(sizes, dict(zip(cells, probs)))
