"""Subset entropy checks on concrete joint distributions.

Joint entropies of every coordinate subset are rounded to rationals with
denominator 2^40, so all downstream comparisons stay exact.  Over the common
denominator D of the pmf, H(X_U) = log2 D - (sum W ln W) / (D ln 2) with
integer marginal weights W, evaluated in stdlib decimal at 30 significant
digits.  Each ln, product, sum and quotient there has relative error at most
0.5e-29, so with at most 10^6 cells and D below 2^100 the result is off by
under 1e-21 bits, over 10^8 times below half a 2^-40 step.

The chain of optimal resolutions is fixed, with no LP: the wrap-around ones,
averaged over lambda's symmetry so that every step is Shannon-type, which
the tests prove at L <= 4.  Han's inequality and the chain allow a 2^-30
slack in the >= direction.  A chain step weighs at most f_{a-1} + f_a <= 12
entropies at L <= 4, each off by under 2^-41 + 1e-21, so rounding moves it
by under 2^-37, 128 times below the slack: a true instance never flips.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from math import comb, lcm

from .errors import ResourceLimitError
from .resolution import LambdaVector, Resolution, optimal_resolution
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


def han_check(ev: EntropyVector) -> bool:
    """Averages of H over k-subsets, normalized by k, must fall with k."""
    L = ev.L
    level_sum = [Fraction(0)] * (L + 1)
    for mask, h in ev.values.items():
        level_sum[bin(mask).count("1")] += h
    for a in range(2, L + 1):
        lhs = level_sum[a - 1] / comb(L - 1, a - 2)
        rhs = level_sum[a] / comb(L - 1, a - 1)
        if lhs < rhs - COMPARISON_SLACK:
            return False
    return True


def check_chain_levels(L: int) -> None:
    if L > MAX_CHAIN_LEVELS:
        raise ResourceLimitError(f"chain feasibility limited to L <= {MAX_CHAIN_LEVELS}")


def symmetric_resolution(lam, alpha: int) -> Resolution:
    """``optimal_resolution`` averaged over the permutations that fix lambda,
    those within each block of equal components: each weight-alpha mask gets
    the mean weight of the masks with its count in every block.  An average
    of optimal resolutions is optimal: its column sums stay at most lambda
    and its total stays f_alpha.  Walks all 2^L masks, so L must be small."""
    lv = LambdaVector.coerce(lam)
    blocks = {c: sum(1 << i for i, d in enumerate(lv) if d == c) for c in lv}.values()

    def orbit(mask: int) -> tuple[int, ...]:
        return tuple(bin(mask & block).count("1") for block in blocks)

    orbits: dict[tuple[int, ...], list[int]] = {}
    for mask in range(1 << lv.L):
        if bin(mask).count("1") == alpha:
            orbits.setdefault(orbit(mask), []).append(mask)
    totals: dict[tuple[int, ...], Fraction] = {}
    for mask, w in optimal_resolution(lv, alpha).weights.items():
        key = orbit(mask)
        totals[key] = totals.get(key, Fraction(0)) + w
    return Resolution(lv.L, alpha, {mask: total / len(orbits[key])
                                    for key, total in totals.items() for mask in orbits[key]})


def chain_feasibility(lam, ev: EntropyVector) -> tuple[bool, list[Resolution] | None]:
    """One optimal resolution per level whose entropy-weighted totals descend.

    The resolutions are ``symmetric_resolution``'s, whatever the entropies;
    only generator-set members are accepted.  The tests prove each step
    Shannon-type at L <= 4, so it holds for every distribution.
    """
    lv = LambdaVector.coerce(lam)
    if lv.L != ev.L:
        raise ValueError("lambda and entropy vector dimensions differ")
    check_chain_levels(lv.L)
    if lv.theta_seq is None:
        raise ValueError("lambda is not in the generator set")
    resolutions = [symmetric_resolution(lv, a) for a in range(1, lv.L + 1)]
    sides = [sum((w * ev[m] for m, w in res.weights.items()), Fraction(0)) for res in resolutions]
    if any(lower < upper - COMPARISON_SLACK for lower, upper in zip(sides, sides[1:])):
        return False, None
    return True, resolutions


def random_joint_distribution(rng: SplitMix64, alphabet_sizes,
                              denom_bits: int = 16) -> JointDistribution:
    """Exact random pmf: integer weights below 2^denom_bits, normalized."""
    sizes = tuple(int(s) for s in alphabet_sizes)
    cells = list(itertools.product(*(range(s) for s in sizes)))
    probs = random_pmf(rng, len(cells), denom_bits)
    return JointDistribution(sizes, dict(zip(cells, probs)))
