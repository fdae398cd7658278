"""Subset entropy checks on concrete joint distributions.

Joint entropies of every coordinate subset are rounded to rationals with
denominator 2^40, so all downstream comparisons stay exact.  Over the common
denominator D of the pmf, with integer marginal weights W,
H(X_U) = sum (W/D) log2(D/W), and its numerator over 2^40 is rounded to
the nearest integer through a floating-point filter with an exact fallback.

The filter evaluates that sum in floats: W/D and D/W correctly rounded
(Python's int division), log2 from libm, one product per term and
``math.fsum``.  Let u = 2^-53, let D be below 2^100 (so every W/D is a
normal float), and let libm's log2 be within 4 ulp (relative error 8u).
With p = W/D and l = log2(D/W) >= 0, rounding D/W moves the log by at most
1.5u, so a term comes out as p(1+d1) (l + e)(1+d2)(1+d3) with |d1|, |d3| <= u,
|d2| <= 8u and |e| <= 1.5u: off by at most 10.1u pl + 1.6u p.  The p sum to 1
and fsum rounds once, so the estimate E is within 12u H + 2u of H, which is
B = 2^-13 (12 H + 2) in units of 2^-40.  When E 2^40 lies farther than the
margin M = 2^-12 (12 E + 16) from a half-integer, it is rounded directly:
since H <= E + 1, M >= 2B, so the true value lies on the same side of that
half-integer, more than B from it.  Otherwise, or for D of 2^100 or more,
that mask is computed exactly as log2 D - (sum W ln W) / (D ln 2) in stdlib
decimal at 30 significant digits.  Each ln, product, sum and quotient there
has relative error at most 0.5e-29, so with at most 10^6 cells and D below
2^100 the result is off by under 1e-21 bits, over 10^8 times below half a
2^-40 step and far below B.  Both paths therefore round to the same integer,
the one the exact path alone gives.  With at most 10^6 < 2^20 cells, H < 20
and M < 1/16, so at most about one mask in eight takes the exact path; at
H <= 4 bits, M <= 1/64.

The chain of optimal resolutions is fixed, with no LP: the wrap-around ones,
averaged over lambda's symmetry so that every step is Shannon-type, which
the tests prove at L <= 4.  A ``ResolutionChain`` holds one member's chain,
built once per run: its resolutions, and each step as one integer row over
the masks, so that a check against an entropy vector is one integer dot
product per step with the numerators over 2^40.  Han's inequality and the
chain allow a 2^-30 slack in the >= direction.  A chain step weighs at most
f_{a-1} + f_a <= 12 entropies at L <= 4, each off by under 2^-41 + 1e-21, so
rounding moves it by under 2^-37, 128 times below the slack: a true instance
never flips.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from math import comb, floor, fsum, lcm, log2

from .errors import ResourceLimitError
from .resolution import LambdaVector, Resolution, optimal_resolution
from .rng import SplitMix64, random_pmf

ENTROPY_DENOM_BITS = 40
_SLACK_UNITS = 1 << 10  # the comparison slack in units of 2^-40
COMPARISON_SLACK = Fraction(_SLACK_UNITS, 1 << ENTROPY_DENOM_BITS)

MAX_ENTROPY_LEVELS = 5
MAX_ENTROPY_CELLS = 10 ** 6
MAX_CHAIN_LEVELS = 4

_WORK_DIGITS = 30
_FILTER_DENOM_BITS = 100  # the float filter's bound holds for D below 2^100


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

    @functools.cached_property
    def numerators(self) -> tuple[int, ...]:
        """2^40 H_u as an int for every mask u, the empty one included."""
        scaled = []
        for mask in range(1 << self.L):
            h = self[mask] * (1 << ENTROPY_DENOM_BITS)
            if h.denominator != 1:
                raise ValueError("entropies must be multiples of 2^-40")
            scaled.append(h.numerator)
        return tuple(scaled)


def _float_numerator(weights, denom: int) -> int | None:
    """round(2^40 H) from the float estimate, or None where the module
    docstring's bound cannot vouch for it: near a half-integer, or D too large."""
    if denom >> _FILTER_DENOM_BITS:
        return None
    bits = fsum(w / denom * log2(denom / w) for w in weights)
    scaled = bits * (1 << ENTROPY_DENOM_BITS)
    if abs(scaled - floor(scaled) - 0.5) > (12 * bits + 16) / 4096:
        return round(scaled)
    return None


def _exact_numerator(weights, denom: int, ln) -> int:
    """round(2^40 H) in the current decimal context, with ``ln`` its logs."""
    ln2 = ln(2)
    bits = ln(denom) / ln2 - sum(w * ln(w) for w in weights) / (denom * ln2)
    return int((bits * (1 << ENTROPY_DENOM_BITS)).to_integral_value())


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
        for mask in range(1, 1 << L):
            coords = [i for i in range(L) if mask >> i & 1]
            marginal: dict[tuple[int, ...], int] = {}
            for outcome, w in weights.items():
                key = tuple(outcome[i] for i in coords)
                marginal[key] = marginal.get(key, 0) + w
            scaled = _float_numerator(marginal.values(), denom)
            if scaled is None:
                scaled = _exact_numerator(marginal.values(), denom, ln)
            values[mask] = Fraction(scaled, 1 << ENTROPY_DENOM_BITS)
    return EntropyVector(L, values)


def han_check(ev: EntropyVector) -> bool:
    """Averages of H over k-subsets, normalized by k, must fall with k.

    Level sums are added as numerators over 2^40 and the averages compared
    cross-multiplied, all in ints."""
    L = ev.L
    level_sum = [0] * (L + 1)
    for mask, n in enumerate(ev.numerators):
        level_sum[bin(mask).count("1")] += n
    for a in range(2, L + 1):
        lower, upper = comb(L - 1, a - 2), comb(L - 1, a - 1)
        if level_sum[a - 1] * upper < level_sum[a] * lower - _SLACK_UNITS * lower * upper:
            return False
    return True


def check_chain_levels(L: int) -> None:
    if L > MAX_CHAIN_LEVELS:
        raise ResourceLimitError(f"chain feasibility limited to L <= {MAX_CHAIN_LEVELS}")


def _orbits(lv: LambdaVector) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], list[int]]]:
    """Each mask's orbit under the permutations that fix lambda, keyed by its
    count in every block of equal components, and the masks of every key."""
    blocks: dict[Fraction, int] = {}
    for i, c in enumerate(lv):
        blocks[c] = blocks.get(c, 0) | 1 << i
    keys = [tuple(bin(mask & block).count("1") for block in blocks.values())
            for mask in range(1 << lv.L)]
    members: dict[tuple[int, ...], list[int]] = {}
    for mask, key in enumerate(keys):
        members.setdefault(key, []).append(mask)
    return keys, members


def symmetric_resolution(lam, alpha: int, orbits=None) -> Resolution:
    """``optimal_resolution`` averaged over the permutations that fix lambda,
    those within each block of equal components: each weight-alpha mask gets
    the mean weight of the masks with its count in every block.  An average
    of optimal resolutions is optimal: its column sums stay at most lambda
    and its total stays f_alpha.  ``orbits`` is ``_orbits(lambda)``, which a
    caller averaging at several alpha computes once.  Walks all 2^L masks, so
    L must be small."""
    lv = LambdaVector.coerce(lam)
    keys, members = orbits or _orbits(lv)
    totals: dict[tuple[int, ...], Fraction] = {}
    for mask, w in optimal_resolution(lv, alpha).weights.items():
        totals[keys[mask]] = totals.get(keys[mask], Fraction(0)) + w
    return Resolution(lv.L, alpha, {mask: total / len(members[key])
                                    for key, total in totals.items() for mask in members[key]})


@dataclass(frozen=True)
class ResolutionChain:
    """A generator-set member's fixed chain, built once and checked against
    any number of entropy vectors.

    ``resolutions`` are ``symmetric_resolution``'s at alpha = 1..L.  Step a
    requires sum w_{a-1}(m) H_m >= sum w_a(m) H_m - slack; it is kept as the
    integer row c(m) = (w_{a-1}(m) - w_a(m)) den over the masks m, den the
    lcm of those weight denominators, and the floor -den 2^40 slack, which
    the dot product of c with the entropy numerators over 2^40 must reach.
    """

    L: int
    resolutions: tuple[Resolution, ...]
    steps: tuple[tuple[tuple[tuple[int, int], ...], int], ...]

    @classmethod
    def coerce(cls, value) -> "ResolutionChain":
        """The chain itself, or the chain of a generator-set member lambda."""
        if isinstance(value, cls):
            return value
        lv = LambdaVector.coerce(value)
        check_chain_levels(lv.L)
        if lv.theta_seq is None:
            raise ValueError("lambda is not in the generator set")
        orbits = _orbits(lv)
        resolutions = tuple(symmetric_resolution(lv, a, orbits) for a in range(1, lv.L + 1))
        steps = []
        for lower, upper in zip(resolutions, resolutions[1:]):
            # the two levels' masks differ in weight, so they never overlap
            diff = {**lower.weights, **{m: -w for m, w in upper.weights.items()}}
            den = lcm(*(w.denominator for w in diff.values()))
            row = tuple((m, w.numerator * (den // w.denominator)) for m, w in diff.items() if w)
            steps.append((row, -den * _SLACK_UNITS))
        return cls(lv.L, resolutions, tuple(steps))


def chain_feasibility(chain, ev: EntropyVector) -> tuple[bool, tuple[Resolution, ...] | None]:
    """One optimal resolution per level whose entropy-weighted totals descend.

    ``chain`` is a ``ResolutionChain`` or a lambda to build one for; its
    resolutions are ``symmetric_resolution``'s, whatever the entropies, and
    only generator-set members are accepted.  The tests prove each step
    Shannon-type at L <= 4, so it holds for every distribution.
    """
    chain = ResolutionChain.coerce(chain)
    if chain.L != ev.L:
        raise ValueError("lambda and entropy vector dimensions differ")
    numerators = ev.numerators
    for row, least in chain.steps:
        if sum(c * numerators[m] for m, c in row) < least:
            return False, None
    return True, chain.resolutions


def random_joint_distribution(rng: SplitMix64, alphabet_sizes,
                              denom_bits: int = 16) -> JointDistribution:
    """Exact random pmf: integer weights below 2^denom_bits, normalized."""
    sizes = tuple(int(s) for s in alphabet_sizes)
    cells = list(itertools.product(*(range(s) for s in sizes)))
    probs = random_pmf(rng, len(cells), denom_bits)
    return JointDistribution(sizes, dict(zip(cells, probs)))
