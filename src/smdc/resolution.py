"""The resolution function f_alpha and optimal alpha-resolutions.

An alpha-resolution for a nonnegative coefficient vector lambda puts
nonnegative weights on the Hamming-weight-alpha binary vectors so that the
per-component weight sums stay below lambda; f_alpha(lambda) is the maximum
total weight.  The closed form evaluates tail averages

    g(beta) = (sum of the L - beta smallest-ordered components) / (alpha - beta)

and takes the minimum over beta, which a forward scan locates because g is
pseudo-convex in beta.  The scan runs on integer suffix sums over one common
denominator, the lcm of the component denominators, and is the only source of
f: ``f_vector``, ``f_alpha``, ``beta_star``, ``g_value``, the period of
``optimal_resolution`` and the integer region row of ``scaled_row`` all
read it.  An optimal resolution is built from the
scan stop by McNaughton's wrap-around rule, without an LP; the defining LP is
kept as an independent oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LambdaVector:
    """Nonnegative rational coefficient vector, not all zero.

    Immutable; the ordered view, nonzero count and theta-sequence are computed
    lazily and cached.  Components are stored exactly as given (no implicit
    normalization); ``normalized()`` splits off the scale when needed.
    """

    components: tuple[Fraction, ...]

    def __post_init__(self):
        comps = tuple(c if isinstance(c, Fraction) else Fraction(c)
                      for c in self.components)
        if not comps:
            raise ValueError("lambda vector must have at least one component")
        signs = [c.numerator for c in comps]  # int tests, cheaper than Fraction ones
        if min(signs) < 0:
            raise ValueError("lambda components must be nonnegative")
        if not any(signs):
            raise ValueError("lambda vector must not be all zero")
        object.__setattr__(self, "components", comps)

    @classmethod
    def coerce(cls, value) -> "LambdaVector":
        if isinstance(value, cls):
            return value
        return cls(tuple(value))

    @classmethod
    def member(cls, components, theta_seq: tuple[int, ...]) -> "LambdaVector":
        """A generator member, whose components are already non-increasing
        (zeros last) and whose theta-sequence the caller holds: both caches
        are filled instead of being recomputed."""
        lv = cls(components)
        object.__setattr__(lv, "sorted_desc", lv.components)
        object.__setattr__(lv, "theta_seq", theta_seq)
        return lv

    @property
    def L(self) -> int:
        return len(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Permutation pi: order[j] is the index of the (j+1)-th largest component."""
        return tuple(sorted(range(self.L), key=lambda i: (-self.components[i], i)))

    @cached_property
    def sorted_desc(self) -> tuple[Fraction, ...]:
        return tuple(self.components[i] for i in self.order)

    @cached_property
    def zeta(self) -> int:
        """Number of nonzero components."""
        return sum(1 for c in self.components if c)

    @property
    def min_nonzero(self) -> Fraction:
        return self.sorted_desc[self.zeta - 1]

    @property
    def is_normalized(self) -> bool:
        return self.min_nonzero == 1

    def normalized(self) -> tuple[Fraction, "LambdaVector"]:
        """(scale mu, unit vector) with self = mu * unit and min nonzero of unit = 1."""
        mu = self.min_nonzero
        if mu == 1:
            return Fraction(1), self
        return mu, LambdaVector(tuple(c / mu for c in self.components))

    @cached_property
    def theta_seq(self) -> tuple[int, ...] | None:
        """theta_{zeta-1}, ..., theta_1 when the vector belongs to the generator
        set (each ordered component is an exact unit fraction of its tail sum,
        with theta_j <= theta_{j+1} + 1); None otherwise.  Scale matters: only
        vectors whose minimum nonzero component is 1 are members."""
        if not self.is_normalized:
            return None
        lam = self.sorted_desc
        thetas: list[int] = []
        prev = 0
        tail = sum(lam[self.zeta:], Fraction(0)) + lam[self.zeta - 1]  # = 1 + zeros
        for j in range(self.zeta - 1, 0, -1):  # positions j (1-based), bottom-up
            value = lam[j - 1]
            ratio = tail / value
            if ratio.denominator != 1 or not 1 <= ratio <= prev + 1:
                return None
            prev = int(ratio)
            thetas.append(prev)
            tail += value
        return tuple(thetas)

    @property
    def theta(self) -> int | None:
        """Display parameter theta_1 (0 for the single-nonzero vector)."""
        seq = self.theta_seq
        if seq is None:
            return None
        return seq[-1] if seq else 0

    def permuted(self, perm) -> "LambdaVector":
        return LambdaVector(tuple(self.components[p] for p in perm))


@dataclass(frozen=True)
class FVector:
    """All L resolution-function values plus the minimizing scan positions."""

    values: tuple[Fraction, ...]
    beta_stars: tuple[int, ...]


@dataclass
class Resolution:
    """Sparse weights on weight-alpha bitmasks; bit i is component i."""

    L: int
    alpha: int
    weights: dict[int, Fraction]

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def column_sums(self) -> tuple[Fraction, ...]:
        """Per-component weight sums, added as ints over the lcm d of the
        weight denominators; each is divided by d once."""
        d = lcm(*(w.denominator for w in self.weights.values()))
        sums = [0] * self.L
        for mask, w in self.weights.items():
            w = w.numerator * (d // w.denominator)
            while mask:
                low = mask & -mask
                sums[low.bit_length() - 1] += w
                mask ^= low
        return tuple(Fraction(s, d) for s in sums)

    def mask_string(self, mask: int) -> str:
        return format(mask, f"0{self.L}b")[::-1]


def _suffix_sums(components: tuple[Fraction, ...]) -> tuple[list[int], int, list[int]]:
    """(suffix, d, ints): ints are the components times d, the lcm of their
    denominators, in the given order, and suffix[b] / d is the sum of the
    components at ordered positions b+1..L (1-based), the L - b smallest."""
    d = lcm(*(c.denominator for c in components))
    ints = [c.numerator * (d // c.denominator) for c in components]
    return list(accumulate(sorted(ints), initial=0))[::-1], d, ints


def _check_alpha(L: int, alpha: int) -> None:
    if not 1 <= alpha <= L:
        raise ValueError(f"alpha must be in 1..{L}, got {alpha}")


def g_value(lam, alpha: int, beta: int) -> Fraction:
    """Tail average (1/(alpha-beta)) * sum of the ordered components after beta."""
    lv = LambdaVector.coerce(lam)
    _check_alpha(lv.L, alpha)
    if not 0 <= beta <= alpha - 1:
        raise ValueError(f"beta must be in 0..{alpha - 1}, got {beta}")
    suffix, d, _ = _suffix_sums(lv.components)
    return Fraction(suffix[beta], d * (alpha - beta))


def _beta_scan(suffix: list[int], alpha: int, start: int = 0) -> int:
    """First beta >= start with g(beta) <= g(beta+1); pseudo-convexity makes it
    the smallest minimizer.  Cross-multiplied, so the test is on ints."""
    for beta in range(start, alpha - 1):
        if suffix[beta] * (alpha - beta - 1) <= suffix[beta + 1] * (alpha - beta):
            return beta
    return alpha - 1


def beta_star(lam, alpha: int) -> int:
    """Smallest minimizer of g over beta in 0..alpha-1, by forward scan."""
    lv = LambdaVector.coerce(lam)
    _check_alpha(lv.L, alpha)
    return _beta_scan(_suffix_sums(lv.components)[0], alpha)


def f_alpha(lam, alpha: int) -> Fraction:
    """Closed-form optimum of the alpha-resolution program: g at the scan stop."""
    lv = LambdaVector.coerce(lam)
    _check_alpha(lv.L, alpha)
    suffix, d, _ = _suffix_sums(lv.components)
    beta = _beta_scan(suffix, alpha)
    return Fraction(suffix[beta], d * (alpha - beta))


def _scan(lv: LambdaVector) -> tuple[list[int], int, list[int], list[int]]:
    """``_suffix_sums`` of lambda and the scan stop at each alpha; each scan
    resumes where the previous one stopped (the minimizers are weakly
    increasing in alpha)."""
    suffix, d, ints = _suffix_sums(lv.components)
    betas: list[int] = []
    beta = 0
    for alpha in range(1, lv.L + 1):
        beta = _beta_scan(suffix, alpha, start=beta)
        betas.append(beta)
    return suffix, d, ints, betas


def f_vector(lam) -> FVector:
    """All f values at once, from one scan."""
    suffix, d, _, betas = _scan(LambdaVector.coerce(lam))
    return FVector(tuple(Fraction(suffix[b], d * (a - b)) for a, b in enumerate(betas, 1)),
                   tuple(betas))


def scaled_row(lam) -> tuple[list[int], int]:
    """(ints, D): D (lambda | -f(lambda)) as integers, lambda in the caller's
    component order, from the same scan as ``f_vector``.  D is d times the
    lcm of the scan's alpha - beta*, so f_alpha = -ints[L + alpha - 1] / D."""
    suffix, d, ints, betas = _scan(LambdaVector.coerce(lam))
    spans = [a - b for a, b in enumerate(betas, 1)]
    m = lcm(*spans)
    return ([v * m for v in ints]
            + [-suffix[b] * (m // s) for b, s in zip(betas, spans)]), d * m


def optimal_resolution(lam, alpha: int) -> Resolution:
    """A resolution attaining f_alpha(lambda), in the caller's component order.

    The beta* largest ordered components appear in every support vector; the
    m = alpha - beta* tail components are packed by McNaughton's wrap-around
    rule (McNaughton 1959, Management Science 6(1)).  Lay them end to end on
    a line of length m*T, T = (tail sum)/m = f_alpha, and cut it into m
    rows of length T.  Read across the rows, each slice between consecutive
    component start points (taken mod T) meets m components, one per row, and
    its length is that mask's weight: every component keeps its own length
    and the weights sum to T.  This is exact because:

    - the scan's stop test g(beta*) <= g(beta*+1) is lambda_{beta*+1} * m <=
      suffix[beta*], so no tail component is longer than T and none meets a
      slice twice (an unstopped scan has m = 1, where this is trivial);
    - beta* is the smallest minimizer, so lambda_{beta*} * (m + 1) >
      suffix[beta* - 1], i.e. lambda_{beta*} > T: every prefix component
      covers its total weight T;
    - each slice starts at a component start point, so the support has at
      most L - beta* vectors (zero components take up no length).
    """
    lv = LambdaVector.coerce(lam)
    _check_alpha(lv.L, alpha)
    if alpha > lv.zeta:
        return Resolution(lv.L, alpha, {})
    suffix, d, _ = _suffix_sums(lv.components)
    beta = _beta_scan(suffix, alpha)
    period = Fraction(suffix[beta], d * (alpha - beta))
    mask = 0  # the components that meet offset 0
    for j in range(beta):
        mask |= 1 << lv.order[j]
    toggles: dict[Fraction, int] = {}  # offset -> components entering or leaving there
    end = _ZERO
    for j in range(beta, lv.zeta):
        bit = 1 << lv.order[j]
        start, end = end, (end + lv.sorted_desc[j]) % period
        if start:
            toggles[start] = toggles.get(start, 0) ^ bit
        if end:
            toggles[end] = toggles.get(end, 0) ^ bit
        if not start or 0 < end <= start:  # starts a row, or wraps into the next
            mask |= bit
    weights: dict[int, Fraction] = {}
    offset = _ZERO
    for cut in sorted(toggles) + [period]:
        weights[mask] = weights.get(mask, _ZERO) + (cut - offset)
        mask ^= toggles.get(cut, 0)
        offset = cut
    return Resolution(lv.L, alpha, weights)


def verify_resolution(lam, res: Resolution, expected_total) -> bool:
    """Exact feasibility and total check of a resolution against lambda."""
    lv = LambdaVector.coerce(lam)
    if res.L != lv.L:
        raise ValueError("resolution and lambda dimensions differ")
    for mask, w in res.weights.items():
        if w < 0 or not 0 < mask < (1 << lv.L) or bin(mask).count("1") != res.alpha:
            return False
    if any(s > c for s, c in zip(res.column_sums(), lv.components)):
        return False
    return res.total() == Fraction(expected_total)
