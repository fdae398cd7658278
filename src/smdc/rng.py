"""Deterministic randomness for the randomized verbs and test batches.

The generator is SplitMix64: 64 bits of state advanced by the golden-gamma
increment, output mixed by two xor-shift-multiply rounds.  It is tiny, fast,
platform-independent, and fully specified here, so every seeded run is
byte-reproducible.
"""

from __future__ import annotations

from fractions import Fraction

_MASK64 = (1 << 64) - 1

# Grids for random exact rationals: numerators 0..16 over small denominators.
_NUMERATORS = 17
_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection; n <= 2^64."""
        if not 1 <= n <= _MASK64 + 1:
            raise ValueError("randrange needs 1 <= n <= 2^64")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def random_fraction(rng: SplitMix64, allow_zero: bool = True) -> Fraction:
    """A rational from the fixed grid {k/d : k <= 16, d in small set}."""
    lo = 0 if allow_zero else 1
    num = lo + rng.randrange(_NUMERATORS - lo)
    return Fraction(num, rng.choice(_DENOMINATORS))


def random_positive_entropies(rng: SplitMix64, length: int) -> tuple[Fraction, ...]:
    return tuple(random_fraction(rng, allow_zero=False) for _ in range(length))


def random_boundary_query(rng: SplitMix64, length: int):
    """(rates, entropies) straddling the region boundary.

    Starts from the symmetric tight point R_l = sum_a H_a/a (it meets the
    all-ones inequality with equality), optionally jitters upward, then scales
    by an exact factor in [3/4, 5/4] so roughly half the draws fall outside.
    """
    entropies = random_positive_entropies(rng, length)
    base = sum(h / (a + 1) for a, h in enumerate(entropies))
    rates = [base] * length
    if rng.randrange(2):
        rates = [r + random_fraction(rng) / 4 for r in rates]
    mu = Fraction(3, 4) + Fraction(rng.randrange(33), 64)
    return tuple(mu * r for r in rates), entropies


def random_pmf(rng: SplitMix64, num_cells: int, denom_bits: int = 16) -> list[Fraction]:
    """Exact probabilities: integer weights < 2**denom_bits, normalized by their sum."""
    while True:
        weights = [rng.randrange(1 << denom_bits) for _ in range(num_cells)]
        total = sum(weights)
        if total:
            return [Fraction(w, total) for w in weights]
