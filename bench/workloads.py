"""Seeded op streams for the benchmark workloads.

Every op is one ``smdc`` command line.  Inputs come from the benchmark's own
``random.Random(seed)``, never from ``smdc.rng``, so a change to the package's
generator cannot change a workload.  Each workload is an endless sequence of
blocks; a block holds every op kind in the workload's fixed ratio, shuffled.
Runs measure whole blocks only, so every run sees the same mix whatever its
length, and the heavy op kinds (L=10 scans, ``fm-compare --levels 4``) cannot
land in a run by chance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

# Grid of verify-equivalence draws: numerators 0..16 over these denominators.
GRID_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)
# Tie-heavy grid for resolution components.
RESOLUTION_GRID = tuple(Fraction(x) for x in ("1/2", "1", "3/2", "2", "3"))
CLOSURE_ROWS_L4 = 53
ENTROPY_TRIALS = 3


class Op(NamedTuple):
    kind: str                    # op kind, e.g. "check-both L=7"
    argv: tuple[str, ...]        # smdc command line
    params: dict                 # the drawn inputs, for output validation


class Workload(NamedTuple):
    block: Callable[[random.Random], list[Op]]
    warmups: tuple[Op, ...]      # one fixed op per kind, run before timing


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_list(values) -> str:
    return ",".join(fmt(v) for v in values)


def grid_fraction(rng: random.Random, low: int = 0) -> Fraction:
    return Fraction(rng.randint(low, 16), rng.choice(GRID_DENOMINATORS))


def boundary_query(rng: random.Random, L: int, above: bool):
    """Rates straddling the all-ones inequality, drawn as verify-equivalence
    draws them: the symmetric tight point R_l = sum_a H_a/a, jittered upward
    half the time, then scaled by mu = 3/4 + k/64.

    The draw is stratified so that the construction forces the verdict.
    ``above`` picks k in 16..32: mu >= 1 and the region is upward closed, so
    the rates are achievable.  Otherwise k is in 0..15 and there is no
    jitter: mu < 1 scales the tight point below the all-ones row.
    """
    entropies = [grid_fraction(rng, 1) for _ in range(L)]
    base = sum(h / a for a, h in enumerate(entropies, 1))
    rates = [base] * L
    if above and rng.randrange(2):
        rates = [r + grid_fraction(rng) / 4 for r in rates]
    k = rng.randrange(16, 33) if above else rng.randrange(16)
    mu = Fraction(3, 4) + Fraction(k, 64)
    return [mu * r for r in rates], entropies


def check_op(L: int, method: str, rates, entropies, expected: bool) -> Op:
    argv = ("check", "--levels", str(L), "--rates", fmt_list(rates),
            "--entropies", fmt_list(entropies), "--method", method)
    return Op(f"check-{method} L={L}", argv,
              {"L": L, "rates": tuple(rates), "entropies": tuple(entropies),
               "expected": expected})


def tight_check_op(L: int, method: str) -> Op:
    """The symmetric tight point with unit entropies: achievable, full scan."""
    entropies = [Fraction(1)] * L
    rate = sum(Fraction(1, a) for a in range(1, L + 1))
    return check_op(L, method, [rate] * L, entropies, expected=True)


def zero_check_op(L: int, method: str) -> Op:
    """Zero rates with unit entropies: rejected by the first row."""
    return check_op(L, method, [Fraction(0)] * L, [Fraction(1)] * L, expected=False)


def drawn_check_ops(rng: random.Random, method: str, counts) -> list[Op]:
    """counts holds (L, queries below the boundary, queries above it)."""
    ops = []
    for L, below, above in counts:
        for side, n in ((False, below), (True, above)):
            for _ in range(n):
                rates, entropies = boundary_query(rng, L, side)
                ops.append(check_op(L, method, rates, entropies, expected=side))
    return ops


def gen_op(L: int) -> Op:
    return Op(f"gen L={L}", ("gen", "--levels", str(L), "--format", "json"), {"L": L})


def resolution_op(lam, alpha: int) -> Op:
    argv = ("resolution", "--lambda", fmt_list(lam), "--alpha", str(alpha))
    return Op(f"resolution L={len(lam)}", argv, {"lam": tuple(lam), "alpha": alpha})


def redundancy_op(index: int) -> Op:
    return Op("redundancy L=4", ("redundancy", "--levels", "4", "--index", str(index)),
              {"L": 4, "index": index})


def fm_op(L: int) -> Op:
    return Op(f"fm-compare L={L}", ("fm-compare", "--levels", str(L)), {"L": L})


def entropy_op(seed: int) -> Op:
    argv = ("subset-entropy", "--levels", "4", "--trials", str(ENTROPY_TRIALS),
            "--seed", str(seed))
    return Op("subset-entropy L=4", argv, {"L": 4, "trials": ENTROPY_TRIALS})


def _shuffled(rng: random.Random, ops: list[Op]) -> list[Op]:
    rng.shuffle(ops)
    return ops


def membership_block(rng: random.Random) -> list[Op]:
    # L = 5, 6, 7 in the ratio 1:2:1, each split evenly across the boundary.
    return _shuffled(rng, drawn_check_ops(rng, "both", ((5, 1, 1), (6, 2, 2), (7, 1, 1))))


def tables_block(rng: random.Random) -> list[Op]:
    # Checks at L = 9, 10 in the ratio 3:1, and checks to gens 4:1.  Two
    # thirds of the L=9 checks are achievable, so the median op is a full scan
    # of the ordered rows, the work a cached region table removes.
    ops = drawn_check_ops(rng, "ineq", ((9, 2, 4), (10, 1, 1)))
    return _shuffled(rng, ops + [gen_op(9), gen_op(10)])


def resolve_block(rng: random.Random) -> list[Op]:
    # Every (L, alpha) once per block: alpha is uniform in 1..L for each L.
    ops = []
    for L in (10, 11, 12):
        for alpha in range(1, L + 1):
            lam = [rng.choice(RESOLUTION_GRID) for _ in range(L)]
            ops.append(resolution_op(lam, alpha))
    return _shuffled(rng, ops)


def certify_block(rng: random.Random) -> list[Op]:
    # redundancy : fm-compare : subset-entropy = 14 : 3 : 3; fm at L = 3, 4 as 2:1.
    ops = [redundancy_op(rng.randrange(CLOSURE_ROWS_L4)) for _ in range(14)]
    ops += [fm_op(3), fm_op(3), fm_op(4)]
    ops += [entropy_op(rng.randrange(1 << 32)) for _ in range(3)]
    return _shuffled(rng, ops)


_WARM_LAMBDA = tuple(Fraction(x) for x in ("3", "2", "3/2", "1", "1/2"))

WORKLOADS: dict[str, Workload] = {
    "membership": Workload(
        membership_block,
        tuple(tight_check_op(L, "both") for L in (5, 6, 7))),
    "tables": Workload(
        tables_block,
        # A full scan at L=10 takes seconds; the first-row reject still builds
        # the ordered set, the only per-L state the checks keep.
        tuple(zero_check_op(L, "ineq") for L in (9, 10)) + (gen_op(9), gen_op(10))),
    "resolve": Workload(
        resolve_block,
        tuple(resolution_op([_WARM_LAMBDA[i % 5] for i in range(L)], 3)
              for L in (10, 11, 12))),
    "certify": Workload(
        certify_block,
        (redundancy_op(0), fm_op(3), fm_op(4), entropy_op(0))),
}


def op_stream(name: str, seed: int) -> Iterator[list[Op]]:
    """Endless blocks of the named workload; the same seed gives the same ops."""
    rng = random.Random(seed)
    block = WORKLOADS[name].block
    while True:
        yield block(rng)
