"""Fourier-Motzkin cross-check of the region.

Projects the per-level allocation system onto the (rates, entropies) space by
eliminating all L^2 allocation variables, keeping the entropy profile as
formal nonnegative parameter columns.  Every surviving row then reads

    lambda . R - f . H >= 0,

directly comparable with the generated inequality set.

Row bookkeeping during elimination: canonical integer scaling with exact
dedup, the Imbert/Chernikov ancestor-count cutoff, and pairwise domination
pruning (sound here because the projection is only ever used over the
nonnegative orthant and the allocation variables keep their nonnegativity
rows until eliminated).  The final projected system is made irredundant by
exact LP, one implication test per orbit of rows under permuted rates: the
irredundant rows are the cone's facet rows, which such permutations preserve.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import ge

from .errors import ResourceLimitError
from .lp import LinearProgram, Relation, Status, solve
from .region import Inequality, primitive
from .resolution import LambdaVector

MAX_FM_LEVELS = 4


def _project_allocation_system(L: int) -> list[tuple[int, ...]]:
    """Eliminate the L^2 allocation columns; returns primitive rows over
    (R_1..R_L, H_1..H_L), each meaning row . x >= 0."""
    nr = L * L  # allocation columns, index l*L + (a-1)
    ncols = nr + 2 * L
    r_col = lambda l, a: l * L + (a - 1)

    rows: list[list[int]] = []
    # level coverage: sum_{l in U} r[l][a] >= H_a
    for a in range(1, L + 1):
        for subset in itertools.combinations(range(L), a):
            row = [0] * ncols
            for l in subset:
                row[r_col(l, a)] = 1
            row[nr + L + (a - 1)] = -1
            rows.append(row)
    # nonnegativity of every allocation variable
    for j in range(nr):
        row = [0] * ncols
        row[j] = 1
        rows.append(row)

    # Gaussian substitution of the rate equalities: r[l][1] = R_l - sum_{a>=2} r[l][a]
    for l in range(L):
        expr = [0] * ncols  # r[l][1] equals expr . x
        expr[nr + l] = 1
        for a in range(2, L + 1):
            expr[r_col(l, a)] = -1
        col = r_col(l, 1)
        for row in rows:
            c = row[col]
            if c:
                row[col] = 0
                for k in range(ncols):
                    if expr[k]:
                        row[k] += c * expr[k]

    remaining = [r_col(l, a) for l in range(L) for a in range(2, L + 1)]
    work: dict[tuple[int, ...], frozenset[int]] = {}
    for i, row in enumerate(rows):
        key = primitive(tuple(row))
        if any(key):
            work.setdefault(key, frozenset([i]))

    eliminated = 0
    while remaining:
        # cheapest column first: fewest positive*negative combinations
        def cost(col):
            pos = sum(1 for r in work if r[col] > 0)
            neg = sum(1 for r in work if r[col] < 0)
            return pos * neg, col
        col = min(remaining, key=cost)
        remaining.remove(col)
        eliminated += 1

        pos, neg, keep = [], [], {}
        for row, hist in work.items():
            if row[col] > 0:
                pos.append((row, hist))
            elif row[col] < 0:
                neg.append((row, hist))
            else:
                keep[row] = hist
        for (rp, hp), (rn, hn) in itertools.product(pos, neg):
            hist = hp | hn
            if len(hist) > eliminated + 1:
                continue  # ancestor-count cutoff: such a row is redundant
            combo = primitive(tuple(rp[k] * -rn[col] + rn[k] * rp[col] for k in range(ncols)))
            if any(combo) and (combo not in keep or len(keep[combo]) > len(hist)):
                keep[combo] = hist
        work = _dominate(keep, protected_cols=set(remaining))

    out = sorted(tuple(row[nr:]) for row in work)
    return [row for row in out if any(row)]


def _dominate(work: dict[tuple[int, ...], frozenset[int]],
              protected_cols: set[int]) -> dict[tuple[int, ...], frozenset[int]]:
    """Drop rows b with b >= a componentwise for some kept a (x >= 0 makes b
    implied).  Unit nonnegativity rows of still-present allocation columns are
    never dropped; domination reasoning relies on them."""
    items = sorted(work.items())
    kept: list[tuple[tuple[int, ...], frozenset[int]]] = []
    out: dict[tuple[int, ...], frozenset[int]] = {}
    for row, hist in items:
        protected = sum(row) == 1 and row.count(1) == 1 and \
            any(row[c] == 1 for c in protected_cols)
        if not protected and any(all(map(ge, row, other)) for other, _ in kept):
            continue
        kept.append((row, hist))
        out[row] = hist
    return out


def _implied_homogeneous(target: tuple[int, ...], others: list[tuple[int, ...]]) -> bool:
    """target . x >= 0 for every x >= 0 satisfying the other rows?

    Tested in Farkas form: the target is implied iff it dominates a
    nonnegative combination of the other rows, i.e. some y >= 0 has
    (others)^T y <= target componentwise.  Polyhedral cone duality makes this
    exact, and the LP has only one row per column of the original system.
    """
    if not others:
        return all(c >= 0 for c in target)
    lp = LinearProgram(len(others))
    for k in range(len(target)):
        lp.add([row[k] for row in others], Relation.LE, target[k])
    return solve(lp).status is Status.FEASIBLE


def _minimize_system(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Irredundant subsystem, one exact LP implication test per orbit.

    The projected cone over (R, H) >= 0 is full-dimensional, so its facet rows
    are unique up to scaling (Ziegler 1995, ch. 2); the rows are primitive and
    deduplicated, so a kept row is implied by the rest and x >= 0 exactly when
    it is no facet row or a unit row, in any removal order.  Permuting the
    encoders maps the allocation system, hence its facets, to itself: one row
    decides its whole orbit under permutations of R (H unchanged)."""
    L = len(rows[0]) // 2
    orbits: dict[tuple, list[tuple[int, ...]]] = {}
    for row in sorted(set(rows)):
        orbits.setdefault((tuple(sorted(row[:L], reverse=True)), row[L:]), []).append(row)
    kept = set(rows)
    for orbit in orbits.values():
        if _implied_homogeneous(orbit[0], sorted(kept - {orbit[0]})):
            kept.difference_update(orbit)
    return sorted(kept)


def _row_to_inequality(row: tuple[int, ...], L: int) -> Inequality:
    """The projected row as an Inequality; being primitive, it is the
    Inequality's integer row as it stands."""
    lam = tuple(Fraction(c) for c in row[:L])
    f = tuple(Fraction(-c) for c in row[L:])
    if any(c < 0 for c in lam) or any(v < 0 for v in f) or not any(lam):
        raise AssertionError(f"projected row is not region-shaped: {row}")
    scale = min(c for c in lam if c)
    lv = LambdaVector(tuple(c / scale for c in lam))
    return Inequality(lv, tuple(v / scale for v in f), row)


def _inequality_sort_key(ineq: Inequality):
    seq = ineq.lam.theta_seq
    if seq is not None:
        return (0, ineq.lam.zeta, tuple(-t for t in seq), ineq.lam.components)
    return (1, ineq.lam.zeta, (), ineq.lam.components)


def fourier_motzkin_region(L: int) -> list[Inequality]:
    """Projected system, one Inequality per row, irredundant over R, H >= 0."""
    if not 1 <= L <= MAX_FM_LEVELS:
        raise ResourceLimitError(f"Fourier-Motzkin limited to 1 <= L <= {MAX_FM_LEVELS}")
    rows = _minimize_system(_project_allocation_system(L))
    ineqs = [_row_to_inequality(row, L) for row in rows]
    return sorted(ineqs, key=_inequality_sort_key)


def systems_equivalent(a: list[Inequality], b: list[Inequality]) -> bool:
    """Mutual implication over the nonnegative (R, H) cone; shared rows need no LP."""
    rows_a = [i.row for i in a]
    rows_b = [i.row for i in b]
    return (all(_implied_homogeneous(r, rows_b) for r in set(rows_a).difference(rows_b))
            and all(_implied_homogeneous(r, rows_a) for r in set(rows_b).difference(rows_a)))
