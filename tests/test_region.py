import itertools
import json
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from golden import TABLES
from oracles import (assert_feasible_point, check_achievable_inequalities_fraction,
                     closure_redundancy_lp, superposition_feasibility_lp)
from smdc import region
from smdc.errors import ResourceLimitError
from smdc.generator import count_ordered
from smdc.lp import Status, solve
from smdc.region import (MAX_LP_LEVELS, Inequality, RateQuery,
                         SuperpositionAllocation, check_achievable_inequalities,
                         check_achievable_lp, compact_allocation_lp,
                         list_inequalities, ordered_inequalities,
                         redundancy_certificate, redundancy_certificates)
from smdc.resolution import LambdaVector, f_vector
from smdc.rng import (SplitMix64, random_boundary_query, random_fraction,
                      random_positive_entropies)


def test_rate_query_validation():
    with pytest.raises(ValueError):
        RateQuery((1, 2), (1,))
    with pytest.raises(ValueError):
        RateQuery((-1, 2), (1, 1))
    q = RateQuery(("1/2", 2), (1, 1))
    assert q.rates == (F(1, 2), 2) and q.L == 2


def test_list_inequalities_matches_tables():
    for L, rows in TABLES.items():
        ineqs = list_inequalities(L)
        assert [(tuple(i.lam), i.f_values, i.theta) for i in ineqs] == rows


def test_list_inequalities_examples():
    two = list_inequalities(2)
    assert [(tuple(i.lam), i.f_values) for i in two] == [((1, 0), (1, 0)), ((1, 1), (2, 1))]
    row = next(i for i in list_inequalities(4) if tuple(i.lam) == (3, 1, 1, 1))
    assert row.f_values == (6, 3, F(3, 2), 1) and row.theta == 1
    one = list_inequalities(1)
    assert len(one) == 1 and one[0].f_values == (F(1),)


def test_inequality_recomputable():
    for ineq in list_inequalities(4, ordered_only=False):
        assert Inequality.from_lambda(ineq.lam).f_values == ineq.f_values


def test_table_rows_are_remembered():
    first, second = list_inequalities(7), list_inequalities(7)
    assert len(first) == len(second) == count_ordered(7)
    assert all(a is b for a, b in zip(first, second))


def test_closure_reuses_ordered_f(monkeypatch):
    monkeypatch.setattr(region, "_TABLES", {})
    calls = []
    real = region.scaled_row
    monkeypatch.setattr(region, "scaled_row",
                        lambda lam: calls.append(lam) or real(lam))
    assert len(list_inequalities(4, ordered_only=False)) == 53
    assert len(calls) == count_ordered(4) == 9
    list_inequalities(4, ordered_only=False)
    assert len(calls) == 9


def test_interrupted_table_is_rebuilt(monkeypatch):
    monkeypatch.setattr(region, "_TABLES", {})
    calls = []
    real = region.scaled_row

    def interrupt_fifth(lam):
        calls.append(lam)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return real(lam)

    monkeypatch.setattr(region, "scaled_row", interrupt_fifth)
    with pytest.raises(KeyboardInterrupt):
        list_inequalities(5)
    assert [(tuple(i.lam), i.f_values, i.theta) for i in list_inequalities(5)] == TABLES[5]


def test_row_stream_matches_f_vector_and_theta_seq():
    """Each row's f, scanned over the member's filled ordered view, and its
    theta from the walk equal those recomputed from a fresh lambda: every row
    at L <= 10, and a stride at L = 11, 12 that reaches the zeta = L - 1 and
    zeta = L blocks."""
    def oracle(lam):
        fresh = LambdaVector(lam.components)
        return fresh.components, f_vector(fresh).values, fresh.theta_seq

    def walked(row):
        return row.lam.components, row.f_values, row.lam.theta_seq

    for L in range(1, 11):
        for row in ordered_inequalities(L):
            assert walked(row) == oracle(row.lam)
    for L, stride in ((11, 97), (12, 331)):
        zetas = set()
        for row in itertools.islice(ordered_inequalities(L), 0, None, stride):
            assert walked(row) == oracle(row.lam)
            zetas.add(row.lam.zeta)
        assert {L - 1, L} <= zetas


def test_levels_checked_before_remembering():
    for L in (0, 15):
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                list_inequalities(L)
            with pytest.raises(ResourceLimitError):  # on the call, before any read
                ordered_inequalities(L)


def test_early_reject_stops_at_once():
    ones = (1,) * 13
    start = time.perf_counter()
    verdict = check_achievable_inequalities(RateQuery(ones, ones))
    assert time.perf_counter() - start < 3
    assert not verdict.achievable
    assert tuple(verdict.witness_inequality.lam) == (1, 1) + (0,) * 11


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
          73, 79, 83, 89, 97)


def prime_fraction(rng) -> F:
    """0 one time in five, else k/p with p 1 or a prime up to 97."""
    if rng.randrange(5) == 0:
        return F(0)
    return F(1 + rng.randrange(60), rng.choice((1,) + PRIMES))


def scan_queries(rng, L: int, thorough: bool = True):
    """A random (rates, entropies) draw over prime denominators with zeros,
    and rates h with entropies (h, 0, ..., 0), on every row at once.
    ``thorough`` adds the all-zero rates and entropies, the symmetric tight
    point (on the all-ones row), and the draw scaled onto the row that binds
    it, each on-row point also nudged below.  Rates come in a random order."""
    entropies = tuple(prime_fraction(rng) for _ in range(L))
    rates = tuple(prime_fraction(rng) for _ in range(L))
    h = entropies[0] or F(1, 97)
    draws = [(rates, entropies), ((h,) * L, (h,) + (F(0),) * (L - 1))]
    if thorough:
        tight = sum(h / a for a, h in enumerate(entropies, 1))
        draws += [((F(0),) * L, entropies), (rates, (F(0),) * L), ((tight,) * L, entropies),
                  ((tight * F(9408, 9409),) * L, entropies)]
        ascending = sorted(rates)
        ratios = [row.lhs(ascending) / rhs for row in ordered_inequalities(L)
                  if (rhs := row.rhs(entropies))]
        if min(ratios, default=0):
            on_row = tuple(r / min(ratios) for r in rates)
            draws += [(on_row, entropies), (tuple(r * F(9408, 9409) for r in on_row), entropies)]
    for rates, entropies in draws:
        order = list(range(L))
        for i in range(L - 1, 0, -1):
            j = rng.randrange(i + 1)
            order[i], order[j] = order[j], order[i]
        yield tuple(rates[i] for i in order), entropies


def test_integer_scan_matches_fraction_scan(monkeypatch):
    """Verdict and witness bytes of the integer scan equal the Fraction
    scan's on seeded draws at L = 1..11, L = 11 on streamed rows, and again
    with the rows of L = 6..8 streamed; the on-row draws are achievable,
    equality counting as achievable."""
    rng = SplitMix64(2024)

    def verdicts(L: int, queries) -> set[bool]:
        seen = set()
        for rates, entropies in queries:
            query = RateQuery(rates, entropies)
            got = check_achievable_inequalities(query)
            want = check_achievable_inequalities_fraction(query)
            assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj()), \
                (L, rates, entropies)
            seen.add(got.achievable)
        return seen

    rounds = {L: 6 for L in range(1, 7)} | {7: 4, 8: 3, 9: 2, 10: 1}
    for L, n in rounds.items():
        seen = set().union(*(verdicts(L, scan_queries(rng, L, thorough=L <= 8))
                             for _ in range(n)))
        assert seen == {True, False}, L
    assert verdicts(11, itertools.islice(scan_queries(rng, 11, thorough=False), 1)) == {False}
    monkeypatch.setattr(region, "MAX_REMEMBERED_L", 5)
    for L in (6, 7, 8):
        assert verdicts(L, scan_queries(rng, L)) == {True, False}, L


def test_table_memory_budget(monkeypatch):
    """The L=9 and L=10 tables, integer rows included, take at most 7.44 MiB
    traced: the tables without integer rows peaked at 5.80-5.94 MiB on Python
    3.11-3.13, and the rows may add 1.5 MiB."""
    monkeypatch.setattr(region, "_TABLES", {})
    tracemalloc.start()
    try:
        tables = [list(ordered_inequalities(L)) for L in (9, 10)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(rows) for rows in tables] == [count_ordered(9), count_ordered(10)]
    assert all(len(row.row) == 2 * row.L for rows in tables for row in rows)
    assert peak <= 7.44 * 2 ** 20


def test_check_examples_level2():
    yes = RateQuery((2, 1), (1, 1))
    assert check_achievable_inequalities(yes).achievable
    assert check_achievable_lp(yes).achievable

    no = RateQuery((1, 1), (1, 1))
    vi = check_achievable_inequalities(no)
    assert not vi.achievable
    assert tuple(vi.witness_inequality.lam) == (1, 1)
    assert not check_achievable_lp(no).achievable


def test_zero_query_achievable():
    q = RateQuery((0, 0, 0), (0, 0, 0))
    assert check_achievable_inequalities(q).achievable
    assert check_achievable_lp(q).achievable


def test_lp_examples():
    q = RateQuery((2, 1), (1, 1))
    verdict = check_achievable_lp(q)
    assert verdict.witness_allocation.satisfies(q)
    lp = superposition_feasibility_lp(q)
    assert assert_feasible_point(lp, [1, 1, 1, 0])  # r = [[1,1],[1,0]]

    q3 = RateQuery((1, 1, 1), (1, 0, 0))
    v3 = check_achievable_lp(q3)
    assert v3.achievable and v3.witness_allocation.satisfies(q3)
    assert SuperpositionAllocation(
        ((F(1), F(0), F(0)),) * 3).satisfies(q3)


def test_witness_maps_to_caller_order():
    # rates deliberately unsorted; the violated pairing must apply verbatim
    q = RateQuery((3, 0), (1, 1))
    vi = check_achievable_inequalities(q)
    assert not vi.achievable
    w = vi.witness_inequality
    assert w.lhs(q.rates) < w.rhs(q.entropies)
    assert sorted(w.lam) == sorted(w.lam.sorted_desc)


def test_verdict_json_shapes():
    q = RateQuery((1, 1), (1, 1))
    obj = check_achievable_inequalities(q).to_json_obj()
    assert obj["achievable"] is False and obj["method"] == "ineq"
    assert obj["witness"]["lambda"] == ["1", "1"]
    obj = check_achievable_lp(RateQuery((2, 1), (1, 1))).to_json_obj()
    assert obj["method"] == "lp" and "allocation" in obj["witness"]


def test_redundancy_examples():
    full2 = list_inequalities(2, ordered_only=False)
    idx = next(i for i, r in enumerate(full2) if tuple(r.lam) == (1, 1))
    _, essential, witness = redundancy_certificate(2, idx, (1, 1))
    assert essential and witness == (1, 1)

    for i in range(10):
        _, essential, witness = redundancy_certificate(3, i, (1, 1, 1))
        assert essential and witness is not None

    _, essential, witness = redundancy_certificate(1, 0, (1,))
    assert essential and witness == (0,)


def test_redundancy_witness_is_certified():
    from smdc.lp import LinearProgram, Relation

    L = 3
    ineqs = list_inequalities(L, ordered_only=False)
    ones = (F(1),) * L
    for index in (0, 4, 9):
        _, essential, witness = redundancy_certificate(L, index, ones)
        assert essential
        lp = LinearProgram(L)
        for k, ineq in enumerate(ineqs):
            if k != index:
                lp.add(tuple(ineq.lam), Relation.GE, ineq.rhs(ones))
        assert assert_feasible_point(lp, witness)
        assert ineqs[index].lhs(witness) < ineqs[index].rhs(ones)


def test_redundancy_random_positive_profiles():
    # certificates are not specific to the all-ones profile
    from smdc.rng import SplitMix64, random_positive_entropies

    rng = SplitMix64(77)
    for L in (2, 3):
        n = len(list_inequalities(L, ordered_only=False))
        for _ in range(3):
            entropies = random_positive_entropies(rng, L)
            for index in range(n):
                _, essential, witness = redundancy_certificate(L, index, entropies)
                assert essential and witness is not None


def test_redundancy_rejects_bad_entropies():
    with pytest.raises(ValueError):
        redundancy_certificate(2, 0, (1, 0))
    with pytest.raises(ValueError):
        redundancy_certificate(2, 99, (1, 1))


def satisfies_all_but(closure, index, witness, entropies) -> bool:
    """The witness violates closure row `index` and no other."""
    return all((ineq.lhs(witness) >= ineq.rhs(entropies)) == (k != index)
               for k, ineq in enumerate(closure))


def test_redundancy_matches_closure_lp():
    # the cutting-plane optimum is the optimum of the LP over the whole closure
    rng = SplitMix64(91)
    cases = [(L, (F(1),) * L) for L in (1, 2, 3, 4)]
    cases += [(L, random_positive_entropies(rng, L)) for L in (2, 3) for _ in range(3)]
    for L, entropies in cases:
        closure = list_inequalities(L, ordered_only=False)
        for index, target in enumerate(closure):
            oracle = closure_redundancy_lp(L, index, entropies)
            optimum = solve(oracle).objective_value
            ineq, essential, witness = redundancy_certificate(L, index, entropies)
            assert ineq == target and essential and optimum < target.rhs(entropies), (L, index)
            assert target.lhs(witness) == optimum and assert_feasible_point(oracle, witness)


def test_certificates_permute_each_witness_along_its_orbit():
    for L in (3, 4):
        ones = (F(1),) * L
        closure = list_inequalities(L, ordered_only=False)
        records = list(redundancy_certificates(L, ones))
        assert [ineq for ineq, _, _ in records] == closure
        for index, (_, essential, witness) in enumerate(records):
            assert essential and satisfies_all_but(closure, index, witness, ones)


def test_separation_scans_the_target_orbit():
    # (1, 2, 5/2) meets every L=3 row but (2, 1, 1); certifying (1, 1, 2), the
    # only cut is that other member of the target's own orbit
    rows, rhs, orbits = region._orbits(3, (1, 1, 1))
    own = len(rows) - 1
    assert rows[own].lam.components == (2, 1, 1)
    cuts = region._most_violated(rows, rhs, own, orbits[own], (1, 1, 2), (1, 2, F(5, 2)))
    assert cuts == [((2, 1, 1), 7)]


def test_level5_representatives_against_closure():
    ones = (F(1),) * 5
    closure = list_inequalities(5, ordered_only=False)
    representatives = [i for i, ineq in enumerate(closure)
                       if ineq.lam.components == ineq.lam.sorted_desc]
    assert len(closure) == 446 and len(representatives) == 23
    for index in representatives:
        _, essential, witness = redundancy_certificate(5, index, ones)
        assert essential and satisfies_all_but(closure, index, witness, ones), index


def test_level6_representatives_essential():
    ones = (F(1),) * 6
    closure = list_inequalities(6, ordered_only=False)
    for lam in ((1,) * 6, (16, 8, 4, 2, 1, 1)):
        index = next(i for i, ineq in enumerate(closure) if ineq.lam.components == lam)
        _, essential, witness = redundancy_certificate(6, index, ones)
        assert essential and satisfies_all_but(closure, index, witness, ones), lam
    with pytest.raises(ResourceLimitError):
        redundancy_certificate(7, 0, (1,) * 7)


def test_methods_agree_on_fixed_grid():
    # small exhaustive grid around the L=2 region with H=(1,1)
    values = [F(0), F(1, 2), F(1), F(3, 2), F(2), F(3)]
    for r1 in values:
        for r2 in values:
            q = RateQuery((r1, r2), (1, 1))
            assert check_achievable_inequalities(q).achievable == \
                check_achievable_lp(q).achievable, (r1, r2)


def covers_every_subset(allocation, query):
    """Oracle for SuperpositionAllocation.satisfies: all 2^L - 1 subsets."""
    r, L = allocation.r, query.L
    if len(r) != L or any(len(row) != L for row in r):
        return False
    if any(x < 0 for row in r for x in row) or allocation.row_sums() != query.rates:
        return False
    return all(sum(r[l][a - 1] for l in subset) >= query.entropies[a - 1]
               for a in range(1, L + 1)
               for subset in itertools.combinations(range(L), a))


def test_satisfies_matches_subset_enumeration():
    rng = SplitMix64(303)
    outcomes = set()
    for _ in range(300):
        L = 1 + rng.randrange(6)
        r = tuple(tuple(random_fraction(rng) for _ in range(L)) for _ in range(L))
        allocation = SuperpositionAllocation(r)
        rates = allocation.row_sums()
        # the weakest subset of each size, found without sorting
        tight = [min(sum(r[l][a - 1] for l in subset)
                     for subset in itertools.combinations(range(L), a))
                 for a in range(1, L + 1)]
        level = rng.randrange(L)
        nudge = F(1, rng.choice((1, 2, 3, 4, 6, 8, 12)))
        cases = [(tight, True)]
        cases.append((tight[:level] + [tight[level] + nudge] + tight[level + 1:], False))
        if tight[level] >= nudge:
            cases.append((tight[:level] + [tight[level] - nudge] + tight[level + 1:], True))
        for entropies, expected in cases:
            query = RateQuery(rates, entropies)
            assert allocation.satisfies(query) == covers_every_subset(allocation, query) \
                == expected, (r, entropies)
            outcomes.add(expected)
        if L > 1 and r[0][0] > 0:
            # moving mass within a row keeps the rates but can go negative
            shifted = ((-r[0][0], r[0][1] + 2 * r[0][0]) + r[0][2:],) + r[1:]
            skewed = SuperpositionAllocation(shifted)
            query = RateQuery(rates, [F(0)] * L)
            assert not skewed.satisfies(query) and not covers_every_subset(skewed, query)
    assert outcomes == {True, False}


def test_compact_lp_shape_and_limit():
    for L in range(1, 9):
        lp = compact_allocation_lp(RateQuery((1,) * L, (1,) * L))
        middle = max(L - 2, 0)
        assert lp.num_vars == L * L + middle * (L + 1)
        assert len(lp.rows) == L + (L > 1) + middle * (L + 1)
    assert len(superposition_feasibility_lp(RateQuery((1,) * 7, (1,) * 7)).rows) == 134
    big = RateQuery((1,) * (MAX_LP_LEVELS + 1), (1,) * (MAX_LP_LEVELS + 1))
    with pytest.raises(ResourceLimitError):
        compact_allocation_lp(big)
    with pytest.raises(ResourceLimitError):
        check_achievable_lp(big)


def test_compact_lp_agrees_with_subset_lp():
    for L in range(2, 7):
        rng = SplitMix64(600 + L)
        verdicts = set()
        for _ in range(50):
            query = RateQuery(*random_boundary_query(rng, L))
            vl = check_achievable_lp(query)
            oracle = solve(superposition_feasibility_lp(query))
            assert vl.achievable == (oracle.status is not Status.INFEASIBLE), query
            assert vl.achievable == check_achievable_inequalities(query).achievable, query
            if vl.achievable:
                assert covers_every_subset(vl.witness_allocation, query)
            verdicts.add(vl.achievable)
        assert verdicts == {True, False}


def test_compact_lp_agrees_with_inequalities_large_levels():
    for L in (8, 9):
        rng = SplitMix64(800 + L)
        verdicts = set()
        for _ in range(8):
            query = RateQuery(*random_boundary_query(rng, L))
            vl = check_achievable_lp(query)
            vi = check_achievable_inequalities(query)
            assert vl.achievable == vi.achievable, query
            if vl.achievable:
                assert vl.witness_allocation.satisfies(query)
            else:
                assert vi.witness_inequality.lhs(query.rates) < \
                    vi.witness_inequality.rhs(query.entropies)
            verdicts.add(vl.achievable)
        assert verdicts == {True, False}
