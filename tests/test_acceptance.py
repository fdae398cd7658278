"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All comparisons are exact rational equality unless a criterion
states a runtime budget, which is enforced with a wall-clock assert.
"""

import functools
import time
from fractions import Fraction as F

import props
from golden import TABLES
from oracles import (assert_feasible_point, f_alpha_bruteforce, is_monotone,
                     is_submodular, random_normalized_lambda)
from smdc import cli
from smdc.entropy import (chain_feasibility, entropy_vector, han_check,
                          random_joint_distribution)
from smdc.fm import fourier_motzkin_region, systems_equivalent
from smdc.generator import check_bounds, count_ordered, generate_ordered
from smdc.lp import LinearProgram, Relation
from smdc.region import (RateQuery, check_achievable_inequalities,
                         check_achievable_lp, list_inequalities,
                         redundancy_certificate)
from smdc.resolution import f_alpha, f_vector, verify_resolution
from smdc.rng import SplitMix64, random_boundary_query


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")
        return run
    return wrap


@criterion(1, "golden tables L=1..5 reproduced exactly, < 1 s")
def test_criterion_1_golden_tables():
    start = time.monotonic()
    for L in range(1, 6):
        assert cli.main(["table", "--levels", str(L)]) == 0
    elapsed = time.monotonic() - start
    # compare content exactly, row by row, against the frozen tables
    for L in range(1, 6):
        rows = list_inequalities(L)
        got = [(tuple(i.lam), i.f_values, i.theta) for i in rows]
        assert got == TABLES[L], f"table mismatch at L={L}"
        for lam, f, theta in TABLES[L]:
            assert f_vector(lam).values == f
    assert elapsed < 1.0, f"table rendering took {elapsed:.2f}s"


@criterion(2, "counts 1,2,4,9,23; sandwich bounds to L=10; enumeration < 60 s")
def test_criterion_2_counting():
    assert [count_ordered(L) for L in range(1, 6)] == [1, 2, 4, 9, 23]
    start = time.monotonic()
    for L in range(1, 11):
        lower, count, upper = check_bounds(L)  # raises if the sandwich fails
        if L >= 4:
            assert lower < count < upper
        assert count == len(generate_ordered(L))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"enumeration to L=10 took {elapsed:.1f}s"


@criterion(2, "lower bound attained at L=3; both bounds strict for 4 <= L <= 10")
def test_criterion_2_strictness_as_stated():
    # At L=3 the count 4 equals 2^2.  The Fourier-Motzkin projection of the
    # allocation LP, which does not use the generator, confirms it: its rows
    # have exactly four distinct sorted lambdas.
    lower, count, upper = check_bounds(3)
    fm_sorted = {tuple(sorted(i.lam, reverse=True)) for i in fourier_motzkin_region(3)}
    assert lower == count == len(fm_sorted) < upper, \
        f"L=3: 2^(L-1)={lower}, count={count}, FM sorted rows={len(fm_sorted)}, L!={upper}"
    for L in range(4, 11):
        lower, count, upper = check_bounds(L)
        assert lower < count < upper, \
            f"L={L}: 2^(L-1)={lower}, count={count}, L!={upper}"


@criterion(3, "closed form == LP oracle, 500 lambdas per L in 2..5, < 5 min")
def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    for L in (2, 3, 4, 5):
        rng = SplitMix64(300 + L)
        for _ in range(500):
            lam = random_normalized_lambda(rng, L)
            for a in range(1, L + 1):
                assert f_alpha(lam, a) == f_alpha_bruteforce(lam, a), (lam, a)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"oracle sweep took {elapsed:.1f}s"


@criterion(4, "inequality and LP membership methods agree, 500 queries per L in 2..5")
def test_criterion_4_method_agreement():
    for L in (2, 3, 4, 5):
        rng = SplitMix64(400 + L)
        for _ in range(500):
            query = RateQuery(*random_boundary_query(rng, L))
            vi = check_achievable_inequalities(query)
            vl = check_achievable_lp(query)
            assert vi.achievable == vl.achievable, query
            if vl.achievable:
                assert vl.witness_allocation.satisfies(query)
            else:
                w = vi.witness_inequality
                assert w.lhs(query.rates) < w.rhs(query.entropies)


@criterion(5, "every closure inequality essential for L in 2..4 at H=1, witnesses certified")
def test_criterion_5_redundancy():
    for L in (2, 3, 4):
        ones = (F(1),) * L
        ineqs = list_inequalities(L, ordered_only=False)
        if L == 3:
            assert len(ineqs) == 10
        for index, target in enumerate(ineqs):
            _, essential, witness = redundancy_certificate(L, index, ones)
            assert essential, (L, index)
            others = LinearProgram(L)
            for k, ineq in enumerate(ineqs):
                if k != index:
                    others.add(tuple(ineq.lam), Relation.GE, ineq.rhs(ones))
            assert assert_feasible_point(others, witness)
            assert target.lhs(witness) < target.rhs(ones)


@criterion(6, "Fourier-Motzkin projection equals the generated region, L=4 within 10 min")
def test_criterion_6_fourier_motzkin():
    for L in (2, 3):
        fm = fourier_motzkin_region(L)
        gen = list_inequalities(L, ordered_only=False)
        assert systems_equivalent(fm, gen)
        assert {(tuple(i.lam), i.f_values) for i in fm} == \
            {(tuple(i.lam), i.f_values) for i in gen}
    start = time.monotonic()
    fm4 = fourier_motzkin_region(4)
    gen4 = list_inequalities(4, ordered_only=False)
    assert systems_equivalent(fm4, gen4)
    elapsed = time.monotonic() - start
    assert {(tuple(i.lam), i.f_values) for i in fm4} == \
        {(tuple(i.lam), i.f_values) for i in gen4}
    assert elapsed < 600.0, f"L=4 projection took {elapsed:.1f}s"


@criterion(7, "Han on 200 pmfs and chain feasibility on 100 pmfs per member, L in 2..4")
def test_criterion_7_subset_entropy():
    for L in (2, 3, 4):
        rng = SplitMix64(700 + L)
        for _ in range(200):
            ev = entropy_vector(random_joint_distribution(rng, (2,) * L))
            assert is_monotone(ev) and is_submodular(ev)
            assert han_check(ev)
        members = generate_ordered(L)
        f_by_member = {tuple(m): f_vector(m).values for m in members}
        for _ in range(100):
            ev = entropy_vector(random_joint_distribution(rng, (2,) * L))
            for member in members:
                holds, resolutions = chain_feasibility(member, ev)
                assert holds, (tuple(member), ev.values)
                f = f_by_member[tuple(member)]
                for a, res in enumerate(resolutions, start=1):
                    assert verify_resolution(member, res, f[a - 1])


@criterion(8, "property suites, 1000 randomized cases each, zero failures")
def test_criterion_8_property_suites():
    props.run_permutation_invariance(1000, seed=801)
    props.run_homogeneity(1000, seed=802)
    props.run_concavity(1000, seed=803)
    props.run_beta_monotonicity(1000, seed=804)
    props.run_decomposition(1000, seed=805)
    props.run_threshold(1000, seed=806)
    props.run_rearrangement(1000, seed=807)
    props.run_pseudo_convexity(1000, seed=808)
