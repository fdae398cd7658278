from fractions import Fraction as F

import pytest

from golden import TABLES
from oracles import is_member, theta_chain_counts_dp
from smdc.errors import ResourceLimitError
from smdc.generator import (MAX_COUNT_L, check_bounds, count_ordered,
                            expand_permutations, generate_ordered, iter_ordered,
                            theta_chain_counts)
from smdc.resolution import LambdaVector


def test_small_sets_match_golden_tables():
    for L, rows in TABLES.items():
        got = [tuple(v.components) for v in generate_ordered(L)]
        assert got == [lam for lam, _, _ in rows], L


def test_generate_examples():
    assert [tuple(v) for v in generate_ordered(2)] == [(1, 0), (1, 1)]
    assert [tuple(v) for v in generate_ordered(3)] == [
        (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 1)]
    g5 = generate_ordered(5)
    assert len(g5) == 23
    assert (F(9, 4), F(3, 2), 1, 1, 1) in {tuple(v) for v in g5}


def test_theta_sequence_reconstructs_vector():
    for L in range(1, 8):
        for v in generate_ordered(L):
            seq = v.theta_seq
            assert seq is not None
            # rebuild from the tail up: start at (1, zeros), prepend tail/theta
            comps = [F(1)] + [F(0)] * (L - v.zeta)
            for t in seq:
                comps.insert(0, sum(comps, F(0)) / t)
            assert tuple(comps) == v.components


def test_enumeration_order_is_zeta_then_theta_descending():
    for L in range(2, 8):
        keys = [(v.zeta, tuple(-t for t in v.theta_seq)) for v in generate_ordered(L)]
        assert keys == sorted(keys)


def test_no_duplicates():
    for L in range(1, 9):
        vecs = [tuple(v) for v in generate_ordered(L)]
        assert len(set(vecs)) == len(vecs)


def test_every_member_normalized_ordered():
    for v in generate_ordered(6):
        assert v.components == v.sorted_desc
        assert v.min_nonzero == 1


def test_suffix_closure():
    for L in range(2, 8):
        lower = {tuple(v.components) for v in generate_ordered(L - 1)}
        for v in generate_ordered(L):
            if v.zeta >= 2:
                assert tuple(v.components[1:]) in lower


def test_counts_match_enumeration():
    for L in range(1, 11):
        assert count_ordered(L) == len(list(iter_ordered(L)))


def test_count_examples():
    assert count_ordered(1) == 1 and count_ordered(2) == 2
    assert count_ordered(5) == 23
    assert count_ordered(6) == 65
    assert [count_ordered(L) for L in range(1, 6)] == [1, 2, 4, 9, 23]


def test_block_counts_sum_and_recursion():
    for L in range(2, 12):
        counts = theta_chain_counts(L)
        assert sum(counts) == count_ordered(L)
        assert count_ordered(L) == count_ordered(L - 1) + counts[-1]


def test_block_counts_match_theta_chain_dp():
    for L in range(1, 25):
        assert theta_chain_counts(L) == theta_chain_counts_dp(L)


def test_count_budget():
    lower, count, upper = check_bounds(MAX_COUNT_L)
    assert lower < count < upper
    with pytest.raises(ResourceLimitError, match=f"L <= {MAX_COUNT_L}"):
        check_bounds(MAX_COUNT_L + 1)
    with pytest.raises(ValueError, match="L must be >= 1"):
        theta_chain_counts(0)


def test_check_bounds_examples():
    assert check_bounds(4) == (8, 9, 24)
    assert check_bounds(2) == (2, 2, 2)
    lower, count, upper = check_bounds(7)
    assert (lower, upper) == (64, 5040) and lower < count < upper
    with pytest.raises(ValueError, match="L must be >= 1"):
        check_bounds(0)


def test_expand_permutations_examples():
    assert {tuple(v) for v in expand_permutations([LambdaVector((F(1), F(0)))])} == \
        {(1, 0), (0, 1)}
    assert [tuple(v) for v in expand_permutations([LambdaVector((F(1), F(1)))])] == [(1, 1)]
    full3 = expand_permutations(generate_ordered(3))
    assert len(full3) == 10
    assert len({tuple(v) for v in full3}) == 10


def test_expand_permutations_block_count():
    # multiset permutation counts per golden row: 4+6+4+12+1+4+4+6+12
    assert len(expand_permutations(generate_ordered(4))) == 53


def test_membership():
    assert is_member((1, 1, 2))
    assert is_member((0, 1, 0))
    assert not is_member((1, 1, 3))
    assert not is_member((2, 2))


def test_resource_limits():
    with pytest.raises(ResourceLimitError):
        list(iter_ordered(15))
    with pytest.raises(ResourceLimitError):
        expand_permutations([LambdaVector((F(1),) * 8)])


def test_streaming_matches_list():
    assert [tuple(v) for v in iter_ordered(7)] == [tuple(v) for v in generate_ordered(7)]
