from fractions import Fraction as F

import pytest

from golden import TABLES
from oracles import f_alpha_bruteforce, random_lambda
from smdc.errors import ResourceLimitError
from smdc.resolution import (LambdaVector, Resolution, beta_star, f_alpha,
                             f_vector, g_value, optimal_resolution,
                             verify_resolution)
from smdc.rng import SplitMix64


def test_g_value_examples():
    assert g_value((2, 1, 1), 2, 0) == 2
    assert g_value((1, 0, 0, 0), 1, 0) == 1
    assert g_value((3, 1, 1, 1), 2, 1) == 3
    # cross-check the last one against the defining LP at alpha=2
    assert f_alpha_bruteforce((3, 1, 1, 1), 2) == 3


def test_g_value_range_errors():
    with pytest.raises(ValueError):
        g_value((1, 1), 3, 0)
    with pytest.raises(ValueError):
        g_value((1, 1), 2, 2)
    with pytest.raises(ValueError):
        g_value((1, 1), 0, 0)


def test_beta_star_examples():
    assert beta_star((3, 1, 1, 1), 2) == 0
    # ties resolve to the smallest minimizer; the minimum value is what counts
    b = beta_star((2, 1, 1, 0, 0), 2)
    assert b == 0
    assert g_value((2, 1, 1, 0, 0), 2, b) == 2 == f_alpha((2, 1, 1, 0, 0), 2)
    assert beta_star((1,) * 6, 6) == 0


def test_f_alpha_golden_rows():
    assert f_vector((4, 2, 1, 1, 0)).values == (8, 4, 2, 1, 0)
    assert f_vector((3, 2, 2, 1, 1)).values == (9, F(9, 2), 3, 2, 1)
    assert f_vector((1, 1, 1)).values == (3, F(3, 2), 1)


def test_f_vector_examples():
    assert f_vector((2, 2, 1, 1)).values == (6, 3, 2, 1)
    assert f_vector((1, 0, 0, 0, 0)).values == (1, 0, 0, 0, 0)
    assert f_vector((8, 4, 2, 1, 1)).values == (16, 8, 4, 2, 1)


def test_all_golden_tables_exact():
    for L, rows in TABLES.items():
        for lam, f, _ in rows:
            assert f_vector(lam).values == f, lam


def test_f_vector_incremental_matches_direct():
    for L, rows in TABLES.items():
        for lam, _, _ in rows:
            fv = f_vector(lam)
            for a in range(1, L + 1):
                assert fv.values[a - 1] == f_alpha(lam, a)
                assert fv.beta_stars[a - 1] == beta_star(lam, a)


def test_bruteforce_examples():
    assert f_alpha_bruteforce((2, 1, 1), 2) == 2
    assert f_alpha_bruteforce((1, 1), 2) == 1


def test_bruteforce_limit():
    with pytest.raises(ResourceLimitError):
        f_alpha_bruteforce((1,) * 13, 2)


def test_zero_lambda_rejected():
    with pytest.raises(ValueError):
        LambdaVector((F(0), F(0)))
    with pytest.raises(ValueError):
        f_alpha((0, 0), 1)
    with pytest.raises(ValueError):
        LambdaVector((F(-1), F(1)))


def test_optimal_resolution_examples():
    res = optimal_resolution((1, 1), 2)
    assert res.weights == {0b11: F(1)}
    assert verify_resolution((1, 1), res, 1)

    res = optimal_resolution((2, 1, 1), 2)
    assert verify_resolution((2, 1, 1), res, 2)
    # this instance has a unique optimum, so the support is pinned
    assert res.weights == {0b011: F(1), 0b101: F(1)}

    res = optimal_resolution((1, 1, 1), 2)
    assert verify_resolution((1, 1, 1), res, F(3, 2))
    assert res.weights == {0b011: F(1, 2), 0b101: F(1, 2), 0b110: F(1, 2)}


def test_optimal_resolution_wide_tail():
    # C(15, 7) = 6435 tail masks: beyond what the defining LP solves quickly
    lam = (1,) * 15
    res = optimal_resolution(lam, 7)
    assert verify_resolution(lam, res, F(15, 7))
    assert len(res.weights) <= 15


def test_optimal_resolution_random_grid():
    """Every alpha of random grid vectors, zeros included: an optimal
    resolution on at most L vectors, and at L <= 8 the defining LP's total."""
    ties = tuple(F(x) for x in ("0", "1/2", "1", "3/2", "2", "3"))
    rng = SplitMix64(14)
    for case in range(420):
        L = 1 + case % 14
        if case // 14 % 2:  # each L gets both kinds
            lam = random_lambda(rng, L)
        else:  # tie-heavy, zeros common; the trailing 1 keeps it nonzero
            lam = tuple(rng.choice(ties) for _ in range(L - 1)) + (F(1),)
        lam = LambdaVector.coerce(lam)
        for a in range(1, L + 1):
            res = optimal_resolution(lam, a)
            total = f_alpha(lam, a) if a <= lam.zeta else F(0)
            assert verify_resolution(lam, res, total), (lam, a)
            assert len(res.weights) <= L, (lam, a)
            if L <= 8:
                assert total == f_alpha_bruteforce(lam, a), (lam, a)


def test_optimal_resolution_above_zeta_is_empty():
    res = optimal_resolution((1, 1, 0), 3)
    assert res.weights == {}


def test_optimal_resolution_unsorted_input():
    # result is expressed in the caller's component order
    res = optimal_resolution((1, 2, 1), 2)
    assert verify_resolution((1, 2, 1), res, 2)
    sums = res.column_sums()
    assert sums[1] <= 2 and sums[0] <= 1 and sums[2] <= 1


def test_optimal_resolution_round_trip_tables():
    for L, rows in TABLES.items():
        for lam, f, _ in rows:
            lv = LambdaVector.coerce(lam)
            for a in range(1, lv.zeta + 1):
                res = optimal_resolution(lv, a)
                assert verify_resolution(lv, res, f[a - 1]), (lam, a)


def test_mask_string_and_column_sums_match_bit_definition():
    def by_bits(res):
        return tuple(sum((w for m, w in res.weights.items() if m >> i & 1), F(0))
                     for i in range(res.L))

    rng = SplitMix64(70)
    for L in (1, 7, 70):
        masks = {sum(1 << i for i in range(L) if rng.randrange(3) == 0) | 1 << rng.randrange(L)
                 for _ in range(40)}
        res = Resolution(L, 1, {m: F(1 + rng.randrange(9), 1 + rng.randrange(4))
                                for m in masks})
        for m in masks:
            assert res.mask_string(m) == "".join("1" if m >> i & 1 else "0"
                                                 for i in range(L))
        assert res.column_sums() == by_bits(res)
    # weights over many distinct denominators: the sums share one lcm
    res = optimal_resolution(tuple(F(1, k) for k in range(1, 201)), 100)
    assert res.column_sums() == by_bits(res)


def test_verify_resolution_rejects():
    assert not verify_resolution((1, 1), Resolution(2, 2, {0b11: F(3, 2)}), F(3, 2))
    assert not verify_resolution((1, 1), Resolution(2, 2, {0b01: F(1)}), 1)  # wrong weight
    assert not verify_resolution((1, 1), Resolution(2, 2, {0b11: F(-1)}), -1)
    with pytest.raises(ValueError):
        verify_resolution((1, 1, 1), Resolution(2, 2, {}), 0)


def test_theta_sequences():
    assert LambdaVector.coerce((1, 0, 0)).theta_seq == ()
    assert LambdaVector.coerce((2, 1, 1)).theta_seq == (1, 1)
    assert LambdaVector.coerce((1, 1, 1, 1)).theta_seq == (1, 2, 3)
    assert LambdaVector.coerce((F(9, 4), F(3, 2), 1, 1, 1)).theta_seq == (1, 2, 2, 2)
    assert LambdaVector.coerce((3, 1)).theta_seq is None
    assert LambdaVector.coerce((2, 2)).theta_seq is None  # not normalized
    assert LambdaVector.coerce((1, 2, 1)).theta_seq == (1, 1)  # order-insensitive


def test_lambda_vector_views():
    lv = LambdaVector.coerce((1, 3, 0, 2))
    assert lv.sorted_desc == (3, 2, 1, 0)
    assert lv.order == (1, 3, 0, 2)
    assert lv.zeta == 3
    mu, unit = LambdaVector.coerce((2, 4)).normalized()
    assert mu == 2 and tuple(unit) == (1, 2)
