import dataclasses
import decimal
import hashlib
import itertools
from fractions import Fraction as F
from math import lcm

import pytest

from oracles import (chain_feasibility_lp, elemental_inequalities, entropy_vector_decimal,
                     is_monotone, is_submodular, uniform_resolution)
from smdc import entropy
from smdc.entropy import (COMPARISON_SLACK, MAX_CHAIN_LEVELS, EntropyVector,
                          JointDistribution, ResolutionChain, chain_feasibility,
                          entropy_vector, han_check, random_joint_distribution,
                          symmetric_resolution)
from smdc.errors import ResourceLimitError
from smdc.generator import generate_ordered
from smdc.lp import LinearProgram, Relation, Sense, Status, solve
from smdc.resolution import f_vector, optimal_resolution, verify_resolution
from smdc.rng import SplitMix64


def _uniform_bits(L):
    cells = [(tuple((n >> i) & 1 for i in range(L)), F(1, 1 << L))
             for n in range(1 << L)]
    return JointDistribution((2,) * L, dict(cells))


def test_entropy_examples():
    ev = entropy_vector(_uniform_bits(2))
    assert ev[0b01] == 1 and ev[0b10] == 1 and ev[0b11] == 2

    copy = JointDistribution((2, 2), {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    ev = entropy_vector(copy)
    assert ev[0b01] == ev[0b10] == ev[0b11] == 1

    tri = JointDistribution((2, 2), {(0, 0): F(1, 3), (0, 1): F(1, 3), (1, 0): F(1, 3)})
    ev = entropy_vector(tri)
    assert ev[0b11] == F(1742684699132, 2 ** 40)  # round(log2(3) * 2^40), at 60 digits
    assert entropy_vector(tri).values == ev.values  # deterministic rounding
    with decimal.localcontext(decimal.Context(prec=3, rounding=decimal.ROUND_FLOOR)):
        assert entropy_vector(tri).values == ev.values  # whatever the caller's context


def test_entropy_values_pinned():
    # sha256 of every rounded entropy value, taken with 50-digit mpmath logs
    rng = SplitMix64(12)
    digest = hashlib.sha256()
    for L in range(1, 6):
        for sizes in ((2,) * L, tuple(2 + i % 2 for i in range(L))):
            for _ in range(4):
                ev = entropy_vector(random_joint_distribution(rng, sizes))
                digest.update(repr(sorted(ev.values.items())).encode())
    assert digest.hexdigest() == \
        "dae613d12c36428b911a2782a697d134a4506f941fdecc314e0e453eb1ba6478"


def _wide_pmf(rng, sizes, bits):
    """A pmf whose weights have about ``bits`` bits, beyond what randrange draws."""
    cells = list(itertools.product(*(range(s) for s in sizes)))
    weights = [(rng.next_u64() << 64 | rng.next_u64()) >> (128 - bits) for _ in cells]
    return JointDistribution(sizes, {c: F(w, sum(weights)) for c, w in zip(cells, weights)})


def test_float_filter_matches_the_decimal_oracle(monkeypatch):
    exact_calls = []
    exact = entropy._exact_numerator
    monkeypatch.setattr(entropy, "_exact_numerator",
                        lambda *args: exact_calls.append(1) or exact(*args))
    rng = SplitMix64(23)
    pmfs = [random_joint_distribution(rng, sizes, bits)
            for L in range(1, 6)
            for sizes in ((2,) * L, tuple(2 + i % 2 for i in range(L)))
            for bits in (4, 16, 30)
            for _ in range(3)]
    for jd in pmfs:
        assert entropy_vector(jd).values == entropy_vector_decimal(jd).values, jd
    assert 0 < len(exact_calls) < sum((1 << jd.L) - 1 for jd in pmfs)  # both branches ran
    # D just below 2^100, where the float bound still holds, and past it, as
    # far as D/W overflowing a float
    wide = [_wide_pmf(rng, (2,) * L, bits) for L in (2, 3, 4) for bits in (95, 96, 99)]
    wide.append(JointDistribution((2, 2), {(0, 0): F(1, 2 ** 1100), (1, 1): 1 - F(1, 2 ** 1100)}))
    past = [lcm(*(p.denominator for p in jd.pmf.values())) >> 100 > 0 for jd in wide]
    assert any(past) and not all(past)
    for jd in wide:
        assert entropy_vector(jd).values == entropy_vector_decimal(jd).values, jd


def test_entropy_vector_keeps_no_module_state():
    def sizes():
        return {name: len(value) for name, value in vars(entropy).items()
                if isinstance(value, (dict, list, set))}

    entropy_vector(random_joint_distribution(SplitMix64(1), (2, 2, 2)))
    before = sizes()
    entropy_vector(random_joint_distribution(SplitMix64(2), (3, 2, 2)))
    assert sizes() == before


def test_joint_distribution_validation():
    with pytest.raises(ValueError):
        JointDistribution((2,), {(0,): F(1, 2)})  # not normalized
    with pytest.raises(ValueError):
        JointDistribution((2,), {(2,): F(1)})  # symbol outside alphabet
    with pytest.raises(ValueError):
        JointDistribution((2,), {(0,): F(3, 2), (1,): F(-1, 2)})


def test_entropy_vector_limits():
    with pytest.raises(ResourceLimitError):
        entropy_vector(JointDistribution((2,) * 6, {(0,) * 6: F(1)}))


def test_monotone_submodular_gate():
    rng = SplitMix64(11)
    for _ in range(25):
        ev = entropy_vector(random_joint_distribution(rng, (2, 2, 2)))
        assert is_monotone(ev) and is_submodular(ev)


def test_han_examples():
    for L in (2, 3, 4, 5):
        assert han_check(entropy_vector(_uniform_bits(L)))
    chain = JointDistribution((2, 2, 2), {(0, 0, 0): F(1, 2), (1, 1, 1): F(1, 2)})
    assert han_check(entropy_vector(chain))
    # the slack is exact: H_123 may exceed the pairs' Han average, 3, by 2^-30
    # and not by a 2^-40 step more
    values = entropy_vector(_uniform_bits(3)).values
    assert han_check(EntropyVector(3, {**values, 7: 3 + COMPARISON_SLACK}))
    assert not han_check(EntropyVector(3, {**values, 7: 3 + COMPARISON_SLACK + F(1, 2 ** 40)}))


def test_chain_feasibility_examples():
    ev = entropy_vector(_uniform_bits(3))
    holds, resolutions = chain_feasibility((1, 1, 1), ev)
    assert holds
    f = f_vector((1, 1, 1)).values
    for a, res in enumerate(resolutions, start=1):
        assert res.alpha == a
        assert verify_resolution((1, 1, 1), res, f[a - 1])

    holds, resolutions = chain_feasibility((2, 1, 1), ev)
    assert holds
    f = f_vector((2, 1, 1)).values
    for a, res in enumerate(resolutions, start=1):
        assert verify_resolution((2, 1, 1), res, f[a - 1])

    not_subadditive = EntropyVector(2, {1: F(1), 2: F(1), 3: F(2) + 2 * COMPARISON_SLACK})
    assert chain_feasibility((1, 1), not_subadditive) == (False, None)
    assert chain_feasibility_lp((1, 1), not_subadditive) == (False, None)

    # the last step of (1,1,1), whose row has denominator 2, holds at exactly
    # -2^-30 and fails one 2^-40 step past it
    at_slack = EntropyVector(3, {**ev.values, 7: 3 + COMPARISON_SLACK})
    assert chain_feasibility((1, 1, 1), at_slack)[0]
    past_slack = EntropyVector(3, {**ev.values, 7: 3 + COMPARISON_SLACK + F(1, 2 ** 40)})
    assert chain_feasibility((1, 1, 1), past_slack) == (False, None)


def test_chain_feasibility_table_member_level4():
    rng = SplitMix64(5)
    for _ in range(10):
        ev = entropy_vector(random_joint_distribution(rng, (2, 2, 2, 2)))
        holds, _ = chain_feasibility((2, 1, 1, 0), ev)
        assert holds


def _shannon_minimum(L, lower, upper):
    """Minimum of the step sum lower(m) h(m) - sum upper(m) h(m) over the
    polymatroids h on L variables with h(N) <= 1: 0 when the step is
    Shannon-type, negative otherwise."""
    masks = range(1, 1 << L)
    lp = LinearProgram(len(masks))
    for row in elemental_inequalities(L):
        lp.add([row.get(m, 0) for m in masks], Relation.GE, 0)
    lp.add([int(m == masks[-1]) for m in masks], Relation.LE, 1)
    lp.set_objective([lower.weights.get(m, 0) - upper.weights.get(m, 0) for m in masks],
                     Sense.MIN)
    result = solve(lp)
    assert result.status is Status.OPTIMAL
    return result.objective_value


def test_chain_steps_are_shannon_type():
    # every step holds on the whole polymatroid cone, so for every pmf
    for L in range(1, MAX_CHAIN_LEVELS + 1):
        for member in generate_ordered(L):
            chain = [symmetric_resolution(member, a) for a in range(1, L + 1)]
            for a in range(2, L + 1):
                assert _shannon_minimum(L, chain[a - 2], chain[a - 1]) == 0, (member, a)
    # the wrap-around resolutions alone are not enough: the LP sees the gap
    for member, gap in (((1, 1, 1, 1), F(-1, 3)), ((F(3, 2), 1, 1, 1), F(-1, 4))):
        lower, upper = (optimal_resolution(member, a) for a in (2, 3))
        assert _shannon_minimum(4, lower, upper) == gap


def test_reversed_chain_is_rejected():
    # each step that is not identically zero, negated, fails on some pmf: the
    # check can reject, so its passing on every pmf says something
    rng = SplitMix64(31)
    for L in range(2, MAX_CHAIN_LEVELS + 1):
        evs = [entropy_vector(random_joint_distribution(rng, (2,) * L)) for _ in range(4)]
        reversed_steps = 0
        for member in generate_ordered(L):
            chain = ResolutionChain.coerce(member)
            assert all(chain_feasibility(chain, ev)[0] for ev in evs)
            for k, (row, least) in enumerate(chain.steps):
                if not row:
                    continue
                steps = list(chain.steps)
                steps[k] = (tuple((m, -c) for m, c in row), least)
                reversed_chain = dataclasses.replace(chain, steps=tuple(steps))
                assert not all(chain_feasibility(reversed_chain, ev)[0] for ev in evs), \
                    (member, k)
                reversed_steps += 1
        assert reversed_steps == {2: 2, 3: 7, 4: 24}[L]  # 4 of 37 rows are zero


def test_symmetric_resolution_is_optimal_and_symmetric():
    for L in range(1, MAX_CHAIN_LEVELS + 2):
        for member in generate_ordered(L):
            f = f_vector(member).values
            for a in range(1, L + 1):
                res = symmetric_resolution(member, a)
                assert verify_resolution(member, res, f[a - 1])
                for i, j in itertools.combinations(range(L), 2):
                    if member[i] == member[j]:  # swapping i and j fixes lambda
                        swap = {m ^ (1 << i | 1 << j) if (m >> i ^ m >> j) & 1 else m: w
                                for m, w in res.weights.items()}
                        assert swap == res.weights


def test_fixed_chain_agrees_with_the_chain_lp():
    rng = SplitMix64(17)
    for L in (2, 3, 4):
        for _ in range(3):
            ev = entropy_vector(random_joint_distribution(rng, (2,) * L))
            for member in generate_ordered(L):
                holds, resolutions = chain_feasibility(member, ev)
                assert holds and chain_feasibility_lp(member, ev)[0]
                assert [r.total() for r in resolutions] == list(f_vector(member).values)


def test_chain_rejects_non_members():
    ev = entropy_vector(_uniform_bits(2))
    with pytest.raises(ValueError):
        chain_feasibility((3, 1), ev)
    with pytest.raises(ValueError):
        chain_feasibility((2, 2), ev)
    with pytest.raises(ResourceLimitError):
        chain_feasibility((1,) * 5, entropy_vector(_uniform_bits(5)))


def test_uniform_resolution_is_han_witness():
    # for the all-ones vector the uniform weights are the unique optimal
    # resolutions, and the chain rows evaluate exactly to Han's two sides
    L = 4
    ev = entropy_vector(random_joint_distribution(SplitMix64(3), (2,) * L))
    f = f_vector((1,) * L).values
    from math import comb
    level_sum = {a: sum(ev[m] for m in range(1, 1 << L) if bin(m).count("1") == a)
                 for a in range(1, L + 1)}
    for a in range(1, L + 1):
        res = uniform_resolution(L, a)
        assert verify_resolution((1,) * L, res, f[a - 1])
    for a in range(2, L + 1):
        lhs = sum(w * ev[m] for m, w in uniform_resolution(L, a - 1).weights.items())
        rhs = sum(w * ev[m] for m, w in uniform_resolution(L, a).weights.items())
        assert lhs == level_sum[a - 1] / comb(L - 1, a - 2)
        assert rhs == level_sum[a] / comb(L - 1, a - 1)
        assert lhs >= rhs - COMPARISON_SLACK


def test_entropy_vector_getitem_empty_mask():
    ev = EntropyVector(2, {1: F(1), 2: F(1), 3: F(2)})
    assert ev[0] == 0
