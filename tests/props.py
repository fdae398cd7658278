"""Randomized invariant suites, shared between the fast test runs and the
acceptance gate (which runs them at full case counts).  Every suite is
deterministic for a given seed."""

import itertools
from fractions import Fraction as F

from smdc.region import (RateQuery, check_achievable_inequalities,
                         check_achievable_lp)
from smdc.resolution import (LambdaVector, beta_star, f_alpha, f_vector,
                             g_value, optimal_resolution, verify_resolution)
from oracles import f_alpha_bruteforce, random_lambda, random_normalized_lambda
from smdc.rng import SplitMix64, random_boundary_query, random_fraction


def _shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
    return tuple(items)


def run_oracle_equivalence(cases, seed=101, max_L=6, draw=random_normalized_lambda):
    rng = SplitMix64(seed)
    for _ in range(cases):
        L = 2 + rng.randrange(max_L - 1)
        lam = draw(rng, L)
        for a in range(1, L + 1):
            assert f_alpha(lam, a) == f_alpha_bruteforce(lam, a), (lam, a)


def run_permutation_invariance(cases, seed=102):
    rng = SplitMix64(seed)
    for _ in range(cases):
        L = 2 + rng.randrange(5)
        lam = random_lambda(rng, L)
        fv = f_vector(lam)
        assert fv.values == f_vector(_shuffled(rng, lam)).values


def run_homogeneity(cases, seed=103):
    rng = SplitMix64(seed)
    for _ in range(cases):
        L = 1 + rng.randrange(6)
        lam = random_lambda(rng, L)
        mu = random_fraction(rng, allow_zero=False)
        scaled = tuple(mu * c for c in lam)
        for a in range(1, L + 1):
            assert f_alpha(scaled, a) == mu * f_alpha(lam, a)


def run_concavity(cases, seed=104):
    rng = SplitMix64(seed)
    done = 0
    while done < cases:
        L = 2 + rng.randrange(4)
        lam1, lam2 = random_lambda(rng, L), random_lambda(rng, L)
        mu1, mu2 = random_fraction(rng), random_fraction(rng)
        mix = tuple(mu1 * a + mu2 * b for a, b in zip(lam1, lam2))
        if not any(mix):
            continue
        for a in range(1, L + 1):
            assert f_alpha(mix, a) >= mu1 * f_alpha(lam1, a) + mu2 * f_alpha(lam2, a)
        done += 1


def run_beta_monotonicity(cases, seed=105):
    rng = SplitMix64(seed)
    for _ in range(cases):
        lam = random_lambda(rng, 1 + rng.randrange(7))
        betas = f_vector(lam).beta_stars
        assert betas[0] == 0
        assert all(x <= y for x, y in zip(betas, betas[1:]))


def run_pseudo_convexity(cases, seed=106):
    rng = SplitMix64(seed)
    for _ in range(cases):
        L = 2 + rng.randrange(5)
        lam = random_lambda(rng, L)
        a = 2 + rng.randrange(L - 1)
        g = [g_value(lam, a, b) for b in range(a)]
        b_star = beta_star(lam, a)
        # once the scan rule fires, g never decreases again
        assert all(g[b] <= g[b + 1] for b in range(b_star, a - 1))
        assert all(g[b] > g[b + 1] for b in range(b_star))
        assert g[b_star] == min(g) and b_star == g.index(min(g))


def run_decomposition(cases, seed=107):
    rng = SplitMix64(seed)
    done = 0
    while done < cases:
        L = 2 + rng.randrange(4)
        tail = sorted(random_lambda(rng, L - 1), reverse=True)
        if not any(tail):
            continue
        rest = sum(tail, F(0))
        head = rest + random_fraction(rng, allow_zero=False)
        lam = (head,) + tuple(tail)
        reduced = (rest,) + tuple(tail)
        for a in range(1, L + 1):
            base = head - rest if a == 1 else F(0)
            assert f_alpha(lam, a) == base + f_alpha(reduced, a)
        done += 1


def run_threshold(cases, seed=108):
    rng = SplitMix64(seed)
    done = 0
    while done < cases:
        L = 2 + rng.randrange(4)
        lam = tuple(sorted(random_lambda(rng, L), reverse=True))
        rest = sum(lam[1:], F(0))
        if not any(lam[1:]):
            continue
        for eta in range(1, L):
            if lam[0] <= rest / eta:
                for a in range(1, eta + 2):
                    assert f_alpha(lam, a) == g_value(lam, a, 0)
            if lam[0] >= rest / eta:
                for a in range(eta + 1, L + 1):
                    assert f_alpha(lam, a) == f_alpha(lam[1:], a - 1)
        done += 1


def run_rearrangement(cases, seed=109, exhaustive_max_L=5):
    rng = SplitMix64(seed)
    for _ in range(cases):
        L = 2 + rng.randrange(exhaustive_max_L - 1)
        lam = random_lambda(rng, L)
        rates = tuple(sorted(random_fraction(rng) for _ in range(L)))
        desc = tuple(sorted(lam, reverse=True))
        best = sum(l * r for l, r in zip(desc, rates))
        for perm in itertools.permutations(lam):
            assert best <= sum(l * r for l, r in zip(perm, rates))


def run_resolution_round_trip(cases, seed=110):
    rng = SplitMix64(seed)
    for _ in range(cases):
        L = 2 + rng.randrange(4)
        lam = LambdaVector.coerce(random_lambda(rng, L))
        a = 1 + rng.randrange(L)
        res = optimal_resolution(lam, a)
        expected = f_alpha(lam, a) if a <= lam.zeta else F(0)
        assert verify_resolution(lam, res, expected)


def run_method_agreement(cases, seed=111, levels=(2, 3, 4, 5)):
    rng = SplitMix64(seed)
    per_level = {L: 0 for L in levels}
    for _ in range(cases):
        L = levels[rng.randrange(len(levels))]
        query = RateQuery(*random_boundary_query(rng, L))
        vi = check_achievable_inequalities(query)
        vl = check_achievable_lp(query)
        assert vi.achievable == vl.achievable, query
        if vi.achievable:
            assert vl.witness_allocation.satisfies(query)
        else:
            w = vi.witness_inequality
            assert w.lhs(query.rates) < w.rhs(query.entropies)
        per_level[L] += 1
    return per_level


def run_monotonicity_sanity(cases, seed=112):
    rng = SplitMix64(seed)
    done = 0
    while done < cases:
        L = 2 + rng.randrange(3)
        query = RateQuery(*random_boundary_query(rng, L))
        if not check_achievable_inequalities(query).achievable:
            continue
        bigger = tuple(r + random_fraction(rng) for r in query.rates)
        assert check_achievable_inequalities(
            RateQuery(bigger, query.entropies)).achievable
        done += 1
