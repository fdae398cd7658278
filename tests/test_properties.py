"""Fast randomized passes over every invariant; the acceptance gate repeats
them at full case counts."""

import props
from oracles import random_prime_lambda

N = 120


def test_oracle_equivalence():
    props.run_oracle_equivalence(40)


def test_oracle_equivalence_prime_denominators():
    """Denominators are primes up to 97, so the scan's common denominator,
    their lcm, has many factors."""
    props.run_oracle_equivalence(40, seed=109, draw=random_prime_lambda)


def test_permutation_invariance():
    props.run_permutation_invariance(N)


def test_homogeneity():
    props.run_homogeneity(N)


def test_concavity():
    props.run_concavity(N)


def test_beta_monotonicity():
    props.run_beta_monotonicity(N)


def test_pseudo_convexity():
    props.run_pseudo_convexity(N)


def test_decomposition():
    props.run_decomposition(N)


def test_threshold():
    props.run_threshold(N)


def test_rearrangement():
    props.run_rearrangement(60)


def test_resolution_round_trip():
    props.run_resolution_round_trip(N)


def test_method_agreement():
    props.run_method_agreement(40)


def test_monotonicity_sanity():
    props.run_monotonicity_sanity(30)
