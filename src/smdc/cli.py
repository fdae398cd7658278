"""Command-line interface.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 a
checked property failed (method disagreement, non-essential inequality,
polyhedron mismatch, subset-entropy failure), 2 usage or input error.
Identical invocations, including --seed, produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Iterable

from .entropy import (ResolutionChain, chain_feasibility, check_chain_levels,
                      entropy_vector, han_check, random_joint_distribution)
from .errors import ResourceLimitError
from .fm import fourier_motzkin_region, systems_equivalent
from .generator import check_bounds, generate_ordered
from .ratio import format_rational, parse_rational_list
from .region import (Inequality, RateQuery, check_achievable_inequalities,
                     check_achievable_lp, check_lp_levels, iter_inequalities,
                     list_inequalities, redundancy_certificate,
                     redundancy_certificates)
from .resolution import LambdaVector, f_alpha, optimal_resolution, verify_resolution
from .rng import SplitMix64, random_boundary_query

MAX_RESOLUTION_LEVELS = 1000  # the output is up to L masks of L characters


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _write_rows(ineqs: Iterable[Inequality], L: int, delimiter: str) -> None:
    """The table layout: a header, then lambda, f_1..f_L and theta per row."""
    writer = csv.writer(sys.stdout, delimiter=delimiter, lineterminator="\n")
    writer.writerow(["lambda"] + [f"f{a}" for a in range(1, L + 1)] + ["theta"])
    for ineq in ineqs:
        writer.writerow(["(" + ",".join(format_rational(c) for c in ineq.lam) + ")"]
                        + [format_rational(v) for v in ineq.f_values]
                        + [ineq.theta])


def _cmd_gen(args) -> int:
    ineqs = iter_inequalities(args.levels, ordered_only=not args.all_perms)
    if args.format == "json":
        for ineq in ineqs:
            _emit(ineq.to_json_obj())
    else:
        _write_rows(ineqs, args.levels, ",")
    return 0


def _cmd_count(args) -> int:
    lower, count, upper = check_bounds(args.levels)
    _emit({"S0": count, "lower": lower, "upper": upper})
    return 0


def _cmd_table(args) -> int:
    _write_rows(iter_inequalities(args.levels), args.levels, "\t")
    return 0


def _cmd_check(args) -> int:
    rates = parse_rational_list(args.rates)
    entropies = parse_rational_list(args.entropies)
    if len(rates) != args.levels or len(entropies) != args.levels:
        raise ValueError("--rates and --entropies must match --levels")
    query = RateQuery(rates, entropies)
    if args.method != "ineq":
        check_lp_levels(query.L)  # before the inequality scan
    verdicts = []
    if args.method in ("ineq", "both"):
        verdicts.append(check_achievable_inequalities(query))
    if args.method in ("lp", "both"):
        verdicts.append(check_achievable_lp(query))
    for verdict in verdicts:
        _emit(verdict.to_json_obj())
    if len(verdicts) == 2 and verdicts[0].achievable != verdicts[1].achievable:
        print("method disagreement", file=sys.stderr)
        return 1
    return 0


def _cmd_resolution(args) -> int:
    components = parse_rational_list(args.lam)
    if len(components) > MAX_RESOLUTION_LEVELS:
        raise ResourceLimitError(f"resolution limited to L <= {MAX_RESOLUTION_LEVELS}")
    lam = LambdaVector(components)
    res = optimal_resolution(lam, args.alpha)
    total = f_alpha(lam, args.alpha) if args.alpha <= lam.zeta else Fraction(0)
    _emit({
        "lambda": [format_rational(c) for c in lam],
        "alpha": args.alpha,
        "total": format_rational(total),
        "weights": {res.mask_string(m): format_rational(w)
                    for m, w in sorted(res.weights.items())},
        "verified": verify_resolution(lam, res, total),
    })
    return 0


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError("trials must be >= 0")


def _cmd_verify_equivalence(args) -> int:
    _check_trials(args.trials)
    rng = SplitMix64(args.seed)
    mismatches = 0
    achievable = 0
    for _ in range(args.trials):
        rates, entropies = random_boundary_query(rng, args.levels)
        query = RateQuery(rates, entropies)
        by_ineq = check_achievable_inequalities(query).achievable
        by_lp = check_achievable_lp(query).achievable
        if by_ineq != by_lp:
            mismatches += 1
        achievable += by_ineq
    _emit({"levels": args.levels, "trials": args.trials, "seed": args.seed,
           "achievable": achievable, "mismatches": mismatches})
    return 1 if mismatches else 0


def _cmd_redundancy(args) -> int:
    entropies = parse_rational_list(args.entropies) if args.entropies \
        else (Fraction(1),) * args.levels
    if args.index is None:  # L is checked before the first certificate
        certificates = enumerate(redundancy_certificates(args.levels, entropies))
    else:
        certificates = [(args.index, redundancy_certificate(args.levels, args.index, entropies))]
    failures = 0
    for i, (ineq, essential, witness) in certificates:
        _emit({
            "index": i,
            "lambda": [format_rational(c) for c in ineq.lam],
            "essential": essential,
            "rhs": format_rational(ineq.rhs(entropies)),
            "lp_optimum": format_rational(ineq.lhs(witness)) if witness else None,
            "witness_rates": [format_rational(r) for r in witness] if witness else None,
        })
        failures += not essential
    return 1 if failures else 0


def _cmd_fm_compare(args) -> int:
    fm = fourier_motzkin_region(args.levels)
    gen = list_inequalities(args.levels, ordered_only=False)
    equivalent = systems_equivalent(fm, gen)
    _emit({"levels": args.levels, "fm_rows": len(fm), "generator_rows": len(gen),
           "sets_equal": set(fm) == set(gen), "polyhedra_equivalent": equivalent})
    return 0 if equivalent else 1


def _cmd_subset_entropy(args) -> int:
    import hashlib  # here only: loading OpenSSL costs every other verb 3 MiB

    _check_trials(args.trials)
    check_chain_levels(args.levels)
    rng = SplitMix64(args.seed)
    members = generate_ordered(args.levels)
    # Everything but the verdict depends on lambda only: built once per run.
    chains = [ResolutionChain.coerce(lam) for lam in members]
    lambdas = [[format_rational(c) for c in lam] for lam in members]
    totals = [[format_rational(r.total()) for r in chain.resolutions] for chain in chains]
    failures = 0
    for trial in range(args.trials):
        jd = random_joint_distribution(rng, (2,) * args.levels)
        ev = entropy_vector(jd)
        digest = hashlib.sha256(repr(sorted(jd.pmf.items())).encode()).hexdigest()[:12]
        han = han_check(ev)
        _emit({"hash": digest, "trial": trial, "han": han})
        failures += not han
        for chain, lam_text, alpha_totals in zip(chains, lambdas, totals):
            holds, resolutions = chain_feasibility(chain, ev)
            _emit({"hash": digest, "lambda": lam_text, "holds": holds,
                   "alpha_totals": alpha_totals if resolutions else None})
            failures += not holds
    if failures:
        print(f"{failures} subset-entropy failures", file=sys.stderr)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smdc",
        description="Exact tools for symmetric multilevel diversity coding rate regions.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def levels(p):
        p.add_argument("--levels", type=int, required=True, metavar="L")

    p = sub.add_parser("gen", help="stream the region inequalities")
    levels(p)
    p.add_argument("--all-perms", action="store_true",
                   help="full permutation closure instead of ordered rows")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("count", help="ordered-row count and its bounds")
    levels(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("table", help="ordered rows in table layout")
    levels(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check", help="decide achievability of a rate tuple")
    levels(p)
    p.add_argument("--rates", required=True, metavar="p/q,...")
    p.add_argument("--entropies", required=True, metavar="p/q,...")
    p.add_argument("--method", choices=("ineq", "lp", "both"), default="both")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("resolution", help="an optimal resolution for lambda")
    p.add_argument("--lambda", dest="lam", required=True, metavar="p/q,...")
    p.add_argument("--alpha", type=int, required=True)
    p.set_defaults(func=_cmd_resolution)

    p = sub.add_parser("verify-equivalence",
                       help="randomized agreement of the two membership methods")
    levels(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_verify_equivalence)

    p = sub.add_parser("redundancy", help="essentiality certificates")
    levels(p)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--entropies", default=None, metavar="p/q,...")
    p.set_defaults(func=_cmd_redundancy)

    p = sub.add_parser("fm-compare",
                       help="Fourier-Motzkin projection vs generated system")
    levels(p)
    p.set_defaults(func=_cmd_fm_compare)

    p = sub.add_parser("subset-entropy", help="subset entropy inequality batch")
    levels(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_subset_entropy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
