"""Exact checks of captured ``smdc`` output, run outside the timed region.

``check_output`` returns None when the output of an op is right and a short
reason otherwise.  Everything is compared as exact rationals.  The only
reference taken from the program is its own ``table --levels L`` output, which
a violated-inequality witness must be a permutation of; resolution totals are
checked against an independent closed form computed here.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import Op

# |S_4^0|: the ordered rows that subset-entropy checks per trial at L = 4.
ORDERED_ROWS_L4 = 9


class Reference:
    """Ordered region rows per L, parsed from the program's ``table`` verb."""

    def __init__(self, execute):
        self._execute = execute
        self._tables: dict[int, list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]] = {}
        self._f: dict[int, dict[tuple[Fraction, ...], tuple[Fraction, ...]]] = {}

    def table(self, L: int):
        if L not in self._tables:
            rc, text = self._execute(("table", "--levels", str(L)))
            if rc != 0:
                raise RuntimeError(f"table --levels {L} exited {rc}")
            rows = []
            for line in text.splitlines()[1:]:
                cells = line.split("\t")
                lam = tuple(Fraction(c) for c in cells[0].strip("()").split(","))
                rows.append((lam, tuple(Fraction(c) for c in cells[1:1 + L])))
            self._tables[L] = rows
            self._f[L] = dict(rows)
        return self._tables[L]

    def f_of(self, L: int) -> dict[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """f values keyed by the descending lambda of each table row."""
        self.table(L)
        return self._f[L]


def f_alpha(lam, alpha: int) -> Fraction:
    """min over beta < alpha of (sum after the beta largest) / (alpha - beta)."""
    desc = sorted(lam, reverse=True)
    return min(sum(desc[b:], Fraction(0)) / (alpha - b) for b in range(alpha))


def _lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _fractions(cells) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in cells)


def _check_allocation(witness, params) -> str | None:
    if not witness or "allocation" not in witness:
        return "achievable LP verdict without an allocation"
    L = params["L"]
    r = [_fractions(row) for row in witness["allocation"]]
    if len(r) != L or any(len(row) != L for row in r):
        return "allocation has the wrong shape"
    if any(x < 0 for row in r for x in row):
        return "allocation has a negative entry"
    if tuple(sum(row, Fraction(0)) for row in r) != params["rates"]:
        return "allocation row sums differ from the rates"
    for a in range(1, L + 1):
        smallest = sorted(row[a - 1] for row in r)[:a]
        if sum(smallest, Fraction(0)) < params["entropies"][a - 1]:
            return f"allocation misses H_{a} on the {a} weakest encoders"
    return None


def _check_violated(witness, params, reference: Reference) -> str | None:
    if not witness or "lambda" not in witness:
        return "infeasible ineq verdict without an inequality"
    lam, f = _fractions(witness["lambda"]), _fractions(witness["f"])
    lhs = sum(l * r for l, r in zip(lam, params["rates"]))
    rhs = sum(a * h for a, h in zip(f, params["entropies"]))
    if len(lam) != params["L"] or not lhs < rhs:
        return "witness inequality is not violated"
    if reference.f_of(params["L"]).get(tuple(sorted(lam, reverse=True))) != f:
        return "witness inequality is not a permutation of a table row"
    return None


def _check_check(op: Op, rc: int, text: str, reference: Reference) -> str | None:
    verdicts = _lines(text)
    methods = ["ineq", "lp"] if op.argv[-1] == "both" else [op.argv[-1]]
    if [v.get("method") for v in verdicts] != methods:
        return f"expected verdicts {methods}"
    answers = {v["achievable"] for v in verdicts}
    if len(answers) != 1:
        return "ineq and lp verdicts disagree"
    if rc != 0:
        return f"exit code {rc}"
    achievable = answers.pop()
    if achievable != op.params["expected"]:
        return f"verdict {achievable} where the draw forces {op.params['expected']}"
    for v in verdicts:
        if v["method"] == "lp" and achievable:
            problem = _check_allocation(v["witness"], op.params)
        elif v["method"] == "ineq" and not achievable:
            problem = _check_violated(v["witness"], op.params, reference)
        else:
            problem = None
        if problem:
            return problem
    return None


def _check_gen(op: Op, text: str, reference: Reference) -> str | None:
    rows = [(_fractions(o["lambda"]), _fractions(o["f"])) for o in _lines(text)]
    if rows != reference.table(op.params["L"]):
        return "gen rows differ from the table rows"
    return None


def _check_resolution(op: Op, text: str) -> str | None:
    (out,) = _lines(text)
    lam, alpha = op.params["lam"], op.params["alpha"]
    if _fractions(out["lambda"]) != lam or out["alpha"] != alpha:
        return "resolution echoes other inputs"
    columns = [Fraction(0)] * len(lam)
    weight_sum = Fraction(0)
    for mask, weight in out["weights"].items():
        w = Fraction(weight)
        if len(mask) != len(lam) or mask.count("1") != alpha or w <= 0:
            return f"bad support vector {mask}"
        weight_sum += w
        for i, bit in enumerate(mask):
            if bit == "1":
                columns[i] += w
    if any(c > l for c, l in zip(columns, lam)):
        return "resolution exceeds lambda in some component"
    total = f_alpha(lam, alpha)
    if weight_sum != total or Fraction(out["total"]) != total:
        return "resolution total differs from f_alpha"
    if out["verified"] is not True:
        return "resolution not verified"
    return None


def _check_redundancy(op: Op, text: str) -> str | None:
    (out,) = _lines(text)
    if out["index"] != op.params["index"] or out["essential"] is not True:
        return "inequality not certified essential"
    if not Fraction(out["lp_optimum"]) < Fraction(out["rhs"]):
        return "certificate optimum is not below the right side"
    return None


def _check_fm(text: str) -> str | None:
    (out,) = _lines(text)
    if not (out["sets_equal"] is True and out["polyhedra_equivalent"] is True
            and out["fm_rows"] == out["generator_rows"]):
        return "Fourier-Motzkin projection differs from the generated system"
    return None


def _check_entropy(op: Op, text: str) -> str | None:
    records = _lines(text)
    han = [r["han"] for r in records if "han" in r]
    holds = [r["holds"] for r in records if "holds" in r]
    trials = op.params["trials"]
    if len(records) != trials * (1 + ORDERED_ROWS_L4) or len(han) != trials \
            or len(holds) != trials * ORDERED_ROWS_L4:
        return "subset-entropy printed the wrong records"
    if not all(v is True for v in han + holds):
        return "a subset-entropy check failed"
    return None


def check_output(op: Op, rc: int, text: str, reference: Reference) -> str | None:
    """None when the captured output of op is correct, else the reason."""
    verb = op.argv[0]
    try:
        if verb == "check":
            return _check_check(op, rc, text, reference)
        if rc != 0:
            return f"exit code {rc}"
        if verb == "gen":
            return _check_gen(op, text, reference)
        if verb == "resolution":
            return _check_resolution(op, text)
        if verb == "redundancy":
            return _check_redundancy(op, text)
        if verb == "fm-compare":
            return _check_fm(text)
        if verb == "subset-entropy":
            return _check_entropy(op, text)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
    return f"no check for verb {verb}"
