"""Spans around the public functions of each ``smdc`` layer, added from outside.

``Tracer.install`` replaces every traced function by a wrapper in each loaded
``smdc`` module that holds it, so the aliases other modules imported (such as
``smdc.region.solve`` or ``smdc.cli.check_achievable_lp``) are traced too.
Spans (name, start, end, parent, op id, counts) stay in memory until the run
ends.  A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

TRACED = (
    ("lp", "solve"),
    ("region", "check_achievable_lp"),
    ("region", "check_achievable_inequalities"),
    ("region", "list_inequalities"),
    ("region", "redundancy_certificate"),
    ("resolution", "f_vector"),
    ("resolution", "optimal_resolution"),
    ("resolution", "verify_resolution"),
    ("generator", "generate_ordered"),
    ("generator", "expand_permutations"),
    ("fm", "fourier_motzkin_region"),
    ("fm", "systems_equivalent"),
    ("entropy", "entropy_vector"),
    ("entropy", "chain_feasibility"),
    ("cli", "main"),
)


def _describe_solve(args, result) -> dict:
    lp = args[0]
    point = result.point or ()
    return {
        "rows": len(lp.rows),
        "vars": lp.num_vars,
        "infeasible": result.status.name == "INFEASIBLE",
        "bits": max((max(x.numerator.bit_length(), x.denominator.bit_length())
                     for x in point), default=0),
    }


# Counts taken at the layer boundary from a call's arguments and result.
DESCRIBE = {
    "lp.solve": _describe_solve,
    "generator.generate_ordered": lambda args, result: {"rows": len(result)},
    "generator.expand_permutations": lambda args, result: {"rows": len(result)},
    "entropy.chain_feasibility": lambda args, result: {"holds": bool(result[0])},
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int       # index of the enclosing traced span, -1 at the top
    op: int           # index of the op within the traced pass
    info: dict | None


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "smdc" or name.startswith("smdc.")]
        for module_name, attr in TRACED:
            original = getattr(importlib.import_module(f"smdc.{module_name}"), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        describe = DESCRIBE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = describe(args, result) if describe and result is not None else None
                spans[index] = Span(name, start, end, parent, self.op, info)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), averaged over the n_ops traced ops."""
    n = max(n_ops, 1)
    child_time = [0.0] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start

    def has_ancestor(i: int, name: str) -> bool:
        i = spans[i].parent
        while i >= 0:
            if spans[i].name == name:
                return True
            i = spans[i].parent
        return False

    def under(name: str, ancestor: str) -> list[int]:
        return [i for i in by_name[name] if has_ancestor(i, ancestor)]

    def calls(name: str) -> float:
        return len(by_name[name]) / n

    def self_s(name: str) -> float:
        return sum(spans[i].end - spans[i].start - child_time[i] for i in by_name[name]) / n

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def infos(name: str) -> list[dict]:
        return [spans[i].info for i in by_name[name] if spans[i].info is not None]

    solves = infos("lp.solve")
    m: dict[str, tuple[float, str]] = {}
    for name in ("lp.solve", "region.check_achievable_lp",
                 "region.check_achievable_inequalities", "region.list_inequalities",
                 "region.redundancy_certificate", "resolution.f_vector",
                 "resolution.optimal_resolution", "generator.generate_ordered",
                 "generator.expand_permutations", "fm.fourier_motzkin_region",
                 "fm.systems_equivalent", "entropy.entropy_vector",
                 "entropy.chain_feasibility"):
        m[f"{name}.calls"] = (calls(name), "1/op")
        m[f"{name}.self_s"] = (self_s(name), "s/op")
    m["lp.solve.cells"] = (sum(s["rows"] * s["vars"] for s in solves) / n, "1/op")
    m["lp.solve.rows_max"] = (max((s["rows"] for s in solves), default=0), "count")
    m["lp.solve.vars_max"] = (max((s["vars"] for s in solves), default=0), "count")
    m["lp.solve.infeasible_frac"] = (
        ratio(sum(s["infeasible"] for s in solves), len(solves)), "frac")
    m["lp.point.bits_max"] = (max((s["bits"] for s in solves), default=0), "bits")
    m["region.check_achievable_inequalities.f_vector_per_call"] = (
        ratio(len(under("resolution.f_vector", "region.check_achievable_inequalities")),
              len(by_name["region.check_achievable_inequalities"])), "1/call")
    m["resolution.optimal_resolution.lp_s"] = (
        sum(spans[i].end - spans[i].start
            for i in under("lp.solve", "resolution.optimal_resolution")) / n, "s/op")
    m["resolution.verify_resolution.self_s"] = (self_s("resolution.verify_resolution"), "s/op")
    m["generator.rows_out"] = (
        sum(info["rows"] for name in ("generator.generate_ordered",
                                      "generator.expand_permutations")
            for info in infos(name)) / n, "1/op")
    for name in ("fm.fourier_motzkin_region", "fm.systems_equivalent"):
        m[f"{name}.lp_calls"] = (
            ratio(len(under("lp.solve", name)), len(by_name[name])), "1/call")
    chains = infos("entropy.chain_feasibility")
    m["entropy.chain_feasibility.holds_frac"] = (
        ratio(sum(info["holds"] for info in chains), len(chains)), "frac")
    m["cli.main.self_s"] = (self_s("cli.main"), "s/op")
    return m
