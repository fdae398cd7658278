"""Self-test of the benchmark.

    python3 -m pytest bench/test_bench.py -q

Runs each workload briefly through the real command line, untraced and
traced, and checks the output validation and the seeded op streams in process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from validate import Reference, check_output  # noqa: E402
from workloads import WORKLOADS, op_stream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert json.loads(record_line)["run_record"]["failed_frac"] == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def _expected_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload):
    metrics = _run(workload, trace=0)
    assert {k: v["unit"] for k, v in metrics.items()} == _expected_units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_layer_metric(workload):
    metrics = _run(workload, trace=1)
    assert {k: v["unit"] for k, v in metrics.items()} == _expected_units("per_layer")
    if workload == "tables":
        assert metrics["lp.solve.calls"]["value"] == 0
    else:
        assert metrics["lp.solve.calls"]["value"] > 0


@pytest.fixture(scope="module")
def execute():
    import smdc.cli
    return run.make_execute(smdc.cli)


def _first(workload: str, kind: str, want=lambda op: True):
    for block in op_stream(workload, 5):
        for op in block:
            if op.kind == kind and want(op):
                return op


def test_tampered_check_outputs_fail(execute):
    reference = Reference(execute)
    op = _first("membership", "check-both L=5", lambda op: op.params["expected"])
    rc, text = execute(op.argv)
    assert check_output(op, rc, text, reference) is None

    ineq, lp = (json.loads(line) for line in text.splitlines())
    flipped = dict(ineq, achievable=not ineq["achievable"])
    assert check_output(op, rc, json.dumps(flipped) + "\n" + json.dumps(lp), reference)

    allocation = lp["witness"]["allocation"]
    allocation[0][0] = str(Fraction(allocation[0][0]) + 1)
    assert check_output(op, rc, json.dumps(ineq) + "\n" + json.dumps(lp), reference)


def test_tampered_resolution_fails(execute):
    op = _first("resolve", "resolution L=10")
    rc, text = execute(op.argv)
    assert check_output(op, rc, text, None) is None
    out = json.loads(text)
    mask = next(iter(out["weights"]))
    out["weights"][mask] = str(Fraction(out["weights"][mask]) + 1)
    assert check_output(op, rc, json.dumps(out), None)


def test_runner_counts_tampered_and_raising_ops_as_failed(execute):
    reference = Reference(execute)

    def tampering(argv):
        rc, text = execute(argv)
        first, *rest = text.splitlines()
        verdict = json.loads(first)
        verdict["achievable"] = not verdict["achievable"]
        return rc, "\n".join([json.dumps(verdict), *rest])

    def raising(argv):
        raise RuntimeError("boom")

    for fake in (tampering, raising):
        ops, samples = run.run_blocks(op_stream("membership", 2), 1e-9, fake, reference)
        assert ops and all(s.failure for s in samples)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_ops(workload):
    def first_blocks(seed):
        stream = op_stream(workload, seed)
        return [op.argv for _ in range(2) for op in next(stream)]

    assert first_blocks(9) == first_blocks(9)
    assert first_blocks(9) != first_blocks(10)
