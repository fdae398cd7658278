"""Benchmark of the ``smdc`` command line on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports ``smdc`` from ``src``.
Each op is one in-process ``smdc.cli.main(argv)`` call with stdout captured,
so argument parsing and rational formatting count and interpreter start-up
does not.  The load is a closed loop: one client, one process, one thread.

With ``--trace 0`` the run starts SETUP_SAMPLES fresh worker processes one
after another.  Each imports ``smdc`` and runs one untimed warm-up op of every
op kind; the time from its start to that point is one ``setup_s`` sample.
The last worker then runs whole blocks of ops until ``--seconds`` of op time
have passed and reports the end-to-end metrics.  Op and set-up times are
reported at a reference pace (see pace.py); the raw figures are in the run
record.  With ``--trace 1`` a single worker runs whole blocks for half of
``--seconds`` untraced, then the same ops again with spans around every public
layer function, and reports the per-layer metrics, whose times are raw.
Spans are written to ``.bench_out/``.

Every op's output is checked exactly, outside the timed region.  A failed
check, an exception or a non-zero exit counts the op as failed and the run
goes on.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record (machine, commit, seed, sample counts, per-kind p50).  With
``--workload all`` every workload runs in turn and each metric is also printed
as one line: workload, name, value, unit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from pace import REFERENCE_PACE_S, calibrate, paced
from tracing import Tracer, layer_metrics
from validate import Reference, check_output
from workloads import WORKLOADS, op_stream

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 900
FAILURES_KEPT = 5


# ---------------------------------------------------------------- worker side

def make_execute(cli):
    """Run one smdc command line in process; returns (exit code, stdout)."""
    def execute(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()
    return execute


class Sample(NamedTuple):
    seconds: float
    failure: str | None   # why the op failed, None when it passed
    stdout_bytes: int
    pace: float           # calibration seconds around the op, see pace.py

    @property
    def paced(self) -> float:
        return paced(self.seconds, self.pace)


def run_op(op, execute, reference, pace_before: float) -> tuple[Sample, float]:
    """One timed op, then its output check; returns the sample and the pace
    measured right after the op, which is the next op's pace before."""
    failure, text = None, ""
    start = perf_counter()
    try:
        rc, text = execute(op.argv)
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        failure = f"raised {exc!r}"
    seconds = perf_counter() - start
    after = calibrate()
    if failure is None:
        failure = check_output(op, rc, text, reference)
    return Sample(seconds, failure, len(text.encode()), (pace_before + after) / 2), after


def run_ops(ops, execute, reference, tracer: Tracer | None = None) -> list[Sample]:
    samples, pace = [], calibrate()
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        sample, pace = run_op(op, execute, reference, pace)
        samples.append(sample)
    return samples


def run_blocks(stream, budget, execute, reference):
    """Whole blocks of ops until their paced op time reaches budget seconds."""
    ops, samples, elapsed = [], [], 0.0
    while elapsed < budget:
        block = next(stream)
        done = run_ops(block, execute, reference)
        ops += block
        samples += done
        elapsed += sum(s.paced for s in done)
    return ops, samples


def run_traced(ops, execute, reference, name, seed):
    tracer = Tracer()
    tracer.install()
    try:
        samples = run_ops(ops, execute, reference, tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    return samples, tracer.spans


def worker(name: str, seed: int, seconds: float, trace: bool) -> int:
    pace_at_start = calibrate()
    sys.path.insert(0, str(SRC))
    import smdc.cli

    execute = make_execute(smdc.cli)
    workload = WORKLOADS[name]
    for op in workload.warmups:
        execute(op.argv)
    print(f"ready {(pace_at_start + calibrate()) / 2!r}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    reference = Reference(execute)
    for op in workload.warmups:
        if op.argv[0] in ("check", "gen"):
            reference.table(op.params["L"])
    stream = op_stream(name, seed)
    ops, samples = run_blocks(stream, seconds / 2 if trace else seconds, execute, reference)
    report = {"kinds": [op.kind for op in ops], "samples": samples}
    if trace:
        traced, spans = run_traced(ops, execute, reference, name, seed)
        layers = layer_metrics(spans, len(ops))
        layers["cli.stdout_bytes"] = (sum(s.stdout_bytes for s in traced) / len(ops), "B/op")
        layers["trace.overhead_frac"] = (
            sum(s.paced for s in traced) / sum(s.paced for s in samples) - 1, "frac")
        report["layers"] = layers
        report["samples"] = samples + traced
    report["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report), flush=True)
    return 0


# ----------------------------------------------------------- orchestrator side

class WorkerFailed(RuntimeError):
    pass


def _spawn(name, seed, seconds, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    return subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)


def _start_and_set_up(name, seed, seconds, trace):
    """A worker that has finished its set-up, and the seconds that took."""
    start = perf_counter()
    proc = _spawn(name, seed, seconds, trace)
    line = proc.stdout.readline().split()
    setup = perf_counter() - start
    if len(line) != 2 or line[0] != "ready":
        _stop(proc)
        raise WorkerFailed(f"{name} worker did not finish its set-up")
    return proc, (setup, float(line[1]))


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _collect(name, seed, seconds, trace):
    """Set up SETUP_SAMPLES workers (one when tracing); the last one measures."""
    setups = []
    workers = 1 if trace else SETUP_SAMPLES
    for i in range(workers):
        proc, setup = _start_and_set_up(name, seed, seconds, trace)
        setups.append(setup)
        try:
            out, _ = proc.communicate("go\n" if i == workers - 1 else "exit\n",
                                      timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{name} worker ran past {WORKER_TIMEOUT_S} s") from None
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise WorkerFailed(f"{name} worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{name} worker printed no report")
    return json.loads(lines[-1]), setups


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _quantiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive")


def measure(name: str, seed: int, seconds: float, trace: bool):
    """(result, record) of one run; result is the contract's JSON object."""
    report, setups = _collect(name, seed, seconds, trace)
    samples = [Sample(*s) for s in report["samples"]]
    failures = [(i, s.failure) for i, s in enumerate(samples) if s.failure]
    kinds = report["kinds"]
    timed = samples[:len(kinds)]
    raw = [s.seconds for s in timed]
    ops = [s.paced for s in timed]
    p50, p90 = _quantiles(ops)[4], _quantiles(ops)[8]
    setup_s = statistics.median(paced(t, pace) for t, pace in setups)
    paces = _quantiles([s.pace for s in timed])
    per_kind: dict[str, list[float]] = {}
    for kind, t in zip(kinds, ops):
        per_kind.setdefault(kind, []).append(t)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "commit": _git_commit(),
        "reference_pace_ms": _ms(REFERENCE_PACE_S),
        "pace_ms_p10_p50_p90": [_ms(paces[i]) for i in (0, 4, 8)],
        "setup_samples": [{"raw_s": t, "pace_ms": _ms(pace)} for t, pace in setups],
        "timed_ops": len(ops),
        "p50_samples": len(ops),
        "p90_samples": len(ops),
        "samples_above_p90": sum(t > p90 for t in ops),
        "failed_frac": len(failures) / len(samples),
        "raw": {"ops_per_s": len(raw) / sum(raw), "op_p50_ms": _ms(_quantiles(raw)[4]),
                "op_p90_ms": _ms(_quantiles(raw)[8])},
        "per_kind_p50_ms": {k: {"p50_ms": _ms(statistics.median(v)), "n": len(v)}
                            for k, v in sorted(per_kind.items())},
        "failures": [{"op": i, "reason": r} for i, r in failures[:FAILURES_KEPT]],
    }
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(ops) / sum(ops), "unit": "ops/s"},
            "op_p50_ms": {"value": _ms(p50), "unit": "ms"},
            "op_p90_ms": {"value": _ms(p90), "unit": "ms"},
            "peak_rss_mib": {"value": report["rss_kib"] / 1024.0, "unit": "MiB"},
        }
    result = {"correct": not failures, "attempted": len(samples),
              "failed": len(failures), "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.workload, args.seed, args.seconds, bool(args.trace))

    if not (SRC / "smdc" / "cli.py").is_file():
        print(f"error: no smdc sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, record = measure(name, args.seed, args.seconds, bool(args.trace))
            results[name] = result
            if args.workload == "all":
                for metric, m in result["metrics"].items():
                    print(f"{name:<10} {metric:<50} {m['value']:>14.6g} {m['unit']}")
                print(f"{name:<10} {'failed_frac':<50} {record['failed_frac']:>14.6g} frac")
            print(json.dumps({"run_record": record}))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
