import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from golden import TABLES
import smdc
from smdc import cli, region
from smdc.ratio import format_rational
from smdc.resolution import f_vector


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def expected_table_text(L):
    lines = ["\t".join(["lambda"] + [f"f{a}" for a in range(1, L + 1)] + ["theta"])]
    for lam, f, theta in TABLES[L]:
        cells = ["(" + ",".join(format_rational(c) for c in lam) + ")"]
        cells += [format_rational(v) for v in f]
        cells.append(str(theta))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def test_table_matches_golden(capsys):
    for L in range(1, 6):
        code, out, _ = run_cli(capsys, "table", "--levels", str(L))
        assert code == 0
        assert out == expected_table_text(L)


def test_count_output(capsys):
    code, out, _ = run_cli(capsys, "count", "--levels", "5")
    assert code == 0
    assert out == '{"S0": 23, "lower": 16, "upper": 120}\n'


def test_count_budget(capsys):
    code, out, err = run_cli(capsys, "count", "--levels", "1001")
    assert code == 2 and out == ""
    assert err == "error: counting limited to L <= 1000\n"


def test_check_not_achievable(capsys):
    code, out, _ = run_cli(capsys, "check", "--levels", "2",
                           "--rates", "1,1", "--entropies", "1,1")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [l["method"] for l in lines] == ["ineq", "lp"]
    assert not lines[0]["achievable"] and not lines[1]["achievable"]
    assert lines[0]["witness"]["lambda"] == ["1", "1"]


def test_check_single_method(capsys):
    code, out, _ = run_cli(capsys, "check", "--levels", "2",
                           "--rates", "2,1", "--entropies", "1,1", "--method", "lp")
    assert code == 0
    record = json.loads(out)
    assert record["achievable"] and record["witness"]["allocation"]


def test_gen_json_round_trip(capsys):
    for L in (2, 3, 4):
        code, out, _ = run_cli(capsys, "gen", "--levels", str(L), "--format", "json")
        assert code == 0
        for line in out.splitlines():
            record = json.loads(line)
            lam = tuple(F(s) for s in record["lambda"])
            f = tuple(F(s) for s in record["f"])
            assert f_vector(lam).values == f


def test_gen_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "gen", "--levels", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "lambda,f1,f2,theta"
    assert out.splitlines()[1] == '"(1,0)",1,0,0'


def test_gen_all_perms(capsys):
    code, out, _ = run_cli(capsys, "gen", "--levels", "3", "--all-perms")
    assert code == 0
    assert len(out.splitlines()) == 10


def test_resolution_verb(capsys):
    code, out, _ = run_cli(capsys, "resolution", "--lambda", "2,1,1", "--alpha", "2")
    assert code == 0
    record = json.loads(out)
    assert record["total"] == "2" and record["verified"] is True
    assert sum(F(w) for w in record["weights"].values()) == 2


def test_verify_equivalence_deterministic(capsys):
    args = ("verify-equivalence", "--levels", "3", "--trials", "20", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["mismatches"] == 0


def test_redundancy_verb(capsys):
    code, out, _ = run_cli(capsys, "redundancy", "--levels", "2")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3 and all(r["essential"] for r in records)
    code, out, _ = run_cli(capsys, "redundancy", "--levels", "3", "--index", "4")
    assert code == 0 and json.loads(out)["essential"]


def test_fm_compare_verb(capsys):
    code, out, _ = run_cli(capsys, "fm-compare", "--levels", "2")
    assert code == 0
    record = json.loads(out)
    assert record["sets_equal"] and record["polyhedra_equivalent"]


def test_subset_entropy_verb(capsys):
    args = ("subset-entropy", "--levels", "2", "--trials", "3", "--seed", "13")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    records = [json.loads(line) for line in out1.splitlines()]
    assert sum(1 for r in records if "han" in r) == 3
    assert all(r.get("han", True) and r.get("holds", True) for r in records)


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "check", "--levels", "2",
                           "--rates", "1", "--entropies", "1,1")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "resolution", "--lambda", "0,0", "--alpha", "1")
    assert code == 2


def test_resolution_wide_tail_answers_fast(capsys):
    # C(18, 9) = 48620 weight-9 masks, far beyond what the defining LP solves
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "resolution", "--lambda", ",".join(["1"] * 18),
                           "--alpha", "9")
    assert time.perf_counter() - start < 1
    assert code == 0
    record = json.loads(out)
    assert record["total"] == "2" and record["verified"] is True


def test_resolution_level_budget(capsys):
    L = cli.MAX_RESOLUTION_LEVELS
    code, out, _ = run_cli(capsys, "resolution", "--lambda", ",".join(["1"] * L),
                           "--alpha", str(L // 2))
    assert code == 0 and json.loads(out)["verified"] is True
    code, out, err = run_cli(capsys, "resolution", "--lambda", ",".join(["1"] * (L + 1)),
                             "--alpha", "1")
    assert code == 2 and out == ""
    assert err == f"error: resolution limited to L <= {L}\n"


def test_check_lp_level_limit(capsys):
    ones = ",".join(["1"] * 13)
    code, out, err = run_cli(capsys, "check", "--levels", "13", "--rates", ones,
                             "--entropies", ones, "--method", "lp")
    assert code == 2 and out == ""
    assert "feasibility LP limited to L <= 12" in err


def test_check_lp_budget_before_scan(capsys, monkeypatch):
    def scan(query):
        raise AssertionError("inequality scan ran before the LP budget check")

    monkeypatch.setattr(cli, "check_achievable_inequalities", scan)
    fours, ones = ",".join(["4"] * 13), ",".join(["1"] * 13)
    code, out, err = run_cli(capsys, "check", "--levels", "13", "--rates", fours,
                             "--entropies", ones)
    assert code == 2 and out == ""
    assert err == "error: feasibility LP limited to L <= 12\n"


def test_subset_entropy_budget_before_trials(capsys):
    code, out, err = run_cli(capsys, "subset-entropy", "--levels", "5",
                             "--trials", "1", "--seed", "1")
    assert code == 2 and out == ""
    assert err == "error: chain feasibility limited to L <= 4\n"


def test_redundancy_budget_before_closure(capsys, monkeypatch):
    def listing(*args, **kwargs):
        raise AssertionError("rows listed before the redundancy budget check")

    monkeypatch.setattr(cli, "list_inequalities", listing)
    monkeypatch.setattr(region, "ordered_inequalities", listing)
    for index in ((), ("--index", "0")):
        code, out, err = run_cli(capsys, "redundancy", "--levels", "7", *index)
        assert code == 2 and out == ""
        assert err == "error: redundancy certificates limited to L <= 6\n"


def test_redundancy_index_without_closure_listing(capsys, monkeypatch):
    def listing(*args, **kwargs):
        raise AssertionError("closure listed for a single certificate")

    monkeypatch.setattr(cli, "list_inequalities", listing)
    code, out, _ = run_cli(capsys, "redundancy", "--levels", "4", "--index", "20")
    assert code == 0
    assert out == ('{"index": 20, "lambda": ["1", "1", "2", "0"], "essential": true,'
                   ' "rhs": "7", "lp_optimum": "13/2", "witness_rates": ["2", "5/2", "1", "15"]}\n')


def test_gen_and_table_stream_rows(capsys, monkeypatch):
    def listing(*args, **kwargs):
        raise AssertionError("rows collected into a list before writing")

    monkeypatch.setattr(cli, "list_inequalities", listing)
    for command in ("gen --levels 11 --format csv", "gen --levels 5 --all-perms --format csv",
                    "table --levels 8"):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command], command


def test_redundancy_fields_besides_witness_pinned(capsys):
    # The LP optimum is unique but its minimizer need not be, so only
    # witness_rates may change with the certificate method; index, lambda,
    # essential, rhs and lp_optimum are pinned here.
    code, out, _ = run_cli(capsys, "redundancy", "--levels", "3")
    records = [json.loads(line) for line in out.splitlines()]
    for record in records:
        del record["witness_rates"]
    assert code == 0 and len(records) == 10
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == \
        "3e214096fe0dc7ebc2e6d2a182cc5bd166c4bb719170ba623d95338cb80d7601"


def test_cli_runs_with_mpmath_blocked():
    env = dict(os.environ, PYTHONPATH=str(Path(smdc.__file__).parents[1]))
    command = "subset-entropy --levels 3 --trials 2 --seed 5"
    probe = ("import sys; sys.modules['mpmath'] = None; from smdc import cli; "
             f"sys.exit(cli.main({command.split()!r}))")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout.encode()).hexdigest() == STDOUT_SHA256[command]


def test_package_imports_only_stdlib():
    package = Path(smdc.__file__).parent
    foreign = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "smdc" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert foreign == []


def _imports_lp(node) -> bool:
    """Whether an import statement loads smdc.lp, in any spelling: ``import
    smdc.lp``, ``from smdc.lp import ...``, ``from .lp import ...`` or
    ``from . import lp``."""
    if isinstance(node, ast.Import):
        return any("lp" in alias.name.split(".") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return ("lp" in (node.module or "").split(".")
                or any(alias.name == "lp" for alias in node.names))
    return False


def test_resolution_verb_loads_neither_lp_nor_openssl():
    """Only subset-entropy hashes, and loading OpenSSL costs 3 MiB of peak RSS;
    optimal resolutions, and the subset-entropy chain built from them, need no LP."""
    env = dict(os.environ, PYTHONPATH=str(Path(smdc.__file__).parents[1]))
    probe = ("import sys; from smdc import cli; "
             "cli.main(['resolution', '--lambda', '3,1,1', '--alpha', '2']); "
             "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    spellings = ("import smdc.lp", "from smdc.lp import solve", "from .lp import solve",
                 "from . import lp", "from smdc import lp")
    assert all(_imports_lp(ast.parse(s).body[0]) for s in spellings)
    assert not _imports_lp(ast.parse("from .ratio import format_rational").body[0])
    for module in ("resolution.py", "entropy.py"):
        source = ast.parse((Path(smdc.__file__).parent / module).read_text())
        assert not [node for node in ast.walk(source) if _imports_lp(node)], module


def test_bench_traced_names_resolve():
    """Every smdc.<module>.<name> that bench/tracing.py wraps still exists."""
    tracing = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    traced = next(ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    assert traced
    missing = [f"smdc.{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(f"smdc.{module}"), name, None))]
    assert missing == []


def test_gen_bad_levels_every_time(capsys):
    for _ in range(2):
        code, out, err = run_cli(capsys, "gen", "--levels", "0")
        assert code == 2 and out == ""
        assert err == "error: enumeration limited to 1 <= L <= 14\n"


# sha256 of each command's stdout: these bytes are part of the interface.
STDOUT_SHA256 = {
    "gen --levels 6":
        "fb4ed0bbc954becf3f6a59be4e3b88ab58c666906edd5e202f9251bf6895308c",
    "gen --levels 5 --all-perms --format csv":
        "3e52e63ed88392a47b2e78b7c2e487802bc1191458e46dde857dcfe1c893c243",
    "table --levels 8":
        "e6664802fc079d789c70b40e54a71f1452c2aaab3b398eeb87ccbc005b78a399",
    "check --levels 6 --rates 1,2,3,4,5,1/2 --entropies 1,1,1,1,1,1 --method ineq":
        "538088f1c73b958f79f5709e64f0ecf5e9b59a5d1cd06ed2d5e5d7a73bda4861",
    "check --levels 11 --rates 0,0,0,0,0,0,0,0,0,0,0 --entropies 1,1,1,1,1,1,1,1,1,1,1"
    " --method ineq":
        "bfc2a59bd3e3126cb1b8c6809134ab1b8398c4ae5d3b6f1cdac03e5ae68910bc",
    "redundancy --levels 3":
        "4c5c1e79253d9ba1d160a620f9dc08447903f06603abd13887c9b9fd891bc8a8",
    "fm-compare --levels 3":
        "1689cb26ba8d6281779c7a315c49b9719f15cd18cd1f0ce54c56d51b77d97778",
    "fm-compare --levels 4":
        "70537876a643f625c9cc14e3c8a70e1119deb3dfb52abde26657dbad14ff11b1",
    "subset-entropy --levels 3 --trials 2 --seed 5":
        "85c06af9f6e4fc259be1e2cdc07c343996b493c255be5318777c3a541c1884bc",
    "subset-entropy --levels 4 --trials 3 --seed 7":
        "494dd403c43e35e1e209d4a1bf3c2b92af5ba3cd956077d4d7c3e18c2b34f28a",
    "check --levels 8 --rates 3,3,3,3,3,3,3,3 --entropies 1,1/2,1,3/2,1,1/2,1,1/3"
    " --method lp":
        "702a070b3db7a20e06bf40cdcf7cc19e19e09e2044575c4e61db0b9c83eb5ee7",
    "resolution --lambda 3,2,3/2,1,1/2,3,2,3/2,1,1/2,3,2 --alpha 4":  # wrap-around support
        "4dde079034482013e22f8af541f23d572a717f71aa2ae148cddb3abfe25eb82b",
    "verify-equivalence --levels 5 --trials 200 --seed 1":
        "fd85e623913b7a6bb7344b4b4e646c5cc4d5252d9ce1a7a1636fe6948aeda216",
    "table --levels 10":
        "65dee5e8551cbd0b07e085a2073cf8069242ae0e351456fcc87cd00ab8c634f6",
    "gen --levels 11 --format csv":  # streamed, not remembered
        "e76a7d63af98d77553912240ef7d7e56ca9cffee56128af03b913de89c534a28",
}


def test_stdout_digests(capsys):
    changed = []
    for command, digest in STDOUT_SHA256.items():
        code, out, _ = run_cli(capsys, *command.split())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(command)
    assert changed == []


# sha256 over the stdout of `subset-entropy --levels L --trials 3 --seed s`
# for L = 2, 3, 4 and, within each L, s = 0..29, concatenated in that order.
SUBSET_ENTROPY_SEEDS_SHA256 = \
    "29788a548359fb5c160d1569063f04423b85920cf31cb91dfb4a07d08ff0648e"


def test_subset_entropy_digest_over_seeds(capsys):
    digest = hashlib.sha256()
    for levels in ("2", "3", "4"):
        for seed in range(30):
            code, out, _ = run_cli(capsys, "subset-entropy", "--levels", levels,
                                   "--trials", "3", "--seed", str(seed))
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == SUBSET_ENTROPY_SEEDS_SHA256


def test_verify_equivalence_negative_trials(capsys):
    code, out, err = run_cli(capsys, "verify-equivalence", "--levels", "2",
                             "--trials", "-5", "--seed", "1")
    assert code == 2 and out == ""
    assert err == "error: trials must be >= 0\n"


def test_subset_entropy_negative_trials(capsys):
    code, out, err = run_cli(capsys, "subset-entropy", "--levels", "2",
                             "--trials", "-3", "--seed", "1")
    assert code == 2 and out == ""
    assert err == "error: trials must be >= 0\n"
