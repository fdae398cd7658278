import itertools
import json
from fractions import Fraction as F

import pytest

from oracles import greedy_minimize_system
from smdc import cli, fm
from smdc.errors import ResourceLimitError
from smdc.fm import fourier_motzkin_region, systems_equivalent
from smdc.lp import solve
from smdc.region import Inequality, list_inequalities
from smdc.resolution import LambdaVector


def test_level1_single_row():
    rows = fourier_motzkin_region(1)
    assert len(rows) == 1
    assert tuple(rows[0].lam) == (1,) and rows[0].f_values == (1,)


def test_level2_exact_three_rows():
    rows = fourier_motzkin_region(2)
    got = {(tuple(i.lam), i.f_values) for i in rows}
    assert got == {((1, 0), (1, 0)), ((0, 1), (1, 0)), ((1, 1), (2, 1))}


def test_level3_matches_full_closure():
    rows = fourier_motzkin_region(3)
    gen = list_inequalities(3, ordered_only=False)
    assert len(rows) == 10
    assert {(tuple(i.lam), i.f_values) for i in rows} == \
        {(tuple(i.lam), i.f_values) for i in gen}
    assert systems_equivalent(rows, gen)


def test_level_limit():
    with pytest.raises(ResourceLimitError):
        fourier_motzkin_region(5)


def test_equivalence_is_sensitive():
    gen = list_inequalities(2, ordered_only=False)
    # dropping the sum inequality changes the polyhedron
    pruned = [i for i in gen if tuple(i.lam) != (1, 1)]
    assert not systems_equivalent(gen, pruned)
    # scaling rows does not
    scaled = [Inequality(i.lam, i.f_values) for i in gen]
    assert systems_equivalent(gen, scaled)


def test_inequality_row_encoding():
    ineq = next(i for i in list_inequalities(3) if tuple(i.lam) == (1, 1, 1))
    assert ineq.row == (2, 2, 2, -6, -3, -2)


def count_solves(monkeypatch) -> list:
    calls = []

    def counting(lp):
        calls.append(lp)
        return solve(lp)

    monkeypatch.setattr(fm, "solve", counting)
    return calls


def test_orbit_minimization_matches_greedy_oracle():
    for L in range(1, 5):
        rows = fm._project_allocation_system(L)
        assert fm._minimize_system(rows) == greedy_minimize_system(rows), L


def test_projection_closed_under_rate_permutations():
    for L in range(1, 5):
        rows = {i.row for i in fourier_motzkin_region(L)}
        for row in rows:
            for perm in itertools.permutations(row[:L]):
                assert perm + row[L:] in rows, (L, row)


def test_fm_compare_level4_solve_budget(monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    assert cli.main(["fm-compare", "--levels", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["polyhedra_equivalent"]
    assert 0 < len(calls) <= 30


def test_equal_sets_need_no_lp(monkeypatch):
    fm4 = fourier_motzkin_region(4)
    calls = count_solves(monkeypatch)
    assert systems_equivalent(fm4, list_inequalities(4, ordered_only=False))
    assert calls == []


def test_equivalence_lp_path(monkeypatch):
    gen = list_inequalities(3, ordered_only=False)
    # the sum of two rows is implied but is not itself a row
    a, b = gen[0], gen[-1]
    total = Inequality(LambdaVector(tuple(x + y for x, y in zip(a.lam, b.lam))),
                       tuple(x + y for x, y in zip(a.f_values, b.f_values)))
    assert total.row not in {i.row for i in gen}
    calls = count_solves(monkeypatch)
    assert systems_equivalent(gen + [total], gen)
    assert systems_equivalent(gen, gen + [total])
    assert len(calls) == 2
    # raising one row's f makes it stronger than the region
    raised = list(gen)
    raised[4] = Inequality(gen[4].lam, (gen[4].f_values[0] + 1,) + gen[4].f_values[1:])
    assert not systems_equivalent(raised, gen)
    assert not systems_equivalent(gen, raised)
