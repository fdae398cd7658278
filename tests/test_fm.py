from fractions import Fraction as F

import pytest

from smdc.errors import ResourceLimitError
from smdc.fm import (fourier_motzkin_region, inequality_to_row,
                     systems_equivalent)
from smdc.region import Inequality, list_inequalities


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
    assert inequality_to_row(ineq) == (2, 2, 2, -6, -3, -2)
