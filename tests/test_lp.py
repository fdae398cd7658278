import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import oracles
from oracles import assert_feasible_point, dense_solve
from smdc import lp as lp_module
from smdc.lp import LinearProgram, Relation, Sense, Status, solve


def test_simple_max():
    lp = LinearProgram(1)
    lp.add([1], Relation.LE, 5)
    lp.set_objective([1], Sense.MAX)
    result = solve(lp)
    assert result.status is Status.OPTIMAL
    assert result.point == (F(5),)
    assert result.objective_value == 5


def test_infeasible_equality_system():
    lp = LinearProgram(2)
    lp.add([1, 1], Relation.EQ, 3)
    lp.add([1, 0], Relation.GE, 2)
    lp.add([0, 1], Relation.GE, 2)
    assert solve(lp).status is Status.INFEASIBLE


def test_resolution_instance_table_value():
    # the defining LP for the all-ones coefficient vector at level 2
    lp = LinearProgram(3)
    lp.add([1, 1, 0], Relation.LE, 1)
    lp.add([1, 0, 1], Relation.LE, 1)
    lp.add([0, 1, 1], Relation.LE, 1)
    lp.set_objective([1, 1, 1], Sense.MAX)
    result = solve(lp)
    assert result.status is Status.OPTIMAL
    assert result.objective_value == F(3, 2)
    assert assert_feasible_point(lp, result.point)


def test_unbounded():
    lp = LinearProgram(2)
    lp.add([1, -1], Relation.GE, 0)
    lp.set_objective([-1, 0], Sense.MIN)
    assert solve(lp).status is Status.UNBOUNDED


def test_feasibility_only_status():
    lp = LinearProgram(2)
    lp.add([1, 1], Relation.GE, 3)
    result = solve(lp)
    assert result.status is Status.FEASIBLE
    assert assert_feasible_point(lp, result.point)
    assert result.objective_value is None


def test_empty_program_rejected():
    with pytest.raises(ValueError):
        solve(LinearProgram(0))


def test_zero_rows_dropped_or_reject():
    lp = LinearProgram(1)
    lp.add([0], Relation.GE, 1)  # 0 >= 1
    assert solve(lp).status is Status.INFEASIBLE
    lp = LinearProgram(1)
    lp.add([0], Relation.LE, 1)  # 0 <= 1, vacuous
    lp.set_objective([1], Sense.MIN)
    assert solve(lp).objective_value == 0


def _beale_lp():
    lp = LinearProgram(4)
    lp.add([F(1, 4), -60, F(-1, 25), 9], Relation.LE, 0)
    lp.add([F(1, 2), -90, F(-1, 50), 3], Relation.LE, 0)
    lp.add([0, 0, 1, 0], Relation.LE, 1)
    lp.set_objective([F(-3, 4), 150, F(-1, 50), 6], Sense.MIN)
    return lp


def test_degenerate_cycling_regression():
    # Beale's classic cycling instance; Bland's rule must terminate at -1/20.
    lp = _beale_lp()
    result = solve(lp)
    assert result.status is Status.OPTIMAL
    assert result.objective_value == F(-1, 20)
    assert assert_feasible_point(lp, result.point)


def test_determinism():
    lp = LinearProgram(3)
    lp.add([1, 2, 3], Relation.LE, 10)
    lp.add([3, 1, 1], Relation.GE, 2)
    lp.add([1, 1, 1], Relation.EQ, 4)
    lp.set_objective([1, -1, 2], Sense.MIN)
    first = solve(lp)
    second = solve(lp)
    assert first == second == solve(lp)


def _dual_of_min_ge(c, rows, rhs):
    """Dual of min c.x s.t. rows.x >= rhs, x >= 0: max rhs.y, rows^T y <= c."""
    dual = LinearProgram(len(rows))
    for k in range(len(c)):
        dual.add([row[k] for row in rows], Relation.LE, c[k])
    dual.set_objective(rhs, Sense.MAX)
    return dual


def test_strong_duality_on_redundancy_instances():
    from smdc.region import list_inequalities

    for L, index in ((2, 2), (3, 5), (3, 9)):
        ineqs = list_inequalities(L, ordered_only=False)
        target = ineqs[index]
        ones = (F(1),) * L
        rows = [tuple(i.lam) for k, i in enumerate(ineqs) if k != index]
        rhs = [i.rhs(ones) for k, i in enumerate(ineqs) if k != index]
        primal = LinearProgram(L)
        for row, b in zip(rows, rhs):
            primal.add(row, Relation.GE, b)
        primal.set_objective(tuple(target.lam), Sense.MIN)
        p = solve(primal)
        d = solve(_dual_of_min_ge(tuple(target.lam), rows, rhs))
        assert p.status is Status.OPTIMAL and d.status is Status.OPTIMAL
        assert p.objective_value == d.objective_value


def test_assert_feasible_point_checks():
    lp = LinearProgram(1)
    lp.add([1], Relation.GE, 1)
    assert assert_feasible_point(lp, [1])
    assert not assert_feasible_point(lp, [F(1, 2)])
    with pytest.raises(ValueError):
        assert_feasible_point(lp, [1, 2])


def test_certificate_soundness_random():
    from smdc.rng import SplitMix64, random_fraction

    rng = SplitMix64(2024)
    for _ in range(60):
        n = 2 + rng.randrange(3)
        m = 1 + rng.randrange(4)
        lp = LinearProgram(n)
        for _ in range(m):
            coeffs = [random_fraction(rng) - random_fraction(rng) for _ in range(n)]
            rel = (Relation.LE, Relation.GE, Relation.EQ)[rng.randrange(3)]
            lp.add(coeffs, rel, random_fraction(rng))
        if rng.randrange(2):
            lp.set_objective([random_fraction(rng) - random_fraction(rng)
                              for _ in range(n)], Sense.MIN)
        result = solve(lp)
        if result.status in (Status.FEASIBLE, Status.OPTIMAL):
            assert assert_feasible_point(lp, result.point)


def test_pivot_sequences_unchanged(monkeypatch):
    """(entering column, leaving row) of every pivot, against sequences kept
    in pivot_sequences.json from the Fraction reduced-cost simplex."""
    from oracles import chain_feasibility_lp, closure_redundancy_lp, resolution_lp
    from smdc.entropy import entropy_vector, random_joint_distribution
    from smdc.region import RateQuery, compact_allocation_lp
    from smdc.resolution import LambdaVector, beta_star
    from smdc.rng import SplitMix64, random_boundary_query

    pivots = []
    original = lp_module._Tableau.pivot

    def recording(self, j, r, obj):
        pivots.append([j, r])
        return original(self, j, r, obj)

    monkeypatch.setattr(lp_module._Tableau, "pivot", recording)
    recorded = {}

    def record(name, call):
        pivots.clear()
        result = call()
        recorded[name] = list(pivots)
        return result

    for L in (6, 7):
        rng = SplitMix64(L)
        statuses = set()
        for draw in range(3):
            lp = compact_allocation_lp(RateQuery(*random_boundary_query(rng, L)))
            statuses.add(record(f"allocation L={L} draw {draw}", lambda: solve(lp)).status)
        assert statuses == {Status.FEASIBLE, Status.INFEASIBLE}
    record("redundancy L=4 index 20", lambda: solve(closure_redundancy_lp(4, 20, (1,) * 4)))
    # The defining resolution LP on the tail after the beta* scan
    lam = LambdaVector([F(x) for x in ("3", "2", "3/2", "1", "1/2")] * 2 + [F(3), F(2)])
    beta = beta_star(lam, 4)
    tail_lp, _ = resolution_lp(lam.sorted_desc[beta:], 4 - beta)
    record("resolution L=12 alpha 4", lambda: solve(tail_lp))
    record("beale", lambda: solve(_beale_lp()))
    # A chain LP: 2^-40 entropy rationals against 0/1 resolution weights
    ev = entropy_vector(random_joint_distribution(SplitMix64(4), (2,) * 4))
    holds, _ = record("chain_feasibility L=4 (1,1,1,1)",
                      lambda: chain_feasibility_lp((1, 1, 1, 1), ev))
    assert holds
    record("fm L=4 first implication", lambda: solve(_first_fm_lp(monkeypatch)))
    expected = json.loads((Path(__file__).parent / "pivot_sequences.json").read_text())
    assert recorded == expected


class _Captured(Exception):
    pass


def _first_fm_lp(monkeypatch):
    """The first _implied_homogeneous LP that fourier_motzkin_region(4) solves."""
    from smdc import fm

    def capture(lp):
        raise _Captured(lp)

    with monkeypatch.context() as patch:
        patch.setattr(fm, "solve", capture)
        with pytest.raises(_Captured) as caught:
            fm.fourier_motzkin_region(4)
    return caught.value.args[0]


def _random_lp(rng):
    """Small LPs over every relation, with negative and zero right sides, dense
    or about 90% zero rows, and with or without an objective.  A third of them
    end in equalities that combine and repeat earlier rows, which can leave
    zero-valued artificials to drive out."""
    from smdc.rng import random_fraction

    n = 1 + rng.randrange(7)
    zero_odds = (0, 2, 9)[rng.randrange(3)]  # a coefficient is 0 with odds k : 1

    def coefficient():
        if rng.randrange(zero_odds + 1):
            return 0
        c = random_fraction(rng, allow_zero=False)
        return -c if rng.randrange(3) == 0 else c

    def coefficients():
        row = [coefficient() for _ in range(n)]
        while not any(row):
            row = [coefficient() for _ in range(n)]
        return row

    def right_side():
        k = rng.randrange(4)
        return 0 if k == 0 else -random_fraction(rng) if k == 1 else random_fraction(rng)

    lp = LinearProgram(n)
    for _ in range(1 + rng.randrange(6)):
        rel = (Relation.LE, Relation.LE, Relation.GE, Relation.GE, Relation.EQ)[rng.randrange(5)]
        lp.add(coefficients(), rel, right_side())
    if rng.randrange(3) == 0:
        first, second = lp.rows[rng.randrange(len(lp.rows))], lp.rows[rng.randrange(len(lp.rows))]
        lp.add([a + 2 * b for a, b in zip(first.coeffs, second.coeffs)], Relation.EQ,
               first.rhs + 2 * second.rhs)
        lp.add(first.coeffs, Relation.EQ, first.rhs)
    if rng.randrange(3):
        lp.set_objective(coefficients(),
                         (Sense.MIN, Sense.MAX)[rng.randrange(2)])
    return lp


def test_solve_matches_dense_oracle(monkeypatch):
    """Same pivots, status and point as the full-width simplex on random LPs."""
    from smdc.rng import SplitMix64

    pivots = {"solve": [], "dense_solve": []}
    negative_pivots = []

    def recorder(cls, key):
        original = cls.pivot

        def recording(self, j, r, obj):
            pivots[key].append((j, r))
            assert len(pivots[key]) < 1000, f"{key} does not terminate"
            if key == "solve" and self.rows[r][j] < 0:
                negative_pivots.append(r)
            return original(self, j, r, obj)
        monkeypatch.setattr(cls, "pivot", recording)

    recorder(lp_module._Tableau, "solve")
    recorder(oracles._DenseTableau, "dense_solve")
    rng = SplitMix64(1968)
    statuses = set()
    for draw in [_beale_lp()] + [_random_lp(rng) for _ in range(300)]:
        for side in pivots.values():
            side.clear()
        got, want = solve(draw), dense_solve(draw)
        assert (got.status, got.point, got.objective_value) == \
            (want.status, want.point, want.objective_value)
        assert pivots["solve"] == pivots["dense_solve"]
        statuses.add(got.status)
    assert statuses == set(Status)
    assert negative_pivots
