import random
from fractions import Fraction

import pytest

from tusolve import LinearProgram, solve_lp
from tusolve.coalitions import all_coalitions, contains

from helpers import brute_force_lp


def box_lp(c, maximize, a_rows, b, box):
    n = len(c)
    ub_rows = [tuple(r) for r in a_rows]
    ub_rows += [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    ub_rhs = list(b) + [Fraction(box)] * n
    return LinearProgram(
        objective=tuple(c), maximize=maximize, ub_matrix=tuple(ub_rows), ub_rhs=tuple(ub_rhs)
    )


class TestBasics:
    def test_simple_max(self):
        out = solve_lp(
            LinearProgram(objective=(1,), maximize=True, ub_matrix=((1,),), ub_rhs=(3,))
        )
        assert out.status == "optimal" and out.value == 3 and out.point == (3,)

    def test_infeasible(self):
        out = solve_lp(
            LinearProgram(
                objective=(0,),
                ub_matrix=((1,), (-1,)),
                ub_rhs=(0, -1),  # x <= 0 and x >= 1
            )
        )
        assert out.status == "infeasible"

    def test_unbounded(self):
        out = solve_lp(LinearProgram(objective=(1,), maximize=True))
        assert out.status == "unbounded"

    def test_free_variables_and_equalities(self):
        # min x + y s.t. x + y = 2, x - y = 4, both free
        out = solve_lp(
            LinearProgram(
                objective=(1, 1),
                eq_matrix=((1, 1), (1, -1)),
                eq_rhs=(2, 4),
                lower_bounds=(None, None),
            )
        )
        assert out.status == "optimal"
        assert out.point == (3, -1)

    def test_redundant_equality_row(self):
        # x + y = 2 and 2x + 2y = 4: phase 1 drops a row before phase 2 pivots
        out = solve_lp(
            LinearProgram(objective=(1, 2), eq_matrix=((1, 1), (2, 2)), eq_rhs=(2, 4))
        )
        assert out.status == "optimal" and out.point == (2, 0) and out.value == 2

    def test_unbounded_after_feasible_phase_one(self):
        # max x subject to x - y = 0, x, y >= 0
        out = solve_lp(
            LinearProgram(objective=(1, 0), maximize=True, eq_matrix=((1, -1),), eq_rhs=(0,))
        )
        assert out.status == "unbounded"

    def test_shifted_lower_bound(self):
        out = solve_lp(
            LinearProgram(objective=(1,), lower_bounds=(Fraction(-5),))
        )
        assert out.status == "optimal" and out.point == (-5,)

    def test_degenerate_does_not_cycle(self):
        # highly degenerate: many redundant rows through the optimum
        out = solve_lp(
            LinearProgram(
                objective=(-1, -1),
                ub_matrix=((1, 1), (1, 1), (2, 2), (1, 0), (0, 1)),
                ub_rhs=(1, 1, 2, 1, 1),
            )
        )
        assert out.status == "optimal" and out.value == -1

    def test_core_feasibility_base_game(self, base_game):
        v = base_game
        rows, rhs = [], []
        for mask in all_coalitions(v.n):
            if mask == v.grand:
                continue
            rows.append(tuple(-Fraction(int(contains(mask, p))) for p in range(1, v.n + 1)))
            rhs.append(-v.value(mask))
        out = solve_lp(
            LinearProgram(
                objective=tuple([0] * v.n),
                eq_matrix=(tuple([1] * v.n),),
                eq_rhs=(v.value(v.grand),),
                ub_matrix=tuple(rows),
                ub_rhs=tuple(rhs),
                lower_bounds=tuple([None] * v.n),
            )
        )
        assert out.status == "optimal"


class TestAgainstVertexEnumeration:
    def test_random_box_lps(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(2, 4)
            m = rng.randint(1, 6)
            a_rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(m)]
            b = [Fraction(rng.randint(-4, 8)) for _ in range(m)]
            c = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            maximize = rng.random() < 0.5
            out = solve_lp(box_lp(c, maximize, a_rows, b, 10))
            expected = brute_force_lp(c, maximize, a_rows, b, 10)
            if expected is None:
                assert out.status == "infeasible"
            else:
                assert out.status == "optimal"
                assert out.value == expected
                # the returned point must satisfy every constraint exactly
                for row, bb in zip(a_rows, b):
                    assert sum(r * x for r, x in zip(row, out.point)) <= bb
                assert all(0 <= x <= 10 for x in out.point)


class TestValidation:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=(1, 2), ub_matrix=((1,),), ub_rhs=(1,))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=(1,), lower_bounds=(None, None))
