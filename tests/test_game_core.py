import random
from fractions import Fraction

import pytest
import tusolve.game
from hypothesis import given, settings
from hypothesis import strategies as st

from tusolve import (
    TuGame,
    coalition_of,
    excess,
    game_from_unanimity,
    game_properties,
    is_prekernel,
    max_excess,
    max_marginal_gap,
    max_surplus,
    payoff_total,
    prekernel_residual,
    transfer,
    unanimity_coords,
)
from tusolve.coalitions import all_coalitions, unordered_pairs
from tusolve.game import unanimity_values

from helpers import (
    TWO_PLAYER,
    BASE_POINT,
    brute_force_convex,
    core_nonempty_tall,
    random_efficient_payoff,
    random_game,
)


class TestExcess:
    def test_pair_12(self, base_game):
        assert excess(base_game, coalition_of([1, 2]), BASE_POINT) == Fraction(16, 3) - Fraction(80, 9)
        assert excess(base_game, coalition_of([1, 2]), BASE_POINT) == Fraction(-32, 9)

    def test_grand_coalition_zero_for_efficient(self, base_game):
        rng = random.Random(1)
        for _ in range(10):
            x = random_efficient_payoff(base_game, rng)
            assert excess(base_game, base_game.grand, x) == 0

    def test_singleton(self, base_game):
        assert excess(base_game, coalition_of([2]), BASE_POINT) == -4

    def test_empty_coalition(self, base_game):
        assert excess(base_game, 0, BASE_POINT) == 0


class TestMaxSurplus:
    def test_base_game_argmax(self, base_game):
        val, arg = max_surplus(base_game, 1, 2, BASE_POINT)
        assert val == -4 and arg == [coalition_of([1, 3, 4])]
        val, arg = max_surplus(base_game, 2, 1, BASE_POINT)
        assert val == -4 and arg == [coalition_of([2])]

    def test_two_player(self):
        val, arg = max_surplus(TWO_PLAYER, 1, 2, (Fraction(1), Fraction(1)))
        assert val == -1 and arg == [coalition_of([1])]

    def test_equal_players_rejected(self, base_game):
        with pytest.raises(ValueError):
            max_surplus(base_game, 2, 2, BASE_POINT)

    def test_matches_direct_enumeration(self, base_game):
        # independent recomputation over the 4 coalitions containing 1 not 2
        candidates = [[1], [1, 3], [1, 4], [1, 3, 4]]
        excesses = {
            tuple(c): base_game.value(coalition_of(c)) - sum(BASE_POINT[p - 1] for p in c)
            for c in candidates
        }
        best = max(excesses.values())
        val, arg = max_surplus(base_game, 1, 2, BASE_POINT)
        assert val == best
        assert set(arg) == {coalition_of(c) for c, e in excesses.items() if e == best}


class TestMaxExcess:
    def test_zero_vector(self, base_game):
        assert max_excess(base_game, (0, 0, 0, 0)) == 16

    def test_at_prekernel_point(self, base_game):
        assert max_excess(base_game, BASE_POINT) == 0

    def test_huge_payoff_clamps_at_zero(self, base_game):
        assert max_excess(base_game, (1000, 1000, 1000, 1000)) == 0


class TestMaxMarginalGap:
    def test_base_game(self, base_game):
        # brute-force oracle over all (player, coalition-without-player) pairs
        best = Fraction(0)
        for k in range(1, 5):
            bit = 1 << (k - 1)
            for mask in range(1 << 4):
                if mask & bit:
                    continue
                gap = abs(base_game.value(mask | bit) - base_game.value(mask) - BASE_POINT[k - 1])
                best = max(best, gap)
        assert best == Fraction(100, 9)
        assert max_marginal_gap(base_game, BASE_POINT) == Fraction(100, 9)

    def test_grand_only_game(self):
        v2 = TuGame(2, (0, 0, 2))
        assert max_marginal_gap(v2, (1, 1)) == 1
        v4 = TuGame(4, tuple([0] * 14 + [4]))
        assert max_marginal_gap(v4, (1, 1, 1, 1)) == 3

    def test_two_player(self):
        assert max_marginal_gap(TWO_PLAYER, (Fraction(1), Fraction(1))) == 1


class TestResidual:
    def test_zero_at_prekernel(self, base_game):
        assert prekernel_residual(base_game, BASE_POINT) == 0
        assert prekernel_residual(base_game, BASE_POINT, "indirect") == 0

    def test_two_player_unbalanced(self):
        assert prekernel_residual(TWO_PLAYER, (2, 0)) == 4

    def test_modes_agree_randomized(self, base_game):
        rng = random.Random(5)
        games = [base_game] + [random_game(n, rng) for n in (2, 3, 3, 4, 5)]
        for v in games:
            for _ in range(4):
                x = random_efficient_payoff(v, rng)
                assert prekernel_residual(v, x, "surplus") == prekernel_residual(v, x, "indirect")

    def test_transfer_difference_equals_surplus_difference(self):
        # the identity behind the indirect mode, for any delta above the gap
        rng = random.Random(6)
        for n in (3, 4, 5):
            v = random_game(n, rng)
            x = random_efficient_payoff(v, rng)
            delta = max_marginal_gap(v, x)
            for extra in (Fraction(0), Fraction(1), Fraction(7, 2)):
                d = delta + extra
                for i, j in unordered_pairs(n):
                    lhs = max_excess(v, transfer(x, i, j, d)) - max_excess(v, transfer(x, j, i, d))
                    sij, _ = max_surplus(v, i, j, x)
                    sji, _ = max_surplus(v, j, i, x)
                    assert lhs == sij - sji

    def test_bad_mode(self, base_game):
        with pytest.raises(ValueError):
            prekernel_residual(base_game, BASE_POINT, "fast")


class TestIsPrekernel:
    def test_base_game(self, base_game):
        assert is_prekernel(base_game, BASE_POINT)
        assert not is_prekernel(base_game, (4, 4, 4, 4))

    def test_two_player_symmetric(self):
        assert is_prekernel(TWO_PLAYER, (1, 1))

    def test_inefficient_rejected(self, base_game):
        assert not is_prekernel(base_game, (1, 1, 1, 1))

    def test_iff_zero_residual(self, base_game):
        rng = random.Random(7)
        pts = [BASE_POINT, (4, 4, 4, 4)] + [random_efficient_payoff(base_game, rng) for _ in range(10)]
        for x in pts:
            assert is_prekernel(base_game, x) == (prekernel_residual(base_game, x) == 0)


class TestUnanimity:
    def test_two_player_coords(self):
        v = TuGame(2, (1, 2, 4))
        assert unanimity_coords(v) == (1, 2, 1)

    def test_unanimity_game_is_basis_vector(self):
        n = 4
        t = coalition_of([2, 4])
        values = [Fraction(int(t & s == t)) for s in all_coalitions(n)]
        u_t = TuGame(n, tuple(values))
        coords = unanimity_coords(u_t)
        assert coords[t - 1] == 1
        assert all(c == 0 for k, c in enumerate(coords) if k != t - 1)

    def test_round_trip_base_game(self, base_game):
        assert game_from_unanimity(unanimity_coords(base_game)) == base_game

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.fractions(min_value=-9, max_value=9, max_denominator=7),
                    min_size=(1 << n) - 1,
                    max_size=(1 << n) - 1,
                ),
            )
        )
    )
    def test_round_trip_random(self, args):
        n, values = args
        values = list(values)
        values[-1] = abs(values[-1]) + 1
        v = TuGame(n, tuple(values))
        assert game_from_unanimity(unanimity_coords(v)) == v

    def test_coords_of_game_from_coords(self):
        rng = random.Random(31)
        for n in range(1, 7):
            for _ in range(5):
                coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range((1 << n) - 1)]
                # v(N) is the sum of all coordinates; lift it to 1 through u_N
                coords[-1] += 1 - sum(coords)
                assert unanimity_coords(game_from_unanimity(coords)) == tuple(coords)

    def test_values_accept_nonpositive_grand_entry(self):
        for coords in ((1, 1, -2), (1, 1, -3)):
            values = unanimity_values(coords)
            assert values == (1, 1, sum(coords))
            with pytest.raises(ValueError):
                game_from_unanimity(coords)


class TestGameProperties:
    def test_base_game(self, base_game):
        p = game_properties(base_game)
        assert not p.convex
        assert p.average_convex and p.zero_monotonic
        assert p.superadditive and p.semiconvex and p.core_nonempty

    def test_table_row_v2(self, rounded_family):
        p = game_properties(rounded_family["v2"])
        assert not p.average_convex and not p.zero_monotonic

    def test_table_row_v1(self, rounded_family):
        p = game_properties(rounded_family["v1"])
        assert p.zero_monotonic and p.superadditive

    def test_convex_implication_chain(self):
        from helpers import random_convex_game

        rng = random.Random(8)
        for _ in range(8):
            v = random_convex_game(4, rng)
            p = game_properties(v)
            assert p.convex and p.average_convex and p.superadditive

    def test_convex_matches_pairwise_definition(self):
        rng = random.Random(29)
        verdicts = {True: 0, False: 0}
        for n in range(1, 6):
            for _ in range(12):
                # non-negative dividends on |S| >= 2, with ties, make v convex
                coords = [
                    Fraction(rng.randint(1, 9)) if mask.bit_count() == 1
                    else Fraction(rng.choice([0, 0, rng.randint(1, 9)]), rng.randint(1, 3))
                    for mask in all_coalitions(n)
                ]
                convex = game_from_unanimity(coords)
                values = list(convex.values)
                k = rng.randrange(len(values))
                values[k] += Fraction(rng.choice([-1, 1]), rng.randint(2, 4))
                for v in (convex, TuGame(n, tuple(values)), random_game(n, rng)):
                    expected = brute_force_convex(v)
                    assert game_properties(v).convex == expected
                    verdicts[expected] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50

    def test_empty_core_detected(self):
        v = TuGame.from_coalition_values(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1, (1, 2, 3): 1})
        assert not game_properties(v).core_nonempty

    def test_core_matches_primal_feasibility(self, monkeypatch):
        """The Bondareva-Shapley LP against feasibility of x(N) = v(N),
        x(S) >= v(S).  Besides random games, ``tight`` games put many core
        constraints at equality at an integer payoff x (core non-empty, LP
        optimum exactly v(N)); ``crossed`` games then raise one of a tight
        complementary pair S, N minus S by 1/2, which empties the core."""
        real = tusolve.game.solve_lp
        programs = []

        def recorded(program):
            programs.append(program)
            return real(program)

        monkeypatch.setattr(tusolve.game, "solve_lp", recorded)
        rng = random.Random(37)
        verdicts = {True: 0, False: 0}
        for n in range(1, 6):
            full = (1 << n) - 1
            for g in range(45):
                kind = "random" if n == 1 else ("random", "tight", "crossed")[g % 3]
                if kind == "random":
                    v = random_game(n, rng)
                else:
                    x = [Fraction(rng.randint(-3, 6)) for _ in range(n)]
                    x[-1] = 10 - sum(x[:-1])
                    values = [payoff_total(x, m) - rng.choice([0, 0, 1, 2]) for m in range(1, full)]
                    if kind == "crossed":
                        s = rng.randrange(1, full)
                        values[s - 1] = payoff_total(x, s) + Fraction(1, 2)
                        values[full - s - 1] = payoff_total(x, full - s)
                    v = TuGame(n, tuple(values) + (Fraction(10),))
                programs.clear()
                got = game_properties(v).core_nonempty
                assert got == core_nonempty_tall(v)
                if kind != "random":
                    assert got is (kind == "tight")
                verdicts[got] += 1
                assert len(programs) == 1
                assert programs[0].ub_matrix == () and len(programs[0].eq_matrix) == n
                assert all(b == 0 for b in programs[0].lower_bounds)
        assert verdicts[True] > 50 and verdicts[False] > 50


class TestPayoffHelpers:
    def test_payoff_total(self):
        x = (Fraction(1), Fraction(2), Fraction(3))
        assert payoff_total(x, coalition_of([1, 3])) == 4
        assert payoff_total(x, 0) == 0

    def test_game_requires_positive_grand_value(self):
        with pytest.raises(ValueError):
            TuGame(2, (0, 0, 0))
