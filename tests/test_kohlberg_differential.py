"""The support-growth balancedness test and the early-stopping Kohlberg check
against the per-member and all-levels oracles in ``helpers``.

Cases mix pre-nucleolus points (verdict True), those points moved by a small
transfer between two players, and random efficient payoffs.  Every
certificate ``is_balanced`` hands out on the way is checked with plain
arithmetic: it recombines to 1_N exactly and all its weights are positive.
"""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tusolve import (
    TuGame,
    coalition_of,
    excess,
    is_balanced,
    kohlberg_criterion,
    prenucleolus,
)
from tusolve.coalitions import all_coalitions, contains, lex_key

import helpers
from helpers import (
    BASE_POINT,
    is_balanced_per_member,
    kohlberg_all_levels,
    random_convex_game,
    random_efficient_payoff,
    random_game,
)

# ``tusolve.prenucleolus`` is the function; the module lives in sys.modules.
PRENUCLEOLUS_MODULE = importlib.import_module("tusolve.prenucleolus")


def assert_certificate(cert, collection, n):
    assert cert.collection == tuple(sorted(set(collection), key=lex_key))
    assert all(w > 0 for w in cert.weights)
    for p in range(1, n + 1):
        assert sum(w for w, m in zip(cert.weights, cert.collection) if contains(m, p)) == 1


@pytest.fixture
def balanced_calls(monkeypatch):
    """Route ``kohlberg_criterion``'s balancedness tests through a checker;
    the list collects (collection, certificate or None) per call."""
    real = PRENUCLEOLUS_MODULE.is_balanced
    calls = []

    def checked(collection, n):
        cert = real(collection, n)
        if cert is not None:
            assert_certificate(cert, collection, n)
        calls.append((tuple(collection), cert))
        return cert

    monkeypatch.setattr(PRENUCLEOLUS_MODULE, "is_balanced", checked)
    return calls


def transferred(x, i, j, eps):
    y = list(x)
    y[i] += eps
    y[j] -= eps
    return tuple(y)


def payoff_cases(v, rng, randoms):
    """The pre-nucleolus (verdict True), every pair transfer away from it
    (False: the pre-nucleolus is unique) and random efficient payoffs."""
    x = prenucleolus(v)
    cases = [(x, True)]
    for i in range(v.n):
        for j in range(v.n):
            if i != j:
                eps = Fraction(1, rng.choice((7, 97, 1000)))
                cases.append((transferred(x, i, j, eps), False))
    cases += [(random_efficient_payoff(v, rng), None) for _ in range(randoms)]
    return cases


# (n, games, random payoffs per game): 440 + 204 + 75 = 719 cases.
SEEDED = [(3, 40, 4), (4, 12, 4), (5, 3, 4)]


@pytest.mark.parametrize("n,games,randoms", SEEDED)
def test_kohlberg_matches_all_levels_oracle(n, games, randoms, balanced_calls):
    rng = random.Random(f"kohlberg-differential:{n}")
    count = 0
    for g in range(games):
        v = random_game(n, rng) if g % 2 == 0 else random_convex_game(n, rng)
        for x, expected in payoff_cases(v, rng, randoms):
            got = kohlberg_criterion(v, x)
            assert got == kohlberg_all_levels(v, x)
            if expected is not None:
                assert got is expected
            count += 1
    assert count == games * (1 + n * (n - 1) + randoms)
    assert any(cert is not None for _, cert in balanced_calls)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_is_balanced_matches_per_member_oracle(n):
    rng = random.Random(f"balanced-differential:{n}")
    coalitions = list(all_coalitions(n))
    balanced = 0
    for _ in range(100):
        masks = rng.sample(coalitions, rng.randint(1, min(len(coalitions), 2 * n + 2)))
        cert = is_balanced(masks, n)
        assert (cert is not None) == (is_balanced_per_member(masks, n) is not None)
        if cert is not None:
            assert_certificate(cert, masks, n)
            balanced += 1
    assert balanced > 0


@st.composite
def game_and_payoff(draw):
    n = draw(st.integers(3, 4))
    worth = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))
    values = draw(st.lists(worth, min_size=(1 << n) - 2, max_size=(1 << n) - 2))
    values.append(draw(st.builds(Fraction, st.integers(1, 24), st.integers(1, 2))))
    v = TuGame(n, tuple(values))
    kind = draw(st.sampled_from(["prenucleolus", "transfer", "random"]))
    if kind == "random":
        head = draw(st.lists(worth, min_size=n - 1, max_size=n - 1))
        return v, tuple(head) + (v.value(v.grand) - sum(head),), kind
    x = prenucleolus(v)
    if kind == "transfer":
        i, j = draw(st.permutations(range(n)))[:2]
        eps = draw(st.builds(Fraction, st.integers(1, 3), st.integers(5, 1000)))
        x = transferred(x, i, j, eps)
    return v, x, kind


@settings(max_examples=60, deadline=None)
@given(game_and_payoff())
def test_kohlberg_matches_oracle_on_generated_games(case):
    v, x, kind = case
    got = kohlberg_criterion(v, x)
    assert got == kohlberg_all_levels(v, x)
    if kind != "random":
        assert got is (kind == "prenucleolus")


class TestEarlyStop:
    def test_base_point_stops_at_the_first_level_of_rank_n(
        self, base_game, balanced_calls, monkeypatch
    ):
        levels = {excess(base_game, m, BASE_POINT) for m in all_coalitions(4)}
        assert kohlberg_criterion(base_game, BASE_POINT)
        assert 0 < len(balanced_calls) < len(levels)
        # Excess 0 holds N alone (skipped); -32/9 adds {1,2},{3},{4} (rank 3);
        # -4 adds {2},{1,3,4} (rank 4), and the check stops there.
        assert [len(c) for c, _ in balanced_calls] == [4, 6]
        oracle_calls = []

        def counted(collection, n):
            oracle_calls.append(collection)
            return is_balanced_per_member(collection, n)

        monkeypatch.setattr(helpers, "is_balanced_per_member", counted)
        assert kohlberg_all_levels(base_game, BASE_POINT)
        assert len(oracle_calls) == len(levels) - 2  # all but N alone and the full collection

    def test_balanced_top_of_rank_two_does_not_stop(self, balanced_calls):
        # At x = (1, 1, 1, 1) the excess of S is v(S) - |S|: {1,2} and {3,4}
        # at 10, {1} at 5, N at 0 and every other coalition at -10.
        pairs = (coalition_of([1, 2]), coalition_of([3, 4]))
        target = {m: Fraction(-10) for m in all_coalitions(4)}
        target.update({pairs[0]: 10, pairs[1]: 10, coalition_of([1]): 5, 15: 0})
        v = TuGame(4, tuple(target[m] + m.bit_count() for m in range(1, 16)))
        x = (Fraction(1),) * 4
        top = is_balanced(list(pairs), 4)
        assert top is not None and top.weights == (1, 1)
        assert is_balanced([*pairs, coalition_of([1])], 4) is None
        assert kohlberg_criterion(v, x) is False
        assert [(set(c), cert is not None) for c, cert in balanced_calls] == [
            (set(pairs), True),
            ({*pairs, coalition_of([1])}, False),
        ]
        assert kohlberg_all_levels(v, x) is False
