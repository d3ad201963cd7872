"""The dual-form pre-nucleolus solver against the primal tall-LP oracle
``prenucleolus_tall`` in ``helpers``.

The pre-nucleolus is unique, so the two must agree exactly.  Cases are
seeded general games, strictly convex games and games with small integer
worths (many excess ties), plus hypothesis games.  Every LP the solver
builds is recorded: at most n - 1 per call, each in equality form with
non-negative variables and at most n rows.
"""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tusolve import TuGame, kohlberg_criterion, prenucleolus

from helpers import prenucleolus_tall, random_convex_game, random_game

# ``tusolve.prenucleolus`` is the function; the module lives in sys.modules.
PRENUCLEOLUS_MODULE = importlib.import_module("tusolve.prenucleolus")


def tied_game(n, rng):
    """Integer worths in [-2, 2] and v(N) in [1, 4]: many equal excesses."""
    values = [Fraction(rng.randint(-2, 2)) for _ in range((1 << n) - 2)]
    return TuGame(n, tuple(values) + (Fraction(rng.randint(1, 4)),))


GENERATORS = {"general": random_game, "convex": random_convex_game, "tied": tied_game}


@pytest.fixture
def level_lps(monkeypatch):
    """Record every program the solver hands to ``solve_lp``."""
    real = PRENUCLEOLUS_MODULE.solve_lp
    programs = []

    def recorded(program):
        programs.append(program)
        return real(program)

    monkeypatch.setattr(PRENUCLEOLUS_MODULE, "solve_lp", recorded)
    return programs


def solve_and_check_lps(v, programs):
    programs.clear()
    x = prenucleolus(v)
    assert len(programs) <= v.n - 1
    for program in programs:
        assert program.ub_matrix == ()
        assert all(b == 0 for b in program.lower_bounds)
        assert 1 <= len(program.eq_matrix) <= v.n
    return x


# (n, games per kind): 3 * (20 + 20 + 8 + 1) = 147 games.
SEEDED = [(2, 20), (3, 20), (4, 8), (5, 1)]


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("n,games", SEEDED)
def test_matches_tall_oracle(n, games, kind, level_lps):
    rng = random.Random(f"prenucleolus-differential:{kind}:{n}")
    for _ in range(games):
        v = GENERATORS[kind](n, rng)
        assert solve_and_check_lps(v, level_lps) == prenucleolus_tall(v)
        assert level_lps


@st.composite
def games(draw):
    n = draw(st.integers(2, 4))
    worth = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    values = draw(st.lists(worth, min_size=(1 << n) - 2, max_size=(1 << n) - 2))
    values.append(draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 2))))
    return TuGame(n, tuple(values))


@settings(max_examples=60, deadline=None)
@given(games())
def test_matches_tall_oracle_on_generated_games(v):
    assert prenucleolus(v) == prenucleolus_tall(v)


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_six_players_pass_kohlberg(kind, level_lps):
    rng = random.Random(f"prenucleolus-six:{kind}")
    for _ in range(2):
        v = GENERATORS[kind](6, rng)
        assert kohlberg_criterion(v, solve_and_check_lps(v, level_lps))


def test_six_players_match_tall_oracle(level_lps):
    v = random_convex_game(6, random.Random("prenucleolus-six-tall"))
    assert solve_and_check_lps(v, level_lps) == prenucleolus_tall(v)


def test_one_player_needs_no_lp(level_lps):
    v = TuGame(1, (Fraction(7, 3),))
    assert solve_and_check_lps(v, level_lps) == (Fraction(7, 3),)
    assert level_lps == []


def test_all_proper_coalitions_tied(level_lps):
    # At the equal split every proper coalition has excess -1, so the first
    # optimum may weight any balanced subcollection of them.
    v = TuGame(3, (0, 0, 1, 0, 1, 1, 3))
    assert solve_and_check_lps(v, level_lps) == (1, 1, 1)
