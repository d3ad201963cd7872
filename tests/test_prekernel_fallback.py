"""The sequential-LP fallback of ``prekernel_point``.

With ``max_rounds=0`` the quadratic iteration runs no round and the point
comes from ``prenucleolus``; it must be a pre-kernel point and equal the
pre-nucleolus of the tall-LP oracle (at n = 6, where that oracle takes
seconds a game, Kohlberg's criterion stands in for it).  One general n = 6
game makes the iteration cycle, so it reaches the fallback on its own.
"""

import importlib
import random
from fractions import Fraction

import pytest

from tusolve import TuGame, is_prekernel, kohlberg_criterion, prekernel_point

from helpers import core_nonempty_tall, prenucleolus_tall, random_convex_game, random_game

PRENUCLEOLUS_MODULE = importlib.import_module("tusolve.prenucleolus")


@pytest.fixture
def fallback_calls(monkeypatch):
    real = PRENUCLEOLUS_MODULE.prenucleolus
    calls = []

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(PRENUCLEOLUS_MODULE, "prenucleolus", counted)
    return calls


@pytest.mark.parametrize("n,games", [(2, 12), (3, 12), (4, 8), (5, 3)])
def test_fallback_is_the_prenucleolus(n, games, fallback_calls):
    rng = random.Random(f"prekernel-fallback:{n}")
    cases = [random_game(n, rng) if g % 3 else random_convex_game(n, rng) for g in range(games)]
    # every coalition worth 1: x_i >= 1 for all i and x(N) = 1 leave the core empty
    cases.append(TuGame(n, tuple([Fraction(1)] * ((1 << n) - 1))))
    cores = set()
    for v in cases:
        x = prekernel_point(v, max_rounds=0)
        assert is_prekernel(v, x)
        assert x == prenucleolus_tall(v)
        cores.add(core_nonempty_tall(v))
    assert x == (Fraction(1, n),) * n
    assert len(fallback_calls) == len(cases)
    assert cores == {True, False}


def test_fallback_at_six_players(fallback_calls):
    rng = random.Random("prekernel-fallback:6")
    cores = set()
    for g in range(3):
        v = random_game(6, rng) if g % 3 else random_convex_game(6, rng)
        x = prekernel_point(v, max_rounds=0)
        assert is_prekernel(v, x)
        assert kohlberg_criterion(v, x)
        cores.add(core_nonempty_tall(v))
    assert len(fallback_calls) == 3
    assert False in cores


def cycling_game():
    """A general n = 6 game whose quadratic iteration cycles: worths a/b
    with a in [0, 60|S|], b in [1, 6], and v(N) in [60n, 90n]/[1, 3].
    Seed 289 is the slowest, for the tall-LP solver, of the four seeds
    below 400 whose iteration cycles."""
    rng = random.Random(289)
    n = 6
    values = [
        Fraction(rng.randint(0, 60 * m.bit_count()), rng.randint(1, 6)) for m in range(1, (1 << n) - 1)
    ]
    values.append(Fraction(rng.randint(60 * n, 90 * n), rng.randint(1, 3)))
    return TuGame(n, tuple(values))


def test_cycling_game_reaches_the_fallback(fallback_calls):
    v = cycling_game()
    x = prekernel_point(v)
    assert len(fallback_calls) == 1
    assert is_prekernel(v, x)
    assert kohlberg_criterion(v, x)
