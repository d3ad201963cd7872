"""The seeded game generators in ``helpers``."""

import random
from fractions import Fraction

import pytest

from tusolve import game_from_unanimity, game_properties, unanimity_coords

from helpers import random_convex_game


def drawn_dividends(n, rng):
    """The dividends ``random_convex_game`` draws, before any shift."""
    coords = []
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        low, high = (-60, 60) if k == 1 else (1, 90) if k == 2 else (0, 70)
        coords.append(Fraction(rng.randint(low, high), rng.randint(7, 17)))
    return coords


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_convex_game_never_raises(n):
    rng = random.Random(0)
    replay = random.Random(0)
    shifted = 0
    for _ in range(1000):
        v = random_convex_game(n, rng)
        drawn = drawn_dividends(n, replay)
        assert rng.getstate() == replay.getstate()
        assert v.value(v.grand) > 0
        if sum(drawn) > 0:
            assert v == game_from_unanimity(drawn)
            continue
        shifted += 1
        assert v.value(v.grand) == 1
        coords = unanimity_coords(v)
        shift = {c - d for m, (c, d) in enumerate(zip(coords, drawn), 1) if m.bit_count() == 1}
        assert len(shift) == 1 and shift.pop() > 0
        assert all(c == d for m, (c, d) in enumerate(zip(coords, drawn), 1) if m.bit_count() > 1)
        if n > 1:
            assert game_properties(v).convex
    assert shifted > 0
