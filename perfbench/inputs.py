"""Seeded game generators for the benchmark workloads.

A game is a dict from player tuples (sorted, 1-based, as produced by
``itertools.combinations``) to exact ``Fraction`` worths, one entry per
non-empty coalition.  The benchmark converts these dicts into the program's
``TuGame`` values; the checks read the dicts directly.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

Game = dict  # tuple[int, ...] -> Fraction


def coalitions(n: int) -> list[tuple[int, ...]]:
    """Every non-empty coalition of players 1..n, smallest first."""
    return [s for k in range(1, n + 1) for s in combinations(range(1, n + 1), k)]


def bitmask_order(n: int) -> list[tuple[int, ...]]:
    """Coalitions in the order of the program's value vectors: position
    k holds the coalition whose bitmask is k + 1 (player p is bit p - 1)."""
    return [tuple(p for p in range(1, n + 1) if mask >> (p - 1) & 1) for mask in range(1, 1 << n)]


def read_game(path: Path) -> tuple[int, Game]:
    """A game file as written by ``tusolve`` (or by the benchmark): player
    count and worths, missing coalitions 0."""
    doc = json.loads(Path(path).read_text())
    n = doc["n"]
    game = {s: Fraction(0) for s in coalitions(n)}
    for key, text in doc["coalitions"].items():
        game[tuple(sorted(int(p) for p in key.split(",")))] = Fraction(text)
    return n, game


def general_game(rng: random.Random, n: int) -> Game:
    """Random rational worths with a non-empty core.

    v(S) <= 100|S| for every proper S and v(N) >= 100n, so the equal split
    lies in the core.  On games without that bound the pre-kernel iteration
    sometimes cycles and falls back to the sequential LP solver (see
    CHANGES.md); this workload is the one meant to bypass the LP layer.
    """
    game = {}
    for s in coalitions(n):
        game[s] = Fraction(rng.randint(0, 100 * len(s)), rng.randint(1, 6))
    game[tuple(range(1, n + 1))] = Fraction(100 * n + rng.randint(0, 30 * n))
    return game


def convex_game(rng: random.Random, n: int) -> Game:
    """Strictly convex game from non-negative Harsanyi dividends.

    Every pair dividend is positive, so v(S u T) + v(S n T) > v(S) + v(T)
    whenever neither of S, T contains the other.  Dividends are drawn from
    a wide range: with small integers, ties between coalitions put about 4 %
    of the pre-kernel points on a class boundary, where ``replicate`` stops
    with ClassBoundaryError (see CHANGES.md).
    """
    dividend = {}
    for s in coalitions(n):
        low, high = (1, 1000) if len(s) == 2 else (0, 500)
        dividend[s] = Fraction(rng.randint(low, high), rng.randint(1, 30))
    return {s: sum(d for t, d in dividend.items() if set(t) <= set(s)) for s in coalitions(n)}


GENERAL = (("general", general_game),)
BOTH_KINDS = GENERAL + (("convex", convex_game),)


def interleave(*groups: list) -> list:
    """The items of every group in one list, each group spread evenly over
    it, so that a slow spell of the machine does not fall on one group only."""
    keyed = [((k + 0.5) / len(group), item) for group in groups for k, item in enumerate(group)]
    return [item for _, item in sorted(keyed, key=lambda pair: pair[0])]


def game_pool(name: str, sizes: dict[int, int], kinds=BOTH_KINDS) -> list[tuple[str, int, Game]]:
    """``sizes[n]`` games per player count, cycling through ``kinds``, drawn
    from a generator seeded by ``name`` alone; the player counts are
    interleaved evenly."""
    rng = random.Random(f"{name}:pool")
    groups = []
    for n, count in sizes.items():
        group = []
        for k in range(count):
            kind, make = kinds[k % len(kinds)]
            group.append((f"{kind}-n{n}-{k}", n, make(rng, n)))
        groups.append(group)
    return interleave(*groups)


def equivalent_game(rng: random.Random, n: int, game: Game) -> Game:
    """The game with its players relabelled by a random permutation and a
    random additive game b(S) = sum_{i in S} b_i added.

    The result is strategically equivalent: its pre-kernel and
    pre-nucleolus are the relabelled points plus b, and its class
    properties, surplus ties and replication family have the same shape.
    """
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    shift = [rng.randint(-50, 50) for _ in range(n)]
    return {tuple(sorted(perm[p - 1] for p in s)): w + sum(shift[perm[p - 1] - 1] for p in s)
            for s, w in game.items()}


def seeded_games(name: str, sizes: dict[int, int], rng: random.Random,
                 kinds=BOTH_KINDS, copies: int = 1) -> list[tuple[str, int, Game]]:
    """``copies`` strategically equivalent copies of every game of the
    workload's pool, each drawn afresh from ``rng``.

    The seed changes every worth and every player label, while the pool
    fixes how hard each game is (its LP count, its halvings); with the few
    operations a run of ``prenucleolus`` or ``family`` holds, fresh games per
    seed made the seed-to-seed spread larger than any useful bound.
    """
    pool = game_pool(name, sizes, kinds)
    return [(label if copies == 1 else f"{label}-copy{c}", n, equivalent_game(rng, n, game))
            for c in range(copies) for label, n, game in pool]
