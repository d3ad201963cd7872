"""Bitmask coalition utilities.

Coalitions over a player set {1, ..., n} are plain ints: player ``i``
occupies bit ``i - 1``.  The empty coalition is ``0`` and the grand
coalition is ``(1 << n) - 1``.  Player counts are capped at 20 because
most operations enumerate all 2**n coalitions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

MAX_PLAYERS = 20

Coalition = int


def grand_coalition(n: int) -> Coalition:
    return (1 << n) - 1


def coalition_of(players: Iterable[int]) -> Coalition:
    """Bitmask of a collection of 1-based player indices."""
    mask = 0
    for p in players:
        mask |= 1 << (p - 1)
    return mask


def members(mask: Coalition) -> tuple[int, ...]:
    """Sorted 1-based player indices of a coalition."""
    out = []
    p = 1
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return tuple(out)


def size(mask: Coalition) -> int:
    return mask.bit_count()


def contains(mask: Coalition, player: int) -> bool:
    return bool(mask >> (player - 1) & 1)


def indicator(mask: Coalition, n: int) -> tuple[Fraction, ...]:
    """The 0/1 vector 1_S over players 1..n, as Fractions."""
    return tuple([Fraction(int(contains(mask, p))) for p in range(1, n + 1)])


def all_coalitions(n: int, include_empty: bool = False) -> Iterator[Coalition]:
    """All coalitions over n players in increasing bitmask order."""
    return iter(range(0 if include_empty else 1, 1 << n))


def coalitions_with_without(n: int, i: int, j: int) -> Iterator[Coalition]:
    """Coalitions containing player i but not player j."""
    if i == j:
        raise ValueError("players must be distinct")
    base = 1 << (i - 1)
    rest = [k for k in range(n) if k not in (i - 1, j - 1)]
    for bits in range(1 << len(rest)):
        mask = base
        for idx, k in enumerate(rest):
            if bits >> idx & 1:
                mask |= 1 << k
        yield mask


def lex_key(mask: Coalition) -> tuple[int, tuple[int, ...]]:
    """Sort key: smallest cardinality first, then sorted member lists."""
    return (size(mask), members(mask))


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered player pairs (i, j), i != j, in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def unordered_pairs(n: int) -> list[tuple[int, int]]:
    """All pairs (i, j) with i < j, in lexicographic order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def format_coalition(mask: Coalition) -> str:
    return "{" + ",".join(str(p) for p in members(mask)) + "}"
