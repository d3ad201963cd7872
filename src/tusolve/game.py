"""TU games with exact rational values: excesses, surpluses, the maximum
excess function, surplus-balance residuals, unanimity transforms, and game
property predicates.

A game is stored as the vector of its 2**n - 1 coalition values in
increasing bitmask order; v(empty) = 0 is implicit.  All arithmetic uses
``fractions.Fraction`` so that every comparison and equality test is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Mapping, Sequence

from .coalitions import (
    MAX_PLAYERS,
    Coalition,
    all_coalitions,
    coalition_of,
    coalitions_with_without,
    grand_coalition,
    indicator,
    lex_key,
    unordered_pairs,
)
from .errors import SolverError
from .lp import LinearProgram, solve_lp

Rational = Fraction
Payoff = tuple[Fraction, ...]

ResidualMode = Literal["surplus", "indirect"]


def as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def as_payoff(x: Sequence) -> Payoff:
    return tuple(as_fraction(v) for v in x)


@dataclass(frozen=True)
class TuGame:
    """A transferable-utility game (N, v) with exact rational worths.

    ``values[mask - 1]`` is v(S) for the non-empty coalition with bitmask
    ``mask``.  The grand coalition must have strictly positive worth.
    """

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}")
        expected = (1 << self.n) - 1
        if len(self.values) != expected:
            raise ValueError(f"expected {expected} coalition values, got {len(self.values)}")
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        if self.values[-1] <= 0:
            raise ValueError("grand coalition value must be positive")

    @property
    def grand(self) -> Coalition:
        return grand_coalition(self.n)

    def value(self, mask: Coalition) -> Fraction:
        if mask == 0:
            return Fraction(0)
        return self.values[mask - 1]

    @classmethod
    def from_coalition_values(cls, n: int, worth: Mapping[Iterable[int], object]) -> "TuGame":
        """Build a game from {player-tuple: value}; missing coalitions are 0."""
        values = [Fraction(0)] * ((1 << n) - 1)
        for players, val in worth.items():
            mask = coalition_of(players)
            if mask == 0 or mask > grand_coalition(n):
                raise ValueError(f"coalition {tuple(players)} out of range for n={n}")
            values[mask - 1] = as_fraction(val)
        return cls(n, tuple(values))

    def equal_split(self) -> Payoff:
        share = self.value(self.grand) / self.n
        return tuple([share] * self.n)


def payoff_total(x: Sequence[Fraction], mask: Coalition) -> Fraction:
    """x(S): the payoff total of coalition S."""
    total = Fraction(0)
    i = 0
    while mask:
        if mask & 1:
            total += x[i]
        mask >>= 1
        i += 1
    return total


def extend_payoff(x: Sequence[Fraction], n: int) -> list[Fraction]:
    """All 2**n coalition totals x(S), indexed by bitmask (index 0 is 0)."""
    out = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        out[mask] = out[mask ^ low] + x[low.bit_length() - 1]
    return out


def excess(v: TuGame, mask: Coalition, x: Sequence[Fraction]) -> Fraction:
    """e(S, x) = v(S) - x(S); the dissatisfaction of S at payoff x."""
    return v.value(mask) - payoff_total(x, mask)


def max_surplus(v: TuGame, i: int, j: int, x: Sequence[Fraction]) -> tuple[Fraction, list[Coalition]]:
    """Maximum excess of player i against j over coalitions with i but not j.

    Returns the maximum together with every coalition attaining it, sorted
    by (cardinality, member list).
    """
    if i == j:
        raise ValueError("players must be distinct")
    xbar = extend_payoff(x, v.n)
    best = None
    argmax: list[Coalition] = []
    for mask in coalitions_with_without(v.n, i, j):
        e = v.value(mask) - xbar[mask]
        if best is None or e > best:
            best = e
            argmax = [mask]
        elif e == best:
            argmax.append(mask)
    argmax.sort(key=lex_key)
    return best, argmax


def max_excess(v: TuGame, x: Sequence[Fraction]) -> Fraction:
    """max over all S <= N (empty included) of v(S) - x(S).

    Always >= 0 because the empty coalition contributes 0.
    """
    xbar = extend_payoff(x, v.n)
    best = Fraction(0)
    for mask in all_coalitions(v.n):
        e = v.value(mask) - xbar[mask]
        if e > best:
            best = e
    return best


def max_marginal_gap(v: TuGame, x: Sequence[Fraction]) -> Fraction:
    """max over players k and S <= N\\{k} of |v(S+k) - v(S) - x_k|."""
    best = Fraction(0)
    for k in range(1, v.n + 1):
        bit = 1 << (k - 1)
        xk = x[k - 1]
        for mask in range(1 << v.n):
            if mask & bit:
                continue
            gap = abs(v.value(mask | bit) - v.value(mask) - xk)
            if gap > best:
                best = gap
    return best


def transfer(x: Sequence[Fraction], i: int, j: int, delta: Fraction) -> Payoff:
    """The payoff x with delta moved from player i to player j."""
    y = list(x)
    y[i - 1] -= delta
    y[j - 1] += delta
    return tuple(y)


def prekernel_residual(v: TuGame, x: Sequence[Fraction], mode: ResidualMode = "surplus") -> Fraction:
    """Sum of squared surplus imbalances plus the squared efficiency gap.

    Zero exactly on pre-kernel points.  Mode "surplus" accumulates
    (s_ij - s_ji)^2 directly; mode "indirect" evaluates the same pairwise
    differences through the maximum excess function after transferring a
    sufficiently large amount between the two players.  Both modes agree
    exactly.
    """
    x = as_payoff(x)
    total = (payoff_total(x, v.grand) - v.value(v.grand)) ** 2
    if mode == "surplus":
        for i, j in unordered_pairs(v.n):
            sij, _ = max_surplus(v, i, j, x)
            sji, _ = max_surplus(v, j, i, x)
            total += (sij - sji) ** 2
    elif mode == "indirect":
        delta = max_marginal_gap(v, x)
        for i, j in unordered_pairs(v.n):
            fij = max_excess(v, transfer(x, i, j, delta)) - max_excess(v, transfer(x, j, i, delta))
            total += fij**2
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return total


def is_prekernel(v: TuGame, x: Sequence[Fraction]) -> bool:
    """True iff x is efficient and all opposed maximum surpluses balance."""
    x = as_payoff(x)
    if payoff_total(x, v.grand) != v.value(v.grand):
        return False
    for i, j in unordered_pairs(v.n):
        sij, _ = max_surplus(v, i, j, x)
        sji, _ = max_surplus(v, j, i, x)
        if sij != sji:
            return False
    return True


def _subset_sums(values: Sequence, n: int, sign: int) -> tuple[Fraction, ...]:
    """f(S) = sum over T <= S of values(T) for sign 1 (the zeta transform), or
    its inverse, the Moebius transform, for sign -1.  Both vectors run over
    the non-empty coalitions in bitmask order, with value 0 on the empty one."""
    f = [Fraction(0)] + [as_fraction(c) for c in values]
    for k in range(n):
        bit = 1 << k
        for mask in range(1 << n):
            if mask & bit:
                f[mask] += sign * f[mask ^ bit]
    return tuple(f[1:])


def unanimity_coords(v: TuGame) -> tuple[Fraction, ...]:
    """Coordinates of v in the unanimity-game basis (Moebius inverse)."""
    return _subset_sums(v.values, v.n, -1)


def game_from_unanimity(coords: Sequence[Fraction]) -> TuGame:
    """Inverse of :func:`unanimity_coords` (subset-sum transform)."""
    values = unanimity_values(coords)
    return TuGame((len(values) + 1).bit_length() - 1, values)


def unanimity_values(coords: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Subset-sum transform without the TuGame wrapper (no positivity check).

    Used for perturbation vectors that are not themselves games.
    """
    n = (len(coords) + 1).bit_length() - 1
    if (1 << n) - 1 != len(coords):
        raise ValueError("coordinate vector length must be 2**n - 1")
    return _subset_sums(coords, n, 1)


@dataclass(frozen=True)
class GameProperties:
    convex: bool
    average_convex: bool
    zero_monotonic: bool
    superadditive: bool
    semiconvex: bool
    core_nonempty: bool


def _is_convex(v: TuGame) -> bool:
    """Supermodularity in its local form, v(S+i+j) + v(S) >= v(S+i) + v(S+j)
    for players i != j outside S, which implies it for all coalition pairs."""
    full = 1 << v.n
    for s in range(full):
        for i in range(v.n):
            bit_i = 1 << i
            if s & bit_i:
                continue
            for j in range(i + 1, v.n):
                bit_j = 1 << j
                if s & bit_j:
                    continue
                if v.value(s | bit_i | bit_j) + v.value(s) < v.value(s | bit_i) + v.value(s | bit_j):
                    return False
    return True


def _is_average_convex(v: TuGame) -> bool:
    """Average convexity in the S-subset-of-T form of Iñarra & Usategui,
    "The Shapley value and average convex games", Int. J. Game Theory 22
    (1993): sum_{i in S} [v(S) - v(S\\i)] <= sum_{i in S} [v(T) - v(T\\i)]
    for all S <= T."""
    full = 1 << v.n
    marg = [Fraction(0)] * full
    for mask in range(1, full):
        total = Fraction(0)
        for k in range(v.n):
            bit = 1 << k
            if mask & bit:
                total += v.value(mask) - v.value(mask ^ bit)
        marg[mask] = total

    def cross(s: Coalition, t: Coalition) -> Fraction:
        total = Fraction(0)
        for k in range(v.n):
            bit = 1 << k
            if s & bit:
                total += v.value(t) - v.value(t ^ bit)
        return total

    for t in range(1, full):
        s = t
        while s:
            if marg[s] > cross(s, t):
                return False
            s = (s - 1) & t
    return True


def _is_zero_monotonic(v: TuGame) -> bool:
    for k in range(v.n):
        bit = 1 << k
        single = v.value(bit)
        for mask in range(1 << v.n):
            if mask & bit:
                continue
            if v.value(mask | bit) < v.value(mask) + single:
                return False
    return True


def _is_superadditive(v: TuGame) -> bool:
    full = 1 << v.n
    for s in range(1, full):
        # proper non-empty subsets of the complement of s
        comp = (full - 1) ^ s
        t = comp
        while t:
            if v.value(s | t) < v.value(s) + v.value(t):
                return False
            t = (t - 1) & comp
    return True


def _is_semiconvex(v: TuGame) -> bool:
    # gap g(S) = sum_{i in S} b_i - v(S) with b_i = v(N) - v(N\i):
    # require g >= 0 everywhere and g({i}) minimal among coalitions containing i.
    full = v.grand
    b = [v.value(full) - v.value(full ^ (1 << k)) for k in range(v.n)]
    gaps = {}
    for mask in all_coalitions(v.n):
        total = Fraction(0)
        m = mask
        k = 0
        while m:
            if m & 1:
                total += b[k]
            m >>= 1
            k += 1
        g = total - v.value(mask)
        if g < 0:
            return False
        gaps[mask] = g
    for k in range(v.n):
        bit = 1 << k
        gk = gaps[bit]
        for mask in all_coalitions(v.n):
            if mask & bit and gaps[mask] < gk:
                return False
    return True


def _core_nonempty(v: TuGame) -> bool:
    """Bondareva-Shapley: the core is non-empty iff max sum_S lambda_S v(S)
    over lambda >= 0 with sum_{S contains i} lambda_S = 1 for every player i
    is at most v(N).  The grand coalition's column keeps the LP feasible."""
    masks = list(all_coalitions(v.n))
    outcome = solve_lp(
        LinearProgram(
            objective=v.values,
            maximize=True,
            eq_matrix=tuple(zip(*[indicator(m, v.n) for m in masks])),
            eq_rhs=tuple([Fraction(1)] * v.n),
        )
    )
    if outcome.status != "optimal":
        raise SolverError(f"core LP returned {outcome.status}")
    return outcome.value <= v.value(v.grand)


def game_properties(v: TuGame) -> GameProperties:
    """Exact predicate evaluation of the standard game classes."""
    return GameProperties(
        convex=_is_convex(v),
        average_convex=_is_average_convex(v),
        zero_monotonic=_is_zero_monotonic(v),
        superadditive=_is_superadditive(v),
        semiconvex=_is_semiconvex(v),
        core_nonempty=_core_nonempty(v),
    )
