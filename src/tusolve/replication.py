"""Families of related games sharing one pre-kernel point.

The selected coalitions at a pre-kernel point define a matrix of coalition
power: V stacks the selected-coalition indicator differences as vectors
over all 2**n - 1 coalition axes, U is the unanimity basis, and W = V^T U.
Unanimity-coordinate directions in the null space of W leave every
selected value difference untouched, so scaled perturbations along them
produce new games that keep the point in the pre-kernel.  Every generated
game is verified exactly and the scale halved on failure, making the
construction sound regardless of the estimated safety bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence

from .coalitions import all_coalitions, contains, ordered_pairs, unordered_pairs
from .errors import ClassBoundaryError, ReplicationError, SolverError
from .game import Payoff, TuGame, as_fraction, as_payoff, is_prekernel, unanimity_values
from .linalg import Matrix, Vector, nullspace, rank as matrix_rank, rref
from .prekernel import (
    QuadraticSystem,
    SurplusProfile,
    certify_unique,
    profile_preserving_step,
    quadratic_system,
    surplus_profile,
)


@dataclass(frozen=True)
class CoalitionPowerSystem:
    """V (coalition-axis differences of selected coalitions), the unanimity
    basis U, their product W = V^T U, and the invariant value differences
    alpha = V^T v."""

    n: int
    profile: SurplusProfile
    v_matrix: Matrix
    u_matrix: Matrix
    w_matrix: Matrix
    alpha_vec: Vector


def unanimity_basis(n: int) -> Matrix:
    """U[S][T] = 1 iff T is a subset of S, over non-empty coalitions."""
    rows = []
    for s in all_coalitions(n):
        rows.append([Fraction(int(t & s == t)) for t in all_coalitions(n)])
    return Matrix.from_rows(rows)


def _dirac(mask: int, p_prime: int) -> list[Fraction]:
    col = [Fraction(0)] * p_prime
    col[mask - 1] = Fraction(1)
    return col


def power_system(v: TuGame, profile: SurplusProfile) -> CoalitionPowerSystem:
    """Build V, U, W and alpha from a selection profile."""
    n = v.n
    p_prime = (1 << n) - 1
    columns = []
    alpha = []
    for i, j in unordered_pairs(n):
        s_ij = profile.get(i, j)
        s_ji = profile.get(j, i)
        col = _dirac(s_ij, p_prime)
        col[s_ji - 1] -= 1
        columns.append(col)
        alpha.append(v.value(s_ij) - v.value(s_ji))
    columns.append(_dirac(v.grand, p_prime))
    alpha.append(v.value(v.grand))
    v_matrix = Matrix.from_columns(columns)
    u_matrix = unanimity_basis(n)
    w_matrix = v_matrix.transpose() @ u_matrix

    vt_v = v_matrix.transpose().apply(list(v.values))
    if list(vt_v) != alpha:
        raise SolverError("V^T v must reproduce the value differences")
    # The class sign matrix factors through V: E^T = V^T Z^T with
    # Z^T[S][k] = -1 for k in S, witnessing the range inclusion.
    z_t = Matrix.from_rows(
        [[-Fraction(int(contains(m, p))) for p in range(1, n + 1)] for m in all_coalitions(n)]
    )
    e_t = quadratic_system(v, profile).e_matrix.transpose()
    if (v_matrix.transpose() @ z_t).rows != e_t.rows:
        raise SolverError("V^T Z^T must reproduce the class sign matrix")
    return CoalitionPowerSystem(
        n=n,
        profile=profile,
        v_matrix=v_matrix,
        u_matrix=u_matrix,
        w_matrix=w_matrix,
        alpha_vec=tuple(alpha),
    )


def family_nullspace(sys: CoalitionPowerSystem) -> list[Vector]:
    """Integer basis of {delta | W delta = 0}, from the reduced echelon form
    with free variables set to unit vectors and denominators cleared."""
    basis = nullspace(sys.w_matrix)
    cleared = []
    for vec in basis:
        mult = lcm(*(f.denominator for f in vec))
        cleared.append(tuple(f * mult for f in vec))
    return cleared


def related_game(v: TuGame, delta: Sequence[Fraction], mu) -> TuGame:
    """v + mu * (game with unanimity coordinates delta).

    delta must lie in the null space of the profile's W matrix for the
    value differences to stay invariant; callers own that precondition.
    """
    mu = as_fraction(mu)
    shift = unanimity_values(delta)
    values = tuple(a + mu * b for a, b in zip(v.values, shift))
    return TuGame(v.n, values)


def _sqrt_lower(value: Fraction) -> Fraction:
    """Largest convenient rational below sqrt(value)."""
    if value < 0:
        raise ValueError("negative radicand")
    num, den = value.numerator, value.denominator
    return Fraction(isqrt(num * den), den)


def critical_bound(v: TuGame, x: Sequence[Fraction], sys: QuadraticSystem) -> Fraction:
    """Per-coalition variation radius under which the selection at x survives.

    Estimates the inscribed level c of the class quadratic by probing each
    pair-transfer direction to its exact breakpoint, halves it for safety,
    and converts to the bound min over pairs of sqrt(c) / |E^T (1_j - 1_i)|.
    Raises ClassBoundaryError when x admits no positive step in some
    direction (replication is then not guaranteed).
    """
    x = as_payoff(x)
    if not is_prekernel(v, x):
        raise ValueError("critical_bound requires a pre-kernel point")
    _, rank_e, _ = rref(sys.e_matrix)
    if rank_e != v.n:
        raise ValueError("critical_bound requires a full-rank class matrix")
    n = v.n
    levels = []
    norms = []
    e_t = sys.e_matrix.transpose()
    for i, j in ordered_pairs(n):
        d = [Fraction(0)] * n
        d[i - 1] = Fraction(-1)
        d[j - 1] = Fraction(1)
        step = profile_preserving_step(v, x, sys.profile, d)
        if step is not None and step == 0:
            raise ClassBoundaryError(f"no positive step in direction {(i, j)}")
        etd = e_t.apply(d)
        norms.append(sum((a * a for a in etd), Fraction(0)))
        if step is not None:
            moved = tuple(xi + step * di for xi, di in zip(x, d))
            levels.append(sys.residual(moved))
    c_bar = (min(levels) if levels else Fraction(1)) / 2
    if c_bar == 0:
        raise ClassBoundaryError("inscribed level degenerated to zero")
    ratio = min(c_bar / nrm for nrm in norms)
    return _sqrt_lower(ratio)


@dataclass(frozen=True)
class RelatedFamily:
    """Games generated from one pre-kernel point of a base game.

    One game per null-space basis direction; ``mus[k]`` is the verified
    scale actually used for ``games[k]`` (the requested ``mu``, halved
    until exact verification passed)."""

    base: TuGame
    point: Payoff
    deltas: tuple[Vector, ...]
    mu: Fraction
    mus: tuple[Fraction, ...]
    bound: Fraction
    games: tuple[TuGame, ...]


def replicate_family(v: TuGame, x: Sequence[Fraction], mu, max_halvings: int = 60) -> RelatedFamily:
    """Generate and exactly verify one related game per null-space direction.

    Every candidate must keep x in its pre-kernel with an unchanged
    selection profile; when the base point carries a uniqueness
    certificate the candidate must earn one too (which subsumes the
    balancedness check).  Failures halve the scale and retry.
    """
    x = as_payoff(x)
    mu = as_fraction(mu)
    if not is_prekernel(v, x):
        raise ValueError("replicate_family requires a pre-kernel point")
    profile = surplus_profile(v, x)
    qsys = quadratic_system(v, profile)
    bound = critical_bound(v, x, qsys)
    psys = power_system(v, profile)
    deltas = family_nullspace(psys)
    base_cert = certify_unique(v, x)

    games: list[TuGame] = []
    mus: list[Fraction] = []
    for k, delta in enumerate(deltas):
        scale = mu
        for _ in range(max_halvings):
            candidate = related_game(v, delta, scale)
            ok = is_prekernel(candidate, x) and surplus_profile(candidate, x) == profile
            if ok and base_cert is not None:
                ok = certify_unique(candidate, x) is not None
            if ok:
                break
            scale = scale / 2
        else:
            raise ReplicationError(f"direction {k} failed verification after {max_halvings} halvings")
        games.append(candidate)
        mus.append(scale)

    if any(m != 0 for m in mus):
        stacked = Matrix.from_rows([list(g.values) for g in games])
        if matrix_rank(stacked) != len(games):
            raise ReplicationError("generated games are not linearly independent")
    return RelatedFamily(
        base=v,
        point=x,
        deltas=tuple(deltas),
        mu=mu,
        mus=tuple(mus),
        bound=bound,
        games=tuple(games),
    )


def convex_combine(games: Sequence[TuGame], weights: Sequence[Fraction]) -> TuGame:
    """Coalition-wise convex combination of same-size games."""
    if len(games) != len(weights):
        raise ValueError("one weight per game required")
    weights = [as_fraction(w) for w in weights]
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    if sum(weights) != 1:
        raise ValueError("weights must sum to one")
    n = games[0].n
    if any(g.n != n for g in games):
        raise ValueError("all games must share the player set")
    p_prime = (1 << n) - 1
    values = [Fraction(0)] * p_prime
    for g, w in zip(games, weights):
        if w == 0:
            continue
        for idx in range(p_prime):
            values[idx] += w * g.values[idx]
    return TuGame(n, tuple(values))


def segment_sample(
    family: RelatedFamily,
    index_a: int,
    index_b: int,
    eps_grid: Sequence[Fraction],
    weights: Optional[Sequence[Fraction]] = None,
) -> list[TuGame]:
    """Games along a weight segment of the family's convex hull.

    The hull members are the generated games followed by the base game;
    ``weights`` defaults to the uniform combination.  Each epsilon moves
    weight from game ``index_b`` to game ``index_a``; every sampled game is
    verified to keep the family point in its pre-kernel.
    """
    members = list(family.games) + [family.base]
    count = len(members)
    if weights is None:
        weights = [Fraction(1, count)] * count
    weights = [as_fraction(w) for w in weights]
    if len(weights) != count:
        raise ValueError("need one weight per hull member (games then base)")
    d = len(family.games)
    for idx in (index_a, index_b):
        if not 0 <= idx < d:
            raise ValueError("segment indices must address generated games")
    if index_a == index_b:
        raise ValueError("segment endpoints must differ")
    out = []
    for eps in eps_grid:
        eps = as_fraction(eps)
        w = list(weights)
        w[index_a] += eps
        w[index_b] -= eps
        if w[index_a] < 0 or w[index_b] < 0:
            raise ValueError(f"epsilon {eps} leaves the weight simplex")
        game = convex_combine(members, w)
        if not is_prekernel(game, family.point):
            raise ReplicationError(f"segment game at epsilon {eps} lost the pre-kernel point")
        out.append(game)
    return out
