"""Pre-kernel computation through per-class convex quadratics.

Every payoff vector selects, for each ordered player pair, a deterministic
"most effective" coalition (maximum surplus, ties broken by smallest
cardinality and then lexicographically by member list).  Payoffs selecting
the same coalitions form convex classes, and on each class the surplus
imbalance is the quadratic |alpha + E^T x|^2 for a fixed sign matrix E and
value-difference vector alpha.  Minimizing the class quadratics and
re-reading the selection at the minimizer yields pre-kernel points; rank
and interior tests on the class certify uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coalitions import (
    Coalition,
    coalitions_with_without,
    indicator,
    lex_key,
    ordered_pairs,
    unordered_pairs,
)
from .errors import NonConvergenceError
from .game import (
    Payoff,
    TuGame,
    as_payoff,
    extend_payoff,
    is_prekernel,
)
from .linalg import Matrix, Vector, nullspace, pseudo_inverse, rref


@dataclass(frozen=True)
class SurplusProfile:
    """The selected most-effective coalition for every ordered player pair.

    ``selected[k]`` is the coalition for the k-th pair in
    ``ordered_pairs(n)`` order; there are n(n-1) entries.  Among all
    coalitions attaining the maximum surplus the one with the fewest
    members is chosen, ties broken by comparing sorted member lists.
    """

    n: int
    selected: tuple[Coalition, ...]

    def __post_init__(self):
        if len(self.selected) != self.n * (self.n - 1):
            raise ValueError("profile must have one coalition per ordered pair")

    def get(self, i: int, j: int) -> Coalition:
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError("invalid ordered pair")
        idx = (i - 1) * (self.n - 1) + (j - 1 if j < i else j - 2)
        return self.selected[idx]

    def union(self) -> tuple[Coalition, ...]:
        """Distinct selected coalitions, smallest-first (cardinality, members)."""
        return tuple(sorted(set(self.selected), key=lex_key))

    def pairs(self) -> list[tuple[int, int]]:
        return ordered_pairs(self.n)


def surplus_profile(v: TuGame, x: Sequence[Fraction]) -> SurplusProfile:
    """Deterministic most-effective-coalition selection at payoff x."""
    x = as_payoff(x)
    xbar = extend_payoff(x, v.n)
    selected = []
    for i, j in ordered_pairs(v.n):
        best = None
        best_mask = 0
        for mask in coalitions_with_without(v.n, i, j):
            e = v.value(mask) - xbar[mask]
            if best is None or e > best or (e == best and lex_key(mask) < lex_key(best_mask)):
                best = e
                best_mask = mask
        selected.append(best_mask)
    return SurplusProfile(v.n, tuple(selected))


@dataclass(frozen=True)
class QuadraticSystem:
    """Per-class data (E, alpha, Q, a, |alpha|^2) of the surplus quadratic.

    E has one column per unordered pair (the sign pattern of the selected
    coalition difference) plus an efficiency column of -1s; q = C(n,2) + 1.
    Q = 2 E E^T is symmetric positive semi-definite with small integer
    entries, and a = 2 E alpha.
    """

    n: int
    profile: SurplusProfile
    e_matrix: Matrix
    alpha_vec: Vector
    q_matrix: Matrix
    a_vec: Vector
    alpha_scalar: Fraction

    @property
    def q(self) -> int:
        return len(self.alpha_vec)

    def residual(self, x: Sequence[Fraction]) -> Fraction:
        """|alpha + E^T x|^2, the class quadratic at x."""
        et_x = self.e_matrix.transpose().apply(x)
        return sum(((a + b) ** 2 for a, b in zip(self.alpha_vec, et_x)), Fraction(0))

    def residual_via_form(self, x: Sequence[Fraction]) -> Fraction:
        """(1/2) x.Qx + a.x + |alpha|^2; equals :meth:`residual` identically."""
        qx = self.q_matrix.apply(x)
        quad = sum((xi * qi for xi, qi in zip(x, qx)), Fraction(0)) / 2
        lin = sum((xi * ai for xi, ai in zip(x, self.a_vec)), Fraction(0))
        return quad + lin + self.alpha_scalar

    def minimize(self) -> tuple[Payoff, list[Vector]]:
        """Minimum-norm minimizer of the class quadratic and the null-space
        basis of Q spanning the full solution set."""
        qdag = pseudo_inverse(self.q_matrix)
        xstar = tuple(-val for val in qdag.apply(self.a_vec))
        return xstar, nullspace(self.q_matrix)

    def projection(self) -> Matrix:
        """The orthogonal projection 2 E^T Qdag E onto the span of E^T."""
        return (self.e_matrix.transpose() @ pseudo_inverse(self.q_matrix) @ self.e_matrix).scale(2)

    def xi_vector(self, gamma: Sequence[Fraction]) -> Vector:
        """alpha + E^T gamma: the excess imbalances of the selected pairs."""
        et_g = self.e_matrix.transpose().apply(gamma)
        return tuple(a + b for a, b in zip(self.alpha_vec, et_g))


def quadratic_system(v: TuGame, profile: SurplusProfile) -> QuadraticSystem:
    """Build the class quadratic (E, alpha, Q, a, |alpha|^2) from a profile."""
    n = v.n
    columns: list[list[Fraction]] = []
    alpha: list[Fraction] = []
    for i, j in unordered_pairs(n):
        s_ij = profile.get(i, j)
        s_ji = profile.get(j, i)
        col_pos = indicator(s_ji, n)
        col_neg = indicator(s_ij, n)
        columns.append([a - b for a, b in zip(col_pos, col_neg)])
        alpha.append(v.value(s_ij) - v.value(s_ji))
    columns.append([Fraction(-1)] * n)
    alpha.append(v.value(v.grand))
    e_matrix = Matrix.from_columns(columns)
    q_matrix = (e_matrix @ e_matrix.transpose()).scale(2)
    a_vec = tuple(2 * val for val in e_matrix.apply(alpha))
    alpha_scalar = sum((a * a for a in alpha), Fraction(0))
    return QuadraticSystem(
        n=n,
        profile=profile,
        e_matrix=e_matrix,
        alpha_vec=tuple(alpha),
        q_matrix=q_matrix,
        a_vec=a_vec,
        alpha_scalar=alpha_scalar,
    )


def profile_preserving_step(
    v: TuGame,
    x: Sequence[Fraction],
    profile: SurplusProfile,
    direction: Sequence[Fraction],
) -> Optional[Fraction]:
    """Largest step along ``direction`` before the selection can change.

    Excesses are linear in the step, so the first crossing between a
    selected coalition and any rival in its comparison class is exact.
    Returns None when no rival ever catches up (unbounded).
    """
    x = as_payoff(x)
    xbar = extend_payoff(x, v.n)
    dbar = extend_payoff(as_payoff(direction), v.n)
    best: Optional[Fraction] = None
    for i, j in ordered_pairs(v.n):
        s_sel = profile.get(i, j)
        e_sel = v.value(s_sel) - xbar[s_sel]
        d_sel = dbar[s_sel]
        for mask in coalitions_with_without(v.n, i, j):
            if mask == s_sel:
                continue
            # gap(t) = [e(sel) - e(mask)](x + t*direction) has slope
            # dbar[mask] - d_sel; only rivals gaining on the selection bind.
            slope = dbar[mask] - d_sel
            if slope >= 0:
                continue
            gap = e_sel - (v.value(mask) - xbar[mask])
            step = gap / (-slope)
            if best is None or step < best:
                best = step
                if best == 0:
                    return best
    return best


def _interior_directions(n: int) -> list[tuple[Fraction, ...]]:
    """Pair-transfer directions plus +/- the all-ones direction.

    These positively span R^n, so positive profile-preserving steps along
    all of them witness an interior point of the (convex) class.
    """
    dirs = []
    for i, j in ordered_pairs(n):
        d = [Fraction(0)] * n
        d[i - 1] = Fraction(-1)
        d[j - 1] = Fraction(1)
        dirs.append(tuple(d))
    dirs.append(tuple([Fraction(1)] * n))
    dirs.append(tuple([Fraction(-1)] * n))
    return dirs


@dataclass(frozen=True)
class UniquenessCertificate:
    """Witnesses that a pre-kernel point is the unique one.

    rank_full: the class sign matrix has rank n, so the class quadratic has
    a unique minimizer.  interior_steps: a verified positive step per
    direction of a positively spanning set, witnessing interiority of the
    point in its class.  The point additionally passes the balancedness
    test of every excess level set.
    """

    point: Payoff
    profile: SurplusProfile
    rank_full: bool
    interior_steps: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    balanced_levels: bool


def certify_unique(v: TuGame, x: Sequence[Fraction]) -> Optional[UniquenessCertificate]:
    """Certificate that x is the sole pre-kernel point, or None.

    Sufficient conditions: the class sign matrix has full rank n, the point
    is interior to its selection class (verified positive steps along a
    positively spanning direction set), and every excess level set is
    balanced.  None means inconclusive, never "not unique".
    """
    from .prenucleolus import kohlberg_criterion

    x = as_payoff(x)
    if not is_prekernel(v, x):
        raise ValueError("certify_unique requires a pre-kernel point")
    profile = surplus_profile(v, x)
    sys = quadratic_system(v, profile)
    _, rank_e, _ = rref(sys.e_matrix)
    if rank_e != v.n:
        return None
    steps = []
    for d in _interior_directions(v.n):
        limit = profile_preserving_step(v, x, profile, d)
        if limit is not None and limit == 0:
            return None
        probe = Fraction(1) if limit is None else limit / 2
        if probe == 0:
            return None
        moved = tuple(xi + probe * di for xi, di in zip(x, d))
        if surplus_profile(v, moved) != profile:
            return None
        steps.append((d, probe))
    if not kohlberg_criterion(v, x):
        return None
    return UniquenessCertificate(
        point=x,
        profile=profile,
        rank_full=True,
        interior_steps=tuple(steps),
        balanced_levels=True,
    )


def prekernel_point(v: TuGame, max_rounds: int = 200) -> Payoff:
    """A pre-kernel point of v, exact.

    Iterates: read the selection profile at the current payoff, minimize
    its class quadratic, move to the minimizer; stop when the surplus
    residual vanishes.  Profile cycles trigger a restart from the midpoint
    of the last two iterates; after three restarts the sequential
    minimum-excess solver is used as an unconditional fallback.
    """
    from .prenucleolus import prenucleolus

    x = v.equal_split()
    prev: Optional[Payoff] = None
    seen: set[tuple[Coalition, ...]] = set()
    restarts = 0
    for _ in range(max_rounds):
        if is_prekernel(v, x):
            return x
        profile = surplus_profile(v, x)
        key = profile.selected
        if key in seen:
            restarts += 1
            if restarts > 3 or prev is None:
                break
            x = tuple((a + b) / 2 for a, b in zip(prev, x))
            prev = None
            seen.clear()
            continue
        seen.add(key)
        xstar, _ = quadratic_system(v, profile).minimize()
        prev, x = x, xstar
    x = prenucleolus(v)
    if not is_prekernel(v, x):
        raise NonConvergenceError("fallback produced an invalid point")
    return x
