"""Pre-nucleolus computation and balancedness verification.

The solver sequentially minimizes the maximum excess: each round an exact
LP finds the least achievable top excess over the not-yet-settled
coalitions, a secondary LP per candidate decides which coalitions are
pinned at that level in every optimal solution, and those become equality
constraints.  The point is unique once the settled equalities reach rank n.
Verification is independent: a payoff is the pre-nucleolus iff every
excess level set is a balanced collection (Kohlberg 1971).  The check walks
the level sets from the top excess down and stops at the first balanced one
of rank n, since every larger collection is then balanced as well; each
balancedness test grows the support of a feasible weight vector, one LP per
round, instead of solving one LP per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coalitions import Coalition, all_coalitions, contains, grand_coalition, indicator, lex_key
from .errors import SolverError
from .game import Payoff, TuGame, as_payoff, extend_payoff, payoff_total
from .linalg import Matrix, rank as matrix_rank, solve_linear
from .lp import LinearProgram, solve_lp


def excess_profile(v: TuGame, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """All 2**n excesses (empty coalition included) sorted non-increasing."""
    x = as_payoff(x)
    xbar = extend_payoff(x, v.n)
    exc = [Fraction(0)]
    exc.extend(v.value(m) - xbar[m] for m in all_coalitions(v.n))
    exc.sort(reverse=True)
    return tuple(exc)


def lex_le(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    """Lexicographic comparison a <=_L b of equal-length sorted profiles."""
    for ai, bi in zip(a, b):
        if ai < bi:
            return True
        if ai > bi:
            return False
    return True


def excess_level_set(v: TuGame, psi: Fraction, x: Sequence[Fraction]) -> list[Coalition]:
    """Non-empty coalitions (grand coalition included) with excess >= psi."""
    x = as_payoff(x)
    xbar = extend_payoff(x, v.n)
    psi = Fraction(psi)
    return [m for m in all_coalitions(v.n) if v.value(m) - xbar[m] >= psi]


@dataclass(frozen=True)
class BalancedCertificate:
    """Strictly positive weights recombining the collection to the grand
    coalition's indicator: sum_S w_S 1_S = 1_N exactly."""

    collection: tuple[Coalition, ...]
    weights: tuple[Fraction, ...]


def is_balanced(collection: Sequence[Coalition], n: int) -> Optional[BalancedCertificate]:
    """Balancedness certificate for a collection of coalitions, or None.

    Support growth: Z starts as the whole collection; each round solves
    max sum_{S in Z} w_S subject to sum_S w_S 1_S = 1_N and w >= 0, then
    drops from Z every member the optimum weights positively.  An
    infeasible system, or an optimum of 0 while Z is non-empty, means some
    member is zero in every solution, so the collection is not balanced.
    Once Z is empty, the average of the round optima is a strictly positive
    witness; at most one LP per member runs, usually far fewer.
    """
    masks = sorted(set(collection), key=lex_key)
    if not masks:
        raise ValueError("collection must be non-empty")
    full = grand_coalition(n)
    union = 0
    for m in masks:
        if m == 0 or m > full:
            raise ValueError(f"coalition {m} out of range for n={n}")
        union |= m
    if union != full:
        return None

    eq_rows = tuple(zip(*(indicator(m, n) for m in masks)))
    eq_rhs = tuple([Fraction(1)] * n)
    m_count = len(masks)
    zero_so_far = set(range(m_count))
    solutions = []
    while zero_so_far:
        objective = tuple(Fraction(int(k in zero_so_far)) for k in range(m_count))
        outcome = solve_lp(
            LinearProgram(objective=objective, maximize=True, eq_matrix=eq_rows, eq_rhs=eq_rhs)
        )
        if outcome.status != "optimal" or outcome.value == 0:
            return None
        solutions.append(outcome.point)
        zero_so_far = {k for k in zero_so_far if outcome.point[k] == 0}
    weights = tuple(
        sum((sol[k] for sol in solutions), Fraction(0)) / len(solutions) for k in range(m_count)
    )
    for p in range(1, n + 1):
        total = sum((w for w, m in zip(weights, masks) if contains(m, p)), Fraction(0))
        if total != 1:
            raise SolverError("balanced weights failed to recombine exactly")
    if any(w <= 0 for w in weights):
        raise SolverError("balanced weights must be strictly positive")
    return BalancedCertificate(collection=tuple(masks), weights=weights)


def kohlberg_criterion(v: TuGame, x: Sequence[Fraction]) -> bool:
    """True iff every non-empty excess level set is balanced (Kohlberg 1971).

    Characterizes the pre-nucleolus among efficient payoffs; raises if x
    is not efficient.  Level sets are tested from the top excess down, and
    the test stops at the first balanced one whose indicator vectors span
    R^n: write any 1_T in their span and shift a small enough share of the
    strictly positive weights onto T, and 1_N is recombined with T added,
    so every larger collection, each later level set included, is balanced.
    """
    x = as_payoff(x)
    if payoff_total(x, v.grand) != v.value(v.grand):
        raise ValueError("kohlberg_criterion requires an efficient payoff")
    xbar = extend_payoff(x, v.n)
    excesses = {}
    for m in all_coalitions(v.n):
        excesses[m] = v.value(m) - xbar[m]
    levels = sorted(set(excesses.values()), reverse=True)
    total_coalitions = (1 << v.n) - 1
    current: list[Coalition] = []
    by_level: dict[Fraction, list[Coalition]] = {}
    for m, e in excesses.items():
        by_level.setdefault(e, []).append(m)
    for psi in levels:
        current.extend(by_level[psi])
        if len(current) == total_coalitions:
            continue  # the full collection is balanced by symmetry
        if current == [v.grand]:
            continue
        if is_balanced(current, v.n) is None:
            return False
        if matrix_rank(Matrix.from_rows([indicator(m, v.n) for m in current])) == v.n:
            return True
    return True


def prenucleolus(v: TuGame) -> Payoff:
    """The pre-nucleolus of v, exact.

    Sequential scheme: minimize the top excess t over unsettled proper
    coalitions subject to settled equalities and efficiency; settle each
    coalition whose excess equals t* in every optimal solution (decided by
    a secondary LP each); repeat until the settled system pins the payoff.
    """
    n = v.n
    full = v.grand
    if n == 1:
        return (v.value(full),)
    proper = [m for m in all_coalitions(n) if m != full]
    frozen: dict[Coalition, Fraction] = {}

    def settled_rank() -> tuple[int, Matrix, list[Fraction]]:
        rows = [indicator(m, n) for m in frozen]
        rhs = [v.value(m) - frozen[m] for m in frozen]
        rows.append(indicator(full, n))
        rhs.append(v.value(full))
        mat = Matrix.from_rows(rows)
        return matrix_rank(mat), mat, rhs

    for _ in range(len(proper) + 1):
        unfrozen = [m for m in proper if m not in frozen]
        rk, mat, rhs = settled_rank()
        if rk == n:
            point = solve_linear(mat, rhs)
            if point is None:
                raise SolverError("settled equalities have no common solution")
            return tuple(point)
        if not unfrozen:
            raise SolverError("all coalitions settled without pinning the payoff")

        # min t subject to e(S,x) <= t (unsettled), settled equalities, efficiency
        eq_rows = [indicator(m, n) + (Fraction(0),) for m in frozen]
        eq_rhs = [v.value(m) - frozen[m] for m in frozen]
        eq_rows.append(indicator(full, n) + (Fraction(0),))
        eq_rhs.append(v.value(full))
        ub_rows = []
        ub_rhs = []
        for m in unfrozen:
            row = tuple(-c for c in indicator(m, n)) + (Fraction(-1),)
            ub_rows.append(row)
            ub_rhs.append(-v.value(m))
        objective = tuple([Fraction(0)] * n) + (Fraction(1),)
        outcome = solve_lp(
            LinearProgram(
                objective=objective,
                eq_matrix=tuple(eq_rows),
                eq_rhs=tuple(eq_rhs),
                ub_matrix=tuple(ub_rows),
                ub_rhs=tuple(ub_rhs),
                lower_bounds=tuple([None] * (n + 1)),
            )
        )
        if outcome.status != "optimal":
            raise SolverError(f"level LP returned {outcome.status}")
        t_star = outcome.value
        x_cur = outcome.point[:n]

        # secondary LPs: settle S iff its excess equals t* in every optimum
        eq_rows2 = [row[:n] for row in eq_rows]
        ub_rows2 = [row[:n] for row in ub_rows]
        ub_rhs2 = [b + t_star for b in ub_rhs]
        newly: list[Coalition] = []
        for m in unfrozen:
            if v.value(m) - payoff_total(x_cur, m) != t_star:
                continue
            check = solve_lp(
                LinearProgram(
                    objective=indicator(m, n),
                    maximize=True,
                    eq_matrix=tuple(eq_rows2),
                    eq_rhs=tuple(eq_rhs),
                    ub_matrix=tuple(ub_rows2),
                    ub_rhs=tuple(ub_rhs2),
                    lower_bounds=tuple([None] * n),
                )
            )
            if check.status != "optimal":
                raise SolverError(f"settling LP returned {check.status}")
            if check.value == v.value(m) - t_star:
                newly.append(m)
        if not newly:
            raise SolverError("no coalition settled; the level LP must pin at least one")
        for m in newly:
            frozen[m] = t_star
    raise SolverError("sequential minimization failed to terminate")
