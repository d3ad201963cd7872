"""Pre-nucleolus computation and balancedness verification.

The solver minimizes the ordered excess vector in the sequence of Maschler,
Peleg & Shapley (1979), on the dual side.  The settled equalities (efficiency
and each coalition fixed at its excess level) are substituted out as
x = x0 + K w; coalitions whose excess they fix are dropped; and one LP per
round maximizes the weighted excess over convex weights y >= 0 on the other
coalitions subject to sum_S y_S K^T 1_S = 0.  Its optimum is the least top
excess, and every coalition it weights is tight in each minimizer, so those
are settled.  Each round raises the rank of the settled system, so at most
n - 1 LPs of at most n rows run.
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
from .linalg import Matrix, nullspace, rank as matrix_rank, solve_linear
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

    eq_rows = tuple(zip(*[indicator(m, n) for m in masks]))
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

    Each round writes the payoffs meeting the settled equalities B x = b
    (efficiency and every settled coalition at its excess) as x0 + K w,
    with K a null-space basis of B, drops the unsettled coalitions whose
    excess does not depend on w, and solves the dual of the level LP:
    max sum_S y_S (v(S) - x0(S)) subject to sum_S y_S K^T 1_S = 0,
    sum_S y_S = 1 and y >= 0.  Every coalition in the support of the
    optimum is tight in each primal optimum (complementary slackness), so
    it is settled at the optimal level; its indicator lies outside the span
    of B, so at most n - 1 rounds run before B has rank n.
    """
    n = v.n
    rows = [indicator(v.grand, n)]
    rhs = [v.value(v.grand)]
    unsettled = [m for m in all_coalitions(n) if m != v.grand]
    for _ in range(n):
        mat = Matrix.from_rows(rows)
        x0 = solve_linear(mat, rhs)
        if x0 is None:
            raise SolverError("settled equalities have no common solution")
        basis = nullspace(mat)
        if not basis:
            return x0
        sums = [extend_payoff(z, n) for z in basis]
        unsettled = [m for m in unsettled if any(s[m] for s in sums)]
        xbar = extend_payoff(x0, n)
        outcome = solve_lp(
            LinearProgram(
                objective=tuple([v.value(m) - xbar[m] for m in unsettled]),
                maximize=True,
                eq_matrix=tuple([tuple([s[m] for m in unsettled]) for s in sums])
                + (tuple([Fraction(1)] * len(unsettled)),),
                eq_rhs=tuple([Fraction(0)] * len(sums)) + (Fraction(1),),
            )
        )
        if outcome.status != "optimal":
            raise SolverError(f"level LP returned {outcome.status}")
        for m, y in zip(unsettled, outcome.point):
            if y > 0:
                rows.append(indicator(m, n))
                rhs.append(v.value(m) - outcome.value)
        unsettled = [m for m, y in zip(unsettled, outcome.point) if y == 0]
    raise SolverError("sequential minimization failed to terminate")
