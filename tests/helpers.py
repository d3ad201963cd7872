"""Shared test utilities: seeded game generators and independent
brute-force oracles that the solver results are checked against."""

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Sequence

from tusolve import TuGame, game_from_unanimity
from tusolve.coalitions import (
    all_coalitions,
    coalition_of,
    contains,
    grand_coalition,
    indicator,
    lex_key,
)
from tusolve.game import as_payoff, extend_payoff, payoff_total
from tusolve.linalg import Matrix, rank, rref, solve_linear
from tusolve.lp import LinearProgram, LpOutcome, solve_lp

BASE_POINT = (Fraction(44, 9), Fraction(4), Fraction(32, 9), Fraction(32, 9))

TWO_PLAYER = TuGame(2, (Fraction(0), Fraction(0), Fraction(2)))


def random_game(n, rng, span=12):
    values = [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range((1 << n) - 1)]
    values[-1] = Fraction(rng.randint(1, 2 * span), rng.randint(1, 2))
    return TuGame(n, tuple(values))


def random_convex_game(n, rng):
    """Strictly convex game: positive weight on every pair unanimity game.

    Coordinates use a spread of denominators; coarse integer data tends to
    produce coincidental excess ties at the solution point, which land it
    on a selection-class boundary.  When the drawn dividends sum to
    v(N) <= 0, every singleton dividend is raised by the same amount so
    that v(N) = 1; no further number is drawn, so every other draw is the
    one earlier versions made.
    """
    coords = [Fraction(0)] * ((1 << n) - 1)
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        if k == 1:
            coords[mask - 1] = Fraction(rng.randint(-60, 60), rng.randint(7, 17))
        elif k == 2:
            coords[mask - 1] = Fraction(rng.randint(1, 90), rng.randint(7, 17))
        else:
            coords[mask - 1] = Fraction(rng.randint(0, 70), rng.randint(7, 17))
    total = sum(coords)
    if total <= 0:
        for k in range(n):
            coords[(1 << k) - 1] += (1 - total) / n
    return game_from_unanimity(coords)


def random_efficient_payoff(v, rng, span=8):
    x = [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(v.n - 1)]
    x.append(v.value(v.grand) - sum(x))
    return tuple(x)


def random_payoff(n, rng, span=8):
    return tuple(Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n))


def brute_force_lp(c, maximize, a_rows, b, box):
    """Optimal value of max/min c.x over {Ax <= b, 0 <= x <= box} by
    enumerating all candidate vertices (square subsystems of active
    constraints); None when no feasible vertex exists (region is a
    polytope, so None means infeasible)."""
    n = len(c)
    rows = [list(r) for r in a_rows]
    rows += [[Fraction(-int(i == j)) for j in range(n)] for i in range(n)]
    rows += [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rhs = list(b) + [Fraction(0)] * n + [Fraction(box)] * n
    best = None
    for subset in combinations(range(len(rows)), n):
        sol = unique_solution([rows[i] for i in subset], [rhs[i] for i in subset])
        if sol is None:
            continue
        if all(
            sum((r[j] * sol[j] for j in range(n)), Fraction(0)) <= bb
            for r, bb in zip(rows, rhs)
        ):
            val = sum((ci * si for ci, si in zip(c, sol)), Fraction(0))
            if best is None or (val > best if maximize else val < best):
                best = val
    return best


def unique_solution(rows, rhs):
    """The solution of the linear system when its columns are independent
    and it is consistent, else None: one rref of the augmented matrix."""
    k = len(rows[0])
    reduced, _, pivots = rref(Matrix.from_rows([list(r) + [b] for r, b in zip(rows, rhs)]))
    if pivots != list(range(k)):
        return None
    return tuple(reduced.rows[i][k] for i in range(k))


@cache
def _indicator_vertex(masks, n):
    """The exact weights w with sum_k w_k 1_{masks[k]} = 1_N when the
    indicator columns are independent and the system is consistent, else
    None.  Cached by the tuple of masks, across calls."""
    rows = [[Fraction(int(contains(m, p))) for m in masks] for p in range(1, n + 1)]
    return unique_solution(rows, [Fraction(1)] * n)


def brute_force_balanced(masks, n):
    """Balancedness by vertex enumeration of {w >= 0 : sum w_S 1_S = 1_N}.

    Vertices come from exactly solving square subsystems of independent
    indicator columns; the centroid of all vertices has maximal support,
    so the collection is balanced iff the centroid is strictly positive.
    """
    full = grand_coalition(n)
    union = 0
    for m in masks:
        union |= m
    if union != full:
        return False
    k = len(masks)
    vertices = []
    for size in range(1, min(n, k) + 1):
        for subset in combinations(range(k), size):
            sol = _indicator_vertex(tuple(masks[i] for i in subset), n)
            if sol is None or any(s < 0 for s in sol):
                continue
            w = [Fraction(0)] * k
            for idx, i in enumerate(subset):
                w[i] = sol[idx]
            vertices.append(w)
    if not vertices:
        return False
    centroid = [sum(v[i] for v in vertices) / len(vertices) for i in range(k)]
    return all(c > 0 for c in centroid)


def brute_force_convex(game):
    """Convexity straight from its definition: v(S | T) + v(S & T) >=
    v(S) + v(T) for every pair of coalitions, 4**n comparisons."""
    full = 1 << game.n
    for s in range(full):
        for t in range(s + 1, full):
            if game.value(s | t) + game.value(s & t) < game.value(s) + game.value(t):
                return False
    return True


def unanimity_basis(n):
    """The dense unanimity basis U[S][T] = 1 iff T is a subset of S, over
    non-empty coalitions; the coalition power matrix is W = V^T U."""
    return Matrix.from_rows(
        [[Fraction(int(t & s == t)) for t in all_coalitions(n)] for s in all_coalitions(n)]
    )


def brute_force_average_convex(game):
    """Average convexity (Iñarra & Usategui 1993) straight from its definition.

    For all coalitions S subset of T:
        sum_{i in S} [v(S) - v(S minus i)] <= sum_{i in S} [v(T) - v(T minus i)].
    Coalitions are player tuples enumerated with ``itertools.combinations``.

    Returns ``(verdict, margin)``: the verdict covers every inequality, and
    the margin is the exact minimum slack over the pairs with |S| >= 2 and
    S a proper subset of T (S = T is tight by construction; |S| = 1 is
    zero-monotonicity).  The margin is None when no such pair exists (n < 3).
    """
    players = tuple(range(1, game.n + 1))

    def worth(coalition):
        return game.value(coalition_of(coalition))

    def marginal_sum(s, t):
        return sum((worth(t) - worth(tuple(p for p in t if p != i)) for i in s), Fraction(0))

    verdict = True
    margin = None
    for t_size in range(1, game.n + 1):
        for t in combinations(players, t_size):
            for s_size in range(1, t_size):
                for s in combinations(t, s_size):
                    slack = marginal_sum(s, t) - marginal_sum(s, s)
                    if slack < 0:
                        verdict = False
                    if s_size >= 2 and (margin is None or slack < margin):
                        margin = slack
    return verdict, margin


def is_balanced_per_member(collection, n):
    """Balancedness by one exact LP per member, maximizing its weight subject
    to sum_S w_S 1_S = 1_N, w >= 0.  Returns the average of the per-member
    optima (strictly positive iff balanced) as ``(masks, weights)``, or None.
    """
    masks = sorted(set(collection), key=lex_key)
    union = 0
    for m in masks:
        union |= m
    if union != grand_coalition(n):
        return None
    eq_rows = tuple(tuple(Fraction(int(contains(m, p))) for m in masks) for p in range(1, n + 1))
    eq_rhs = tuple([Fraction(1)] * n)
    solutions = []
    for k in range(len(masks)):
        objective = tuple(Fraction(int(i == k)) for i in range(len(masks)))
        outcome = solve_lp(
            LinearProgram(objective=objective, maximize=True, eq_matrix=eq_rows, eq_rhs=eq_rhs)
        )
        if outcome.status != "optimal" or outcome.value == 0:
            return None
        solutions.append(outcome.point)
    weights = tuple(sum(sol[k] for sol in solutions) / len(masks) for k in range(len(masks)))
    return masks, weights


def kohlberg_all_levels(v, x):
    """Kohlberg's criterion testing every excess level set of x with
    ``is_balanced_per_member`` and no early stop; it shares only the LP
    solver and the payoff helpers with ``kohlberg_criterion``."""
    x = as_payoff(x)
    assert payoff_total(x, v.grand) == v.value(v.grand)
    xbar = extend_payoff(x, v.n)
    excesses = {m: v.value(m) - xbar[m] for m in all_coalitions(v.n)}
    for psi in sorted(set(excesses.values()), reverse=True):
        level = [m for m, e in excesses.items() if e >= psi]
        if level == [v.grand] or len(level) == len(excesses):
            continue  # N alone, and the full collection, are balanced
        if is_balanced_per_member(level, v.n) is None:
            return False
    return True


def prenucleolus_tall(v):
    """The pre-nucleolus by the primal sequential scheme with tall LPs.

    Each round minimizes the top excess t over the unsettled proper
    coalitions (one <= row each, free payoff and t) subject to the settled
    equalities and efficiency, then settles every candidate at t* whose
    excess cannot fall below t* (one maximizing LP per candidate).  It
    shares only ``solve_lp`` and the linear algebra with ``prenucleolus``.
    """
    n = v.n
    full = v.grand
    if n == 1:
        return (v.value(full),)
    proper = [m for m in all_coalitions(n) if m != full]
    frozen = {}
    for _ in range(len(proper) + 1):
        eq_rows = [indicator(m, n) for m in frozen] + [indicator(full, n)]
        eq_rhs = [v.value(m) - t for m, t in frozen.items()] + [v.value(full)]
        mat = Matrix.from_rows(eq_rows)
        if rank(mat) == n:
            point = solve_linear(mat, eq_rhs)
            assert point is not None
            return tuple(point)
        unfrozen = [m for m in proper if m not in frozen]
        assert unfrozen
        ub_rows = [tuple(-c for c in indicator(m, n)) for m in unfrozen]
        ub_rhs = [-v.value(m) for m in unfrozen]
        outcome = solve_lp(
            LinearProgram(
                objective=tuple([Fraction(0)] * n) + (Fraction(1),),
                eq_matrix=tuple(r + (Fraction(0),) for r in eq_rows),
                eq_rhs=tuple(eq_rhs),
                ub_matrix=tuple(r + (Fraction(-1),) for r in ub_rows),
                ub_rhs=tuple(ub_rhs),
                lower_bounds=tuple([None] * (n + 1)),
            )
        )
        assert outcome.status == "optimal"
        t_star = outcome.value
        x_cur = outcome.point[:n]
        newly = []
        for m in unfrozen:
            if v.value(m) - payoff_total(x_cur, m) != t_star:
                continue
            check = solve_lp(
                LinearProgram(
                    objective=indicator(m, n),
                    maximize=True,
                    eq_matrix=tuple(eq_rows),
                    eq_rhs=tuple(eq_rhs),
                    ub_matrix=tuple(ub_rows),
                    ub_rhs=tuple(b + t_star for b in ub_rhs),
                    lower_bounds=tuple([None] * n),
                )
            )
            assert check.status == "optimal"
            if check.value == v.value(m) - t_star:
                newly.append(m)
        assert newly
        for m in newly:
            frozen[m] = t_star
    raise AssertionError("sequential minimization failed to terminate")


def core_nonempty_tall(v):
    """Core non-emptiness as feasibility of the primal system: x(N) = v(N)
    and x(S) >= v(S) for every proper coalition, with a free payoff."""
    n = v.n
    proper = [m for m in all_coalitions(n) if m != v.grand]
    program = LinearProgram(
        objective=tuple([Fraction(0)] * n),
        eq_matrix=(tuple([Fraction(1)] * n),),
        eq_rhs=(v.value(v.grand),),
        ub_matrix=tuple(tuple(-c for c in indicator(m, n)) for m in proper),
        ub_rhs=tuple(-v.value(m) for m in proper),
        lower_bounds=tuple([None] * n),
    )
    return solve_lp(program).status == "optimal"


def solve_lp_tableau(program):
    """Two-phase Bland-rule simplex on a tableau of Fractions.

    The solver ``solve_lp`` replaced: one artificial per row (rows with a
    negative right-hand side negated), reduced costs recomputed over every
    column each iteration, ties in the ratio test to the lowest basis
    index.  ``solve_lp`` must return the same (status, point, value)."""
    n = len(program.objective)
    sign = Fraction(-1 if program.maximize else 1)
    cost = [sign * c for c in program.objective]

    # Column layout after substitution: for each original variable either one
    # shifted column (finite lower bound) or a +/- pair (free).  Slacks follow.
    col_of: list[tuple[int, ...]] = []  # per original var: mapped column indices
    shifts: list[Fraction] = []
    ncols = 0
    for lb in program.lower_bounds:
        if lb is None:
            col_of.append((ncols, ncols + 1))
            shifts.append(Fraction(0))
            ncols += 2
        else:
            col_of.append((ncols,))
            shifts.append(lb)
            ncols += 1

    def expand(row: Sequence[Fraction]) -> tuple[list[Fraction], Fraction]:
        """Rewrite a constraint row in the substituted columns; returns the
        row and the rhs correction from lower-bound shifts."""
        out = [Fraction(0)] * ncols
        corr = Fraction(0)
        for i, coeff in enumerate(row):
            if coeff == 0:
                continue
            cols = col_of[i]
            out[cols[0]] += coeff
            if len(cols) == 2:
                out[cols[1]] -= coeff
            corr += coeff * shifts[i]
        return out, corr

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for row, b in zip(program.eq_matrix, program.eq_rhs):
        r, corr = expand(row)
        rows.append(r)
        rhs.append(Fraction(b) - corr)
    n_slacks = len(program.ub_matrix)
    for k, (row, b) in enumerate(zip(program.ub_matrix, program.ub_rhs)):
        r, corr = expand(row)
        r.extend(Fraction(0) for _ in range(n_slacks))
        r[ncols + k] = Fraction(1)
        rows.append(r)
        rhs.append(Fraction(b) - corr)
    for r in rows[: len(program.eq_matrix)]:
        r.extend(Fraction(0) for _ in range(n_slacks))
    total = ncols + n_slacks

    obj = [Fraction(0)] * total
    for i, c in enumerate(cost):
        cols = col_of[i]
        obj[cols[0]] += c
        if len(cols) == 2:
            obj[cols[1]] -= c

    for r, b in zip(rows, rhs):
        if b < 0:
            for j in range(total):
                r[j] = -r[j]
    rhs = [abs(b) if b < 0 else b for b in rhs]

    m = len(rows)
    # phase 1 tableau: one artificial per row
    tab = []
    for i, (r, b) in enumerate(zip(rows, rhs)):
        row = r + [Fraction(0)] * m + [b]
        row[total + i] = Fraction(1)
        tab.append(row)
    basis = [total + i for i in range(m)]

    # pivot and run_simplex read tab, m and basis from this scope, so they
    # serve phase 2 as well after phase 1 drops redundant rows
    def pivot(rowi: int, colj: int):
        piv = tab[rowi][colj]
        tab[rowi] = [v / piv for v in tab[rowi]]
        prow = tab[rowi]
        for k in range(m):
            if k != rowi and tab[k][colj] != 0:
                f = tab[k][colj]
                tab[k] = [a - f * b for a, b in zip(tab[k], prow)]
        basis[rowi] = colj

    def run_simplex(cost: list[Fraction]) -> bool:
        """Bland-rule iterations minimizing cost over its columns; returns
        False on unbounded."""
        while True:
            # reduced cost r_j = c_j - sum_i c_basis[i] * tab[i][j]
            cb = [cost[b] for b in basis]
            red = []
            for j in range(len(cost)):
                s = cost[j]
                for i in range(m):
                    if cb[i] != 0 and tab[i][j] != 0:
                        s -= cb[i] * tab[i][j]
                red.append(s)
            enter = next((j for j, r in enumerate(red) if r < 0), -1)
            if enter < 0:
                return True
            leave = -1
            best = None
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return False
            pivot(leave, enter)

    # phase 1: min sum(artificials)
    phase_cost = [Fraction(0)] * total + [Fraction(1)] * m
    if not run_simplex(phase_cost):
        raise AssertionError("phase-1 objective cannot be unbounded")
    p1 = sum((phase_cost[basis[i]] * tab[i][-1] for i in range(m)), Fraction(0))
    if p1 != 0:
        return LpOutcome(status="infeasible")

    # drive artificials out of the basis; drop rows that are redundant
    for i in range(m):
        if basis[i] >= total:
            col = next((j for j in range(total) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    live = [i for i in range(m) if basis[i] < total]
    if len(live) < m:
        tab = [tab[i] for i in live]
        basis = [basis[i] for i in live]
        m = len(tab)
    tab = [row[:total] + [row[-1]] for row in tab]

    # phase 2
    if not run_simplex(obj):
        return LpOutcome(status="unbounded")

    solution = [Fraction(0)] * total
    for i in range(m):
        solution[basis[i]] = tab[i][-1]
    point = []
    for i in range(n):
        cols = col_of[i]
        val = solution[cols[0]]
        if len(cols) == 2:
            val -= solution[cols[1]]
        point.append(val + shifts[i])
    value = sum((c * x for c, x in zip(cost, point)), Fraction(0))
    if program.maximize:
        value = -value
    return LpOutcome(status="optimal", point=tuple(point), value=value)
