"""Shared test utilities: seeded game generators and independent
brute-force oracles that the solver results are checked against."""

from fractions import Fraction
from itertools import combinations

from tusolve import TuGame, game_from_unanimity
from tusolve.coalitions import all_coalitions, coalition_of, contains, grand_coalition, lex_key
from tusolve.game import as_payoff, extend_payoff, payoff_total
from tusolve.linalg import Matrix, rref, solve_linear
from tusolve.lp import LinearProgram, solve_lp

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
    on a selection-class boundary.
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
        mat = Matrix.from_rows([rows[i] for i in subset])
        if rref(mat)[1] < n:
            continue
        sol = solve_linear(mat, [rhs[i] for i in subset])
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
    cols = [[Fraction(int(contains(m, p))) for p in range(1, n + 1)] for m in masks]
    target = [Fraction(1)] * n
    k = len(masks)
    vertices = []
    for size in range(1, min(n, k) + 1):
        for subset in combinations(range(k), size):
            mat = Matrix.from_columns([cols[i] for i in subset])
            if rref(mat)[1] < size:
                continue
            sol = solve_linear(mat, target)
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
