"""The integer-tableau simplex against the Fraction tableau it replaced.

Both follow Bland's rule on the same rational tableau, so they must agree
exactly on (status, point, value): on general programs in every form
``LinearProgram`` accepts, and on the programs the library builds itself
(balancedness tests, dual pre-nucleolus rounds, Bondareva-Shapley LPs).
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import tusolve.game
from tusolve import LinearProgram, game_properties, is_balanced, kohlberg_criterion, prenucleolus, solve_lp

from helpers import random_convex_game, random_efficient_payoff, random_game, solve_lp_tableau

PRENUCLEOLUS_MODULE = sys.modules["tusolve.prenucleolus"]


def outcome(out):
    return (out.status, out.point, out.value)


def random_program(rng):
    """A small program with free, shifted and non-negative variables, ``=``
    and ``<=`` rows, sparse rational entries and often a zero objective, and
    whether a multiple of one equality row was added as another."""
    n = rng.randint(1, 5)

    def entry(span=6):
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-span, span), rng.randint(1, 4))

    eq = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 3))]
    eq_rhs = [entry() for _ in eq]
    doubled = bool(eq) and rng.random() < 0.25
    if doubled:
        k = rng.randrange(len(eq))
        c = Fraction(rng.choice([-3, -2, 2, 3]), rng.randint(1, 3))
        eq.append([c * a for a in eq[k]])
        eq_rhs.append(c * eq_rhs[k])
    ub = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 4))]
    ub_rhs = [entry(9) for _ in ub]
    # a zero objective returns the vertex phase 1 ends at
    objective = [entry() for _ in range(n)] if rng.random() < 0.75 else [0] * n
    program = LinearProgram(
        objective=tuple(objective),
        maximize=rng.random() < 0.5,
        eq_matrix=tuple(map(tuple, eq)),
        eq_rhs=tuple(eq_rhs),
        ub_matrix=tuple(map(tuple, ub)),
        ub_rhs=tuple(ub_rhs),
        lower_bounds=tuple(rng.choice([Fraction(0), None, entry()]) for _ in range(n)),
    )
    return program, doubled


def test_general_programs():
    rng = random.Random(7)
    statuses = Counter()
    doubled = shifted = free = 0
    for _ in range(3000):
        program, twice = random_program(rng)
        expected = solve_lp_tableau(program)
        assert outcome(solve_lp(program)) == outcome(expected)
        statuses[expected.status] += 1
        doubled += twice
        shifted += any(lb not in (None, 0) for lb in program.lower_bounds)
        free += None in program.lower_bounds
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 300
    assert min(shifted, free) >= 1000 and doubled >= 300


@pytest.fixture
def recorded(monkeypatch):
    """Every program the library hands to ``solve_lp``, with its outcome."""
    calls = []

    def record(program):
        out = solve_lp(program)
        calls.append((program, out))
        return out

    monkeypatch.setattr(PRENUCLEOLUS_MODULE, "solve_lp", record)
    monkeypatch.setattr(tusolve.game, "solve_lp", record)
    return calls


def seeded_games(rng):
    for n in (3, 4, 5):
        for _ in range(6):
            yield random_game(n, rng)
            yield random_convex_game(n, rng)


def test_library_programs(recorded):
    """Dual pre-nucleolus rounds, balancedness tests (Kohlberg's criterion at
    pre-nucleolus points, moved ones and random efficient payoffs, and
    random collections) and Bondareva-Shapley core LPs on seeded games."""
    rng = random.Random(11)
    sources = Counter()

    def counted(source, step, *args):
        before = len(recorded)
        result = step(*args)
        sources[source] += len(recorded) - before
        return result

    for v in seeded_games(rng):
        x = counted("dual", prenucleolus, v)
        moved = list(x)
        moved[0] += Fraction(1, 3)
        moved[-1] -= Fraction(1, 3)
        for payoff in (x, moved, random_efficient_payoff(v, rng)):
            counted("balanced", kohlberg_criterion, v, payoff)
        for _ in range(4):
            collection = rng.sample(range(1, 1 << v.n), rng.randint(2, v.n + 2))
            counted("balanced", is_balanced, collection, v.n)
        counted("core", game_properties, v)
    statuses = Counter()
    for program, out in recorded:
        assert outcome(solve_lp_tableau(program)) == outcome(out)
        statuses[out.status] += 1
    assert min(sources.values()) >= 36 and statuses["infeasible"] >= 10
