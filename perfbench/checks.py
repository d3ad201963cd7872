"""Output checks written from the definitions, sharing no code with tusolve.

Games are dicts from sorted player tuples to ``Fraction`` worths (see
``inputs.py``); game files written by the program are read with ``json``
here.  Exact arithmetic decides every equality.  Balancedness and core
non-emptiness use scipy's HiGHS LP in floating point on exactly computed
collections and worths; their optima sit far from the decision thresholds
for the small player counts used here.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from inputs import Game, bitmask_order, coalitions, read_game

LP_EPS = 1e-9


def excesses(game: Game, x) -> dict:
    return {s: w - sum(x[p - 1] for p in s) for s, w in game.items()}


def is_prekernel(game: Game, n: int, x) -> bool:
    """Efficiency and s_ij(x) = s_ji(x) for every pair of players."""
    grand = tuple(range(1, n + 1))
    if len(x) != n or sum(x) != game[grand]:
        return False
    exc = excesses(game, x)
    for i, j in combinations(range(1, n + 1), 2):
        s_ij = max(e for s, e in exc.items() if i in s and j not in s)
        s_ji = max(e for s, e in exc.items() if j in s and i not in s)
        if s_ij != s_ji:
            return False
    return True


def is_balanced(collection, n: int) -> bool:
    """Positive weights w with sum_S w_S 1_S = 1_N exist: max t subject to
    w_S >= t is positive."""
    m = len(collection)
    a_eq = np.zeros((n, m + 1))
    for k, s in enumerate(collection):
        for p in s:
            a_eq[p - 1, k] = 1.0
    a_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    cost = np.zeros(m + 1)
    cost[-1] = -1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=np.ones(n),
                  bounds=[(0, None)] * m + [(None, 1)], method="highs")
    return res.status == 0 and -res.fun > LP_EPS


def is_prenucleolus(game: Game, n: int, x) -> bool:
    """Kohlberg (1971): x is efficient and every non-empty collection
    D(a) = {S proper: e(S, x) >= a} is balanced."""
    grand = tuple(range(1, n + 1))
    if len(x) != n or sum(x) != game[grand]:
        return False
    exc = excesses(game, x)
    del exc[grand]
    for level in sorted(set(exc.values()), reverse=True):
        if not is_balanced([s for s, e in exc.items() if e >= level], n):
            return False
    return True


def exact_rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def worth(game: Game, s) -> Fraction:
    return game[tuple(sorted(s))] if s else Fraction(0)


def properties(game: Game, n: int) -> dict:
    """The six game-class predicates of the ``props`` report, by definition."""
    players = set(range(1, n + 1))
    subsets = [frozenset()] + [frozenset(s) for s in coalitions(n)]
    v = {s: worth(game, s) for s in subsets}
    convex = all(v[s | t] + v[s & t] >= v[s] + v[t] for s in subsets for t in subsets)
    superadditive = all(v[s | t] >= v[s] + v[t] for s in subsets for t in subsets if not s & t)
    zero_monotonic = all(v[s | {i}] >= v[s] + v[frozenset({i})]
                         for s in subsets for i in players - s)

    def marginal_sum(s, t):
        return sum(v[t] - v[t - {i}] for i in s)

    average_convex = all(marginal_sum(s, s) <= marginal_sum(s, t)
                         for t in subsets for s in subsets if s <= t)
    full = frozenset(players)
    b = {i: v[full] - v[full - {i}] for i in players}
    gap = {s: sum(b[i] for i in s) - v[s] for s in subsets if s}
    semiconvex = all(g >= 0 for g in gap.values()) and all(
        gap[frozenset({i})] <= g for s, g in gap.items() for i in s)
    return {
        "convex": convex,
        "average_convex": average_convex,
        "zero_monotonic": zero_monotonic,
        "superadditive": superadditive,
        "semiconvex": semiconvex,
        "core_nonempty": core_nonempty(game, n),
    }


def core_nonempty(game: Game, n: int) -> bool:
    """min sum_i x_i subject to x(S) >= v(S) for proper S is at most v(N)."""
    proper = [s for s in game if len(s) < n]
    a_ub = np.zeros((len(proper), n))
    for k, s in enumerate(proper):
        for p in s:
            a_ub[k, p - 1] = -1.0
    b_ub = np.array([-float(game[s]) for s in proper])
    res = linprog(np.ones(n), A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n, method="highs")
    if res.status != 0:
        raise ValueError(f"core LP ended with status {res.status}")
    vn = float(game[tuple(range(1, n + 1))])
    if abs(res.fun - vn) <= LP_EPS * max(1.0, abs(vn)):
        raise ValueError("core LP optimum too close to v(N) to decide in floating point")
    return res.fun < vn


def subset_sum(n: int, coords: dict) -> Game:
    """Game with unanimity coordinates ``coords``: v(S) = sum_{T <= S} c_T."""
    return {s: sum(c for t, c in coords.items() if set(t) <= set(s)) for s in coalitions(n)}


def key_of(s) -> str:
    return ",".join(str(p) for p in s)


def family_problems(base: Game, n: int, out: dict) -> list[str]:
    """Every disagreement between one family operation and the paper's claims.

    ``out`` holds the family directory, the exit codes and reports of
    replicate, props (one per generated game), combine and segment, and
    the combine weights and segment grid the benchmark passed.
    """
    problems = []
    if any(code != 0 for code in out["codes"]):
        return [f"exit codes {out['codes']}"]
    folder = Path(out["dir"])
    manifest = json.loads((folder / "manifest.json").read_text())
    x = tuple(Fraction(p) for p in manifest["point"])
    if read_game(folder / manifest["base"]) != (n, base):
        problems.append("base.json differs from the input game")
    if not is_prekernel(base, n, x):
        problems.append("point is not a pre-kernel point of the base game")
    if not is_prenucleolus(base, n, x):
        problems.append("point fails Kohlberg's criterion on the base game")
    if [Fraction(p) for p in out["replicate"]["point"]] != list(x):
        problems.append("replicate report and manifest disagree on the point")

    games = []
    mu = Fraction(manifest["mu"])
    for k, entry in enumerate(manifest["games"]):
        _, game = read_game(folder / entry["file"])
        games.append(game)
        scale = Fraction(entry["mu"])
        halved = scale
        while 0 < halved < mu:
            halved *= 2
        if halved != mu:
            problems.append(f"game {k}: scale {scale} is not mu halved")
        delta = dict(zip(bitmask_order(n), (Fraction(d) for d in entry["delta"])))
        shift = subset_sum(n, delta)
        if any(game[s] != base[s] + scale * shift[s] for s in game):
            problems.append(f"game {k}: worths differ from base + mu * (subset sums of delta)")
        if not is_prekernel(game, n, x):
            problems.append(f"game {k}: point is not a pre-kernel point")
        if not is_prenucleolus(game, n, x):
            problems.append(f"game {k}: point fails Kohlberg's criterion")
        props = out["props"][k]
        expected = properties(game, n)
        for name, value in expected.items():
            if props.get(name) != value:
                problems.append(f"game {k}: props {name} is {props.get(name)}, definition gives {value}")
    if out["replicate"]["family_size"] != len(games) or not games:
        problems.append("family size disagrees with the manifest")
    elif exact_rank([[g[s] for s in coalitions(n)] for g in games]) != len(games):
        problems.append("generated games are linearly dependent")

    members = games + [base]
    weights = out["weights"]
    combined = {s: sum(w * g[s] for w, g in zip(weights, members)) for s in coalitions(n)}
    reported = {key: Fraction(text) for key, text in out["combine"]["game"].items()}
    if reported != {key_of(s): w for s, w in combined.items()}:
        problems.append("combine game differs from the weighted sum")
    if out["combine"]["is_prekernel"] is not True or not is_prekernel(combined, n, x):
        problems.append("combined game lost the pre-kernel point")

    seg = out["segment"]
    a, b = out["pair"]
    epsilons = [Fraction(e) for e in seg["epsilons"]]
    if seg["samples"] != out["grid"] or len(epsilons) != out["grid"]:
        problems.append(f"segment returned {seg['samples']} samples, asked for {out['grid']}")
    uniform = Fraction(1, len(members))
    for eps in epsilons:
        w = [uniform] * len(members)
        w[a] += eps
        w[b] -= eps
        sample = {s: sum(wk * g[s] for wk, g in zip(w, members)) for s in coalitions(n)}
        if not is_prekernel(sample, n, x):
            problems.append(f"segment game at epsilon {eps} lost the pre-kernel point")
    if seg["all_prekernel"] is not True:
        problems.append("segment does not report all_prekernel")
    return problems
