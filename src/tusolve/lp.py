"""Exact rational linear programming via two-phase tableau simplex.

Bland's rule is always on: the balancedness and sequential minimization
problems this solver feeds are highly degenerate, and exact arithmetic makes
degeneracy harmless only once cycling is excluded.  Free variables are
split into differences of nonnegative parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

Status = Literal["optimal", "infeasible", "unbounded"]


def _rows(mat: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in mat]


@dataclass(frozen=True)
class LinearProgram:
    """min (or max) c.x subject to eq_matrix x = eq_rhs, ub_matrix x <= ub_rhs,
    and x_i >= lower_bounds[i] (None means free)."""

    objective: tuple[Fraction, ...]
    maximize: bool = False
    eq_matrix: tuple[tuple[Fraction, ...], ...] = ()
    eq_rhs: tuple[Fraction, ...] = ()
    ub_matrix: tuple[tuple[Fraction, ...], ...] = ()
    ub_rhs: tuple[Fraction, ...] = ()
    lower_bounds: Optional[tuple[Optional[Fraction], ...]] = None

    def __post_init__(self):
        n = len(self.objective)
        object.__setattr__(self, "objective", tuple([Fraction(c) for c in self.objective]))
        object.__setattr__(self, "eq_matrix", tuple([tuple([Fraction(v) for v in r]) for r in self.eq_matrix]))
        object.__setattr__(self, "eq_rhs", tuple([Fraction(v) for v in self.eq_rhs]))
        object.__setattr__(self, "ub_matrix", tuple([tuple([Fraction(v) for v in r]) for r in self.ub_matrix]))
        object.__setattr__(self, "ub_rhs", tuple([Fraction(v) for v in self.ub_rhs]))
        lb = self.lower_bounds
        if lb is None:
            lb = tuple([Fraction(0)] * n)
        else:
            lb = tuple(None if b is None else Fraction(b) for b in lb)
        object.__setattr__(self, "lower_bounds", lb)
        if len(self.eq_matrix) != len(self.eq_rhs) or len(self.ub_matrix) != len(self.ub_rhs):
            raise ValueError("constraint matrix / rhs length mismatch")
        for row in list(self.eq_matrix) + list(self.ub_matrix):
            if len(row) != n:
                raise ValueError("constraint row width mismatch")
        if len(lb) != n:
            raise ValueError("lower_bounds length mismatch")


@dataclass(frozen=True)
class LpOutcome:
    status: Status
    point: Optional[tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None


def solve_lp(program: LinearProgram) -> LpOutcome:
    """Exact optimum of the program; infeasible/unbounded are statuses."""
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
        raise RuntimeError("phase-1 objective cannot be unbounded")
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
