"""Exact rational linear programming: two-phase simplex on an integer tableau.

Bland's rule is always on: the balancedness and sequential minimization
problems this solver feeds are highly degenerate, and exact arithmetic makes
degeneracy harmless only once cycling is excluded.  Free variables are split
into differences of nonnegative parts, finite lower bounds are shifted to
zero, and each ``<=`` row gets a slack.

Pivoting is fraction-free (Edmonds 1967, as in Avis's lrs).  Row i of [A | b]
is scaled by lam_i, the lcm of its denominators, negated where b_i < 0, and
given an artificial entry of 1; phase 1 minimizes sum_i (L / lam_i) a_i, L
the lcm of the lam_i.  That is the rational phase-1 program with rows and
artificials rescaled by positive factors and the objective by L, so every
reduced cost keeps its sign and each ratio test compares the same ratios
times one positive factor: Bland's rule picks the pivots of the rational
tableau, and the same vertex comes out.  Each pivot divides exactly by the
previous one (Bareiss), so the tableau is D times the rational one, D > 0
the last pivot.  Fractions are built only for the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Literal, Optional, Sequence

from .errors import SolverError
from .linalg import _frac_row

Status = Literal["optimal", "infeasible", "unbounded"]


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
        object.__setattr__(self, "objective", _frac_row(self.objective))
        object.__setattr__(self, "eq_matrix", tuple([_frac_row(r) for r in self.eq_matrix]))
        object.__setattr__(self, "eq_rhs", _frac_row(self.eq_rhs))
        object.__setattr__(self, "ub_matrix", tuple([_frac_row(r) for r in self.ub_matrix]))
        object.__setattr__(self, "ub_rhs", _frac_row(self.ub_rhs))
        lb = self.lower_bounds
        if lb is None:
            lb = tuple([Fraction(0)] * n)
        else:
            lb = tuple([None if b is None else Fraction(b) for b in lb])
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


def _integer_row(row: Sequence[Fraction], scale: int) -> list[int]:
    """scale * row as integers; scale must clear every denominator."""
    return [v.numerator * (scale // v.denominator) for v in row]


def solve_lp(program: LinearProgram) -> LpOutcome:
    """Exact optimum of the program; infeasible/unbounded are statuses."""
    # Column layout after substitution: for each original variable either one
    # shifted column (finite lower bound) or a +/- pair (free).  Slacks follow.
    col_of: list[tuple[int, ...]] = []  # per original var: mapped column indices
    shifted: list[tuple[int, Fraction]] = []  # (original var, nonzero lower bound)
    ncols = 0
    for i, lb in enumerate(program.lower_bounds):
        if lb is None:
            col_of.append((ncols, ncols + 1))
            ncols += 2
        else:
            col_of.append((ncols,))
            if lb:
                shifted.append((i, lb))
            ncols += 1
    n_eq = len(program.eq_matrix)
    n_slacks = len(program.ub_matrix)
    total = ncols + n_slacks
    m = n_eq + n_slacks

    def place(coeffs: list[int], width: int) -> list[int]:
        """Integer coefficients of the original variables written into a row
        of the given width at their substituted columns."""
        out = [0] * width
        for k, cols in zip(coeffs, col_of):
            if k:
                out[cols[0]] = k
                if len(cols) == 2:
                    out[cols[1]] = -k
        return out

    tab: list[list[int]] = []  # substituted columns, slacks, artificials, rhs
    lams: list[int] = []
    rows = zip(program.eq_matrix + program.ub_matrix, program.eq_rhs + program.ub_rhs)
    for i, (row, b) in enumerate(rows):
        if shifted:
            b -= sum([row[k] * lb for k, lb in shifted])
        lam = lcm(*[v.denominator for v in row], b.denominator)
        if b < 0:
            lam = -lam
        r = place(_integer_row(row, lam), total + m + 1)
        if i >= n_eq:
            r[ncols + i - n_eq] = lam  # the slack
        r[total + i] = 1  # the artificial
        r[-1] = b.numerator * (lam // b.denominator)
        tab.append(r)
        lams.append(abs(lam))
    basis = [total + i for i in range(m)]
    det = 1  # the tableau is det times the rational one

    # pivot and run_simplex read tab, m, basis and det from this scope, so
    # they serve phase 2 as well after phase 1 drops redundant rows
    def pivot(rowi: int, colj: int):
        nonlocal det
        prow = tab[rowi]
        piv = prow[colj]
        if piv < 0:  # negating the pivot row keeps det positive
            prow = tab[rowi] = [-a for a in prow]
            piv = -piv
        for k in range(m):
            if k == rowi:
                continue
            row = tab[k]
            f = row[colj]
            if f:
                tab[k] = [(piv * a - f * b) // det for a, b in zip(row, prow)]
            elif piv != det:
                tab[k] = [piv * a // det for a in row]
        basis[rowi] = colj
        det = piv

    def run_simplex(cost: list[int]) -> bool:
        """Bland-rule iterations minimizing cost over its columns; returns
        False on unbounded."""
        while True:
            # det * reduced cost of column j: det * c_j - sum_i c_basis[i] * tab[i][j]
            priced = [(cost[b], tab[i]) for i, b in enumerate(basis) if cost[b]]
            enter = -1
            for j, c in enumerate(cost):
                s = det * c
                for cb, row in priced:
                    s -= cb * row[j]
                if s < 0:
                    enter = j
                    break
            if enter < 0:
                return True
            leave = -1
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    if leave >= 0:  # sign of tab[i][-1] / a - best ratio
                        d = tab[i][-1] * tab[leave][enter] - tab[leave][-1] * a
                    if leave < 0 or d < 0 or (d == 0 and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return False
            pivot(leave, enter)

    # phase 1: min sum(artificials), in units of the scaled artificials
    big = lcm(*lams)
    phase_cost = [0] * total + [big // lam for lam in lams]
    if not run_simplex(phase_cost):
        raise SolverError("phase-1 objective cannot be unbounded")
    if sum([phase_cost[basis[i]] * tab[i][-1] for i in range(m)]) != 0:
        return LpOutcome(status="infeasible")

    # drive artificials out of the basis; drop rows that are redundant
    for i in range(m):
        if basis[i] >= total:
            col = next((j for j in range(total) if tab[i][j] != 0), None)
            if col is not None:
                pivot(i, col)
    live = [i for i in range(m) if basis[i] < total]
    tab = [tab[i][:total] + [tab[i][-1]] for i in live]
    basis = [basis[i] for i in live]
    m = len(tab)

    # phase 2: minimize sign * objective, scaled to integers
    sign = -1 if program.maximize else 1
    scale = lcm(*[c.denominator for c in program.objective])
    obj = place([sign * k for k in _integer_row(program.objective, scale)], total)
    if not run_simplex(obj):
        return LpOutcome(status="unbounded")

    solution = [0] * total
    for b, row in zip(basis, tab):
        solution[b] = row[-1]
    point = []
    for cols in col_of:
        k = solution[cols[0]] - solution[cols[1]] if len(cols) == 2 else solution[cols[0]]
        point.append(Fraction(k, det))
    value = Fraction(sign * sum([obj[b] * row[-1] for b, row in zip(basis, tab)]), det * scale)
    for i, lb in shifted:
        point[i] += lb
        value += program.objective[i] * lb
    return LpOutcome(status="optimal", point=tuple(point), value=value)
