"""Exact dense rational linear algebra.

Small immutable matrices over ``fractions.Fraction`` with reduced row
echelon form, rank, null-space bases, linear solves, and the Moore-Penrose
pseudo-inverse.  Forward elimination is fraction-free (Bareiss) on
denominator-cleared rows; normalization to echelon form happens at the end,
which keeps intermediate numerators and denominators small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _frac_row(row: Iterable) -> Vector:
    # tuple() of a list allocates the exact size; of a generator it resizes
    # a guessed block, and the freed tuples pile up on CPython's free list of
    # the final size, up to 2,000 a size, which adds to the peak memory of
    # long runs.  The hot tuple builders here, in lp.py and coalitions.py
    # take a list for that reason.
    return tuple([v if isinstance(v, Fraction) else Fraction(v) for v in row])


@dataclass(frozen=True)
class Matrix:
    rows: tuple[Vector, ...]

    def __post_init__(self):
        rows = tuple([_frac_row(r) for r in self.rows])
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Matrix":
        return cls(tuple([tuple(r) for r in rows]))

    @classmethod
    def from_columns(cls, cols: Iterable[Iterable]) -> "Matrix":
        cols = [list(c) for c in cols]
        return cls.from_rows(zip(*cols)) if cols else cls(())

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls.from_rows([[Fraction(0)] * ncols for _ in range(nrows)])

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(zip(*self.rows)) if self.rows else Matrix(())

    def column(self, j: int) -> Vector:
        return tuple([r[j] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        cols = other.transpose().rows
        return Matrix.from_rows(
            [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in self.rows]
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix.from_rows(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix.from_rows(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix.from_rows([[c * a for a in r] for r in self.rows])

    def apply(self, x: Sequence) -> Vector:
        """Matrix-vector product."""
        x = _frac_row(x)
        if len(x) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple([sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in self.rows])

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.rows for a in r)


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form, rank, and pivot column indices."""
    nr, nc = m.nrows, m.ncols
    if nr == 0 or nc == 0:
        return m, 0, []
    # clear denominators per row, then fraction-free forward elimination
    work: list[list[Fraction]] = []
    for row in m.rows:
        mult = lcm(*[v.denominator for v in row]) if row else 1
        work.append([v * mult for v in row])
    piv_cols: list[int] = []
    prev = Fraction(1)
    r = 0
    for c in range(nc):
        piv = None
        for k in range(r, nr):
            if work[k][c] != 0:
                piv = k
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pivot = work[r][c]
        for k in range(r + 1, nr):
            factor = work[k][c]
            if factor == 0:
                continue
            rowk = work[k]
            rowr = work[r]
            for j in range(c, nc):
                rowk[j] = (pivot * rowk[j] - factor * rowr[j]) / prev
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    rank = r
    # normalize pivots to 1 and eliminate upward
    for k in range(rank):
        c = piv_cols[k]
        pivot = work[k][c]
        work[k] = [v / pivot for v in work[k]]
    for k in range(rank - 1, -1, -1):
        c = piv_cols[k]
        for up in range(k):
            factor = work[up][c]
            if factor == 0:
                continue
            work[up] = [a - factor * b for a, b in zip(work[up], work[k])]
    for k in range(rank, nr):
        work[k] = [Fraction(0)] * nc
    return Matrix.from_rows(work), rank, piv_cols


def rank(m: Matrix) -> int:
    return rref(m)[1]


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of {z | Mz = 0}; one vector per free column, free entry set to 1."""
    reduced, rk, piv_cols = rref(m)
    nc = m.ncols
    free_cols = [c for c in range(nc) if c not in piv_cols]
    basis: list[Vector] = []
    for f in free_cols:
        z = [Fraction(0)] * nc
        z[f] = Fraction(1)
        for k, c in enumerate(piv_cols):
            z[c] = -reduced.rows[k][f]
        basis.append(tuple(z))
    return basis


def _inverse(m: Matrix) -> Matrix:
    """Inverse of a square nonsingular matrix via rref on [M | I]."""
    n = m.nrows
    aug = Matrix.from_rows(
        [list(m.rows[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    )
    reduced, rk, piv_cols = rref(aug)
    if rk != n or piv_cols != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.from_rows([row[n:] for row in reduced.rows])


def pseudo_inverse(m: Matrix) -> Matrix:
    """Moore-Penrose pseudo-inverse via exact rank factorization.

    With M = C R (C = pivot columns of M, R = nonzero rows of rref(M)),
    the pseudo-inverse is R^T (R R^T)^-1 (C^T C)^-1 C^T; both inner
    matrices are nonsingular because C and R have full rank.
    """
    reduced, rk, piv_cols = rref(m)
    if rk == 0:
        return Matrix.zeros(m.ncols, m.nrows)
    c_mat = Matrix.from_columns([m.column(j) for j in piv_cols])
    r_mat = Matrix.from_rows(reduced.rows[:rk])
    ct = c_mat.transpose()
    rt = r_mat.transpose()
    middle = _inverse(r_mat @ rt) @ _inverse(ct @ c_mat)
    return rt @ middle @ ct


def solve_linear(a: Matrix, b: Sequence) -> Vector | None:
    """Minimum-norm solution of Ax = b, or None if inconsistent."""
    b = _frac_row(b)
    if len(b) != a.nrows:
        raise ValueError("rhs length mismatch")
    x = pseudo_inverse(a).apply(b)
    return x if a.apply(x) == b else None
