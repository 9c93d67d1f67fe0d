"""Exact integer/rational scalars and small dense matrices.

Everything here is exact: scalars are python ints or ``fractions.Fraction``,
determinants use fraction-free Bareiss elimination, and the binomial
convention extends to negative tops via the falling factorial so that
alternating-sum identities hold without special cases.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction


def gen_binom(t: int, k: int) -> int:
    """Generalized binomial t*(t-1)*...*(t-k+1)/k! for any integer top."""
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    if t >= 0:
        return math.comb(t, k)
    # negative top: (-1)^k * C(k - t - 1, k)
    return (-1) ** k * math.comb(k - t - 1, k)


class Matrix:
    """Immutable dense matrix over exact rationals, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Iterable[Scalar]):
        self.rows = rows
        self.cols = cols
        self._data = tuple(Fraction(x) for x in data)
        if len(self._data) != rows * cols:
            raise ValueError("data length does not match shape")

    @classmethod
    def from_rows(cls, grid: Sequence[Sequence[Scalar]]) -> "Matrix":
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        if any(len(r) != cols for r in grid):
            raise ValueError("ragged rows")
        return cls(rows, cols, [x for r in grid for x in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._data[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"Matrix({self.to_rows()!r})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other[k, j] for k in range(self.cols)))
        return Matrix(self.rows, other.cols, out)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(
            len(row_idx),
            len(col_idx),
            [self[i, j] for i in row_idx for j in col_idx],
        )

    def is_upper_triangular(self) -> bool:
        return all(self[i, j] == 0 for i in range(self.rows) for j in range(min(i, self.cols)))

    def is_diagonal(self) -> bool:
        return all(
            self[i, j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )


def _bareiss_int(grid: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (destructive)."""
    n = len(grid)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if grid[k][k] == 0:
            for r in range(k + 1, n):
                if grid[r][k] != 0:
                    grid[k], grid[r] = grid[r], grid[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = grid[k][k]
        for i in range(k + 1, n):
            gik = grid[i][k]
            gi = grid[i]
            gk = grid[k]
            for j in range(k + 1, n):
                gi[j] = (gi[j] * pivot - gik * gk[j]) // prev
            gi[k] = 0
        prev = pivot
    return sign * grid[-1][-1]


def bareiss_det(a: Matrix) -> Fraction:
    """Exact determinant via Bareiss elimination.

    Rational input is handled by clearing denominators column-wise first, so
    the elimination itself stays over the integers.
    """
    if not a.is_square:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    cols_scaled: list[list[int]] = []
    for j in range(n):
        d = math.lcm(*(a[i, j].denominator for i in range(n)))
        scale *= d
        cols_scaled.append([int(a[i, j] * d) for i in range(n)])
    grid = [[cols_scaled[j][i] for j in range(n)] for i in range(n)]
    return Fraction(_bareiss_int(grid)) / scale


def vandermonde_half_nodes(n: int) -> Matrix:
    """Vandermonde matrix at the half-integer nodes 1/2, 3/2, ..., n+1/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    nodes = [Fraction(2 * i + 1, 2) for i in range(n + 1)]
    return Matrix.from_rows([[x**j for j in range(n + 1)] for x in nodes])


def _inverse_pascal_apply(x: Sequence[Scalar]) -> list[Scalar]:
    """P^{-1} x, which is the forward differences (Delta^i x)_0, i = 0..len(x)-1,
    because (P^{-1})_ij = (-1)^(i-j) C(i, j)."""
    out = []
    x = list(x)
    while x:
        out.append(x[0])
        x = [b - a for a, b in zip(x, x[1:])]
    return out


def inverse_pascal_times(grid: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """P^{-1} * grid, as forward differences down each column."""
    columns = [_inverse_pascal_apply(col) for col in zip(*grid)]
    return [list(row) for row in zip(*columns)]


def conjugate_by_inverse_pascal(grid: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Compute T with L = P * T * P^t, i.e. T = P^{-1} * L * (P^{-1})^t, for a
    square L given as rows.

    P^{-1} is applied as forward differences, first down each column of L and
    then along each row, so integer input stays in python ints.
    """
    if any(len(row) != len(grid) for row in grid):
        raise ValueError("square matrix required")
    return [_inverse_pascal_apply(row) for row in inverse_pascal_times(grid)]
