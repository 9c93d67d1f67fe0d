"""Exact determinants and the inverse-Pascal transform, on python ints and
``fractions.Fraction``.

Matrices are lists of rows everywhere in the package.  `Matrix` remains
only as the argument type of `bareiss_det`: it is built with
`Matrix.from_rows` and read by `bareiss_det`, and holds nothing else.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction


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

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._data[i * self.cols + j]


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
    if a.rows != a.cols:
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


def vandermonde_half_nodes(n: int) -> list[list[Fraction]]:
    """Vandermonde matrix at the half-integer nodes 1/2, 3/2, ..., n+1/2, as
    rows."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    nodes = [Fraction(2 * i + 1, 2) for i in range(n + 1)]
    return [[x**j for j in range(n + 1)] for x in nodes]


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
