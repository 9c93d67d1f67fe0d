"""Exact determinants, on python ints and ``fractions.Fraction``.

Matrices are lists of rows everywhere in the package.  `Matrix` remains
only as the argument type of `bareiss_det`: it holds the rows it is built
from with `Matrix.from_rows`.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Matrix:
    """A matrix as its rows of ints or Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[list[int | Fraction]]):
        self.rows = rows

    @classmethod
    def from_rows(cls, grid: list[list[int | Fraction]]) -> "Matrix":
        return cls(grid)


def _integer_rows(a) -> tuple[list[list[int]], list[int]]:
    """The rows of the square matrix `a` (rows of ints or Fractions) scaled to
    integers, each by the lcm of its denominators, with those scales.  A
    k x k minor of the scaled matrix is the minor of `a` times the product of
    its rows' scales, so it has the same sign."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("square matrix required")
    scales = [math.lcm(*(x.denominator for x in row)) for row in a]
    grid = [
        [x.numerator * (scale // x.denominator) for x in row]
        for row, scale in zip(a, scales)
    ]
    return grid, scales


def _bareiss_int(grid: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (destructive)."""
    n = len(grid)
    if n == 0:
        return 1
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
    """Exact determinant by Bareiss elimination on the integer-scaled rows,
    divided by the product of the row scales."""
    grid, scales = _integer_rows(a.rows)
    return Fraction(_bareiss_int(grid), math.prod(scales))
