"""Exact determinants of matrices of ints and ``fractions.Fraction``, for
the tests and the benchmark: `bareiss_det` of a `Matrix`, which holds the
rows it is built from, on the integer Bareiss elimination of `tp`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .tp import _bareiss_int, _integer_rows


class Matrix:
    """A matrix as its rows of ints or Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[list[int | Fraction]]):
        self.rows = rows

    @classmethod
    def from_rows(cls, grid: list[list[int | Fraction]]) -> "Matrix":
        return cls(grid)


def bareiss_det(a: Matrix) -> Fraction:
    """Exact determinant by Bareiss elimination on the integer-scaled rows,
    divided by the product of the row scales."""
    grid, scales = _integer_rows(a.rows)
    return Fraction(_bareiss_int(grid), math.prod(scales))
