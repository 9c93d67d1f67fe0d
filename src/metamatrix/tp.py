"""Exact total-positivity certification.

A matrix is totally positive when every minor of every size is strictly
positive.  Two certifiers are provided: the definitional all-minors scan,
which gets the minors of each size from those one size down by Laplace
expansion, and the Fekete criterion (positivity of all minors on consecutive
row and column windows implies strict total positivity), which gets those
minors level by level by integer condensation.  Both work in exact integers
on the rows scaled by the lcm of their denominators, and report a witness at
its unscaled value; the all-minors witness is re-evaluated by Bareiss
elimination before it is reported.  The structural reason the type-B tables
are totally positive, their factorization, is in `typeb`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .exactlinear import _bareiss_int, _integer_rows

ALL_MINORS_SIZE_CAP = 12


class MinorWitness(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    minor: Fraction


class TPCertificate(NamedTuple):
    """How many minors a scan checked, and the first one <= 0 (None when the
    matrix is totally positive)."""

    minors_checked: int
    witness: MinorWitness | None

    @property
    def is_totally_positive(self) -> bool:
        return self.witness is None


def _all_minors(grid: list[list[int]]):
    """Yield ``(rows, cols, det)`` for every minor of a square integer
    matrix, in the order size, then rows, then cols, each lexicographic.

    The minors of size k come from those of size k - 1 by Laplace expansion
    along the first chosen row:
    det(rows, cols) = sum_t (-1)^t grid[rows[0]][cols[t]]
                      * det(rows[1:], cols without cols[t]).
    Only two sizes are kept, each as a list of rows indexed by the rank of
    the row combination, holding the minors indexed by the rank of the
    column combination.
    """
    n = len(grid)
    for i in range(n):
        for j in range(n):
            yield (i,), (j,), grid[i][j]
    prev = grid
    prev_rank = {(i,): i for i in range(n)}
    for k in range(2, n + 1):
        combos = list(combinations(range(n), k))
        # per column combination, the terms (t, rank of cols without cols[t]);
        # an odd t reads the negated half of the signed row below
        terms = [
            [(cols[t] + n * (t % 2), prev_rank[cols[:t] + cols[t + 1 :]]) for t in range(k)]
            for cols in combos
        ]
        level = []
        for rows in combos:
            first = grid[rows[0]]
            signed = first + [-x for x in first]
            below = prev[prev_rank[rows[1:]]]
            minors = []
            for cols, expansion in zip(combos, terms):
                value = 0
                for j, s in expansion:
                    value += signed[j] * below[s]
                yield rows, cols, value
                minors.append(value)
            level.append(minors)
        prev = level
        prev_rank = {combo: r for r, combo in enumerate(combos)}


def all_minors_positive(a) -> TPCertificate:
    """Definitional check: every minor of every size, in lexicographic order,
    on the integer-scaled rows of the square matrix `a`.  The first minor
    <= 0 is evaluated again by Bareiss elimination before it is reported."""
    grid, scales = _integer_rows(a)
    if len(grid) > ALL_MINORS_SIZE_CAP:
        raise ValueError(
            f"all-minors check capped at size {ALL_MINORS_SIZE_CAP}; use fekete_check"
        )
    checked = 0
    for rows, cols, value in _all_minors(grid):
        checked += 1
        if value <= 0:
            again = _bareiss_int([[grid[i][j] for j in cols] for i in rows])
            if again != value:
                raise AssertionError(
                    f"minor {rows}x{cols} is {value} by expansion, {again} by Bareiss"
                )
            scale = math.prod(scales[i] for i in rows)
            return TPCertificate(checked, MinorWitness(rows, cols, Fraction(value, scale)))
    return TPCertificate(checked, None)


def _solid_minors(grid: list[list[int]]):
    """Yield ``(k, i, j, det)`` for every k x k window starting at row i and
    column j of an integer matrix, in the order k, then i, then j.

    Minors come from Desnanot-Jacobi condensation: with M_0 = 1 and M_1 the
    matrix itself,
    M_k(i,j) = (M_{k-1}(i,j) M_{k-1}(i+1,j+1) - M_{k-1}(i,j+1) M_{k-1}(i+1,j))
               / M_{k-2}(i+1,j+1).
    The divisor is a window two sizes down, so the consumer must stop at the
    first value <= 0; every divisor is then positive and the division exact.
    """
    n = len(grid)
    for i in range(n):
        for j in range(n):
            yield 1, i, j, grid[i][j]
    older, prev = [[1] * n] * n, grid
    for k in range(2, n + 1):
        level = []
        for i in range(n - k + 1):
            top, bottom, below = prev[i], prev[i + 1], older[i + 1]
            row = []
            for j in range(n - k + 1):
                value, rem = divmod(
                    top[j] * bottom[j + 1] - top[j + 1] * bottom[j], below[j + 1]
                )
                if rem:
                    raise AssertionError(
                        f"inexact condensation at size {k}, window ({i}, {j})"
                    )
                yield k, i, j, value
                row.append(value)
            level.append(row)
        older, prev = prev, level


def fekete_check(a) -> TPCertificate:
    """Fekete criterion: minors on consecutive rows and consecutive columns of
    the square matrix `a`, given as rows.

    A totally-positive verdict here implies the all-minors verdict.  Rational
    rows are first scaled to integers, which keeps every minor's sign; a
    witness is reported at the unscaled value.
    """
    grid, scales = _integer_rows(a)
    checked = 0
    for k, i, j, value in _solid_minors(grid):
        checked += 1
        if value <= 0:
            witness = MinorWitness(
                tuple(range(i, i + k)),
                tuple(range(j, j + k)),
                Fraction(value, math.prod(scales[i : i + k])),
            )
            return TPCertificate(checked, witness)
    return TPCertificate(checked, None)
