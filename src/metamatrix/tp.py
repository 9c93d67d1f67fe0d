"""Exact total-positivity certification.

A matrix is totally positive when every minor of every size is strictly
positive.  Two certifiers are provided: the definitional all-minors scan,
and the Fekete criterion (positivity of the minors on consecutive row and
column windows implies strict total positivity).  Both run one scan,
`_scan`, over minors that one generator, `_minors`, condenses on their own
index sets.  The scan works in exact integers, on the rows scaled by the lcm
of their denominators, and stops at the first minor <= 0, which it
evaluates again by Bareiss elimination.  When the scaled rows are symmetric,
a minor is checked once and its transpose counts as checked too.  The scan
is the evidence that the type-B tables are totally positive; their `typeb`
factorization proves them only positive definite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations
from typing import NamedTuple

ALL_MINORS_SIZE_CAP = 12


class MinorWitness(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    minor: Fraction


class TPCertificate(NamedTuple):
    """How many minors a scan checked, and the first one <= 0 (None when the
    matrix is totally positive).  On a matrix whose scaled rows are
    symmetric, a minor read off its transpose counts as checked."""

    minors_checked: int
    witness: MinorWitness | None

    @property
    def is_totally_positive(self) -> bool:
        return self.witness is None


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


def scaled_digits(row) -> list[int]:
    """The decimal digits of each entry of `row` as `_integer_rows` scales it,
    from bit lengths, at most two too many, without building any of them."""
    scale_bits = math.lcm(*(x.denominator for x in row)).bit_length()
    return [(x.numerator.bit_length() + scale_bits + 1 - x.denominator.bit_length()
             if x else 0) * 30103 // 100_000 + 1 for x in row]


def scan_work(digits: list[list[int]], all_minors: bool) -> int:
    """The modelled work of a scan, from each row's `scaled_digits`: with w_i
    the most digits in row i, a minor on rows R costs (sum of w_i over R)^2, as
    long division is quadratic, once per column set of its size, for R every
    subset (all minors) or every window (Fekete, by prefix sums in O(n^2))."""
    widths = [max(row) for row in digits]
    n, prefix = len(widths), [0, *accumulate(widths)]
    work = 0
    for k in range(1, n + 1):
        sums = ([sum(widths[i] for i in s) for s in combinations(range(n), k)] if all_minors
                else [prefix[i + k] - prefix[i] for i in range(n - k + 1)])
        work += len(sums) * sum(x * x for x in sums)
    return work


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
        gk = grid[k]
        pivot = gk[k]
        for i in range(k + 1, n):  # column k below the pivot is never read again
            gi = grid[i]
            gik = gi[k]
            for j in range(k + 1, n):
                gi[j] = (gi[j] * pivot - gik * gk[j]) // prev
        prev = pivot
    return sign * grid[-1][-1]


def _scan(a, index_sets) -> TPCertificate:
    """Count the minors of the square matrix `a` that `_minors` yields over
    `index_sets`, on its integer-scaled rows, up to the first one <= 0.
    That one is evaluated again by Bareiss elimination, and a mismatch
    raises AssertionError; it is reported at its unscaled value."""
    grid, scales = _integer_rows(a)
    checked = 0
    for rows, cols, value in _minors(grid, index_sets):
        checked += 1
        if value <= 0:
            again = _bareiss_int([[grid[i][j] for j in cols] for i in rows])
            if again != value:
                raise AssertionError(
                    f"minor {rows}x{cols} is {value} by the scan, {again} by Bareiss"
                )
            scale = math.prod(scales[i] for i in rows)
            return TPCertificate(checked, MinorWitness(rows, cols, Fraction(value, scale)))
    return TPCertificate(checked, None)


def _minors(grid: list[list[int]], index_sets):
    """Yield ``(rows, cols, det)`` for the minors of a square integer matrix
    of size n on the index sets ``index_sets(range(n), k)``, for k = 1..n,
    over the row sets and then the column sets.  The sets of each size come
    in lexicographic order, those of size 1 are (0,), ..., (n-1,), and each
    set one size up without its first or its last index is among them.

    Minors come from Desnanot-Jacobi condensation: with det(empty) = 1,
    det(R, C) = (det(R - r_1, C - c_1) det(R - r_k, C - c_k)
                 - det(R - r_1, C - c_k) det(R - r_k, C - c_1))
                / det(R - {r_1, r_k}, C - {c_1, c_k}).
    The divisor is a minor two sizes down, so the consumer must stop at the
    first value <= 0; every divisor is then positive, and a remainder raises
    AssertionError.  Each size is a list of rows, by the rank of the row
    set, of minors, by the rank of the column set.  Two sizes down, only the
    rows some row set divides by are kept, those without 0 or n - 1, each up
    to its last such set, which is (m_1 - 1, *m, n - 1) for middle m.  On a
    symmetric grid, a minor below the diagonal is read off its transpose.
    """
    n = len(grid)
    symmetric = all(grid[i][j] == grid[j][i] for i in range(n) for j in range(i))
    older, older_rank = [[1]], {(): 0}
    prev, prev_rank = grid, {(i,): i for i in range(n)}
    for i, row in enumerate(grid):
        for j, value in enumerate(row):
            yield (i,), (j,), value
    for k in range(2, n + 1):
        sets = list(index_sets(range(n), k))
        # per set: the ranks of it without its first index, its last, and both
        drops = [(prev_rank[s[1:]], prev_rank[s[:-1]], older_rank[s[1:-1]]) for s in sets]
        level = []
        for r, (rows, (tail, head, inner)) in enumerate(zip(sets, drops)):
            tail_row, head_row, inner_row = prev[tail], prev[head], older[inner]
            row = [level[c][r] for c in range(r)] if symmetric else []
            yield from ((rows, cols, value) for cols, value in zip(sets, row))
            for cols, (t, h, i) in zip(sets[len(row):], drops[len(row):]):
                value, rem = divmod(tail_row[t] * head_row[h] - tail_row[h] * head_row[t],
                                    inner_row[i])
                if rem:
                    raise AssertionError(f"inexact condensation at minor {rows}x{cols}")
                yield rows, cols, value
                row.append(value)
            level.append(row)
            if rows[-1] == n - 1 and rows[1] == rows[0] + 1:
                older[inner] = None
        older = [row if 0 < s[0] and s[-1] < n - 1 else None for s, row in zip(prev_rank, prev)]
        older_rank, prev, prev_rank = prev_rank, level, {s: r for r, s in enumerate(sets)}


def all_minors_positive(a) -> TPCertificate:
    """Definitional check: every minor of every size of the square matrix
    `a`, in lexicographic order."""
    if len(a) > ALL_MINORS_SIZE_CAP:
        raise ValueError(
            f"all-minors check capped at size {ALL_MINORS_SIZE_CAP}; use fekete_check"
        )
    return _scan(a, combinations)


def _windows(indices: range, k: int) -> list[tuple[int, ...]]:
    """The runs of k consecutive indices, by first index."""
    return [tuple(indices[i : i + k]) for i in range(len(indices) - k + 1)]


def fekete_check(a) -> TPCertificate:
    """Fekete criterion: the minors on consecutive rows and consecutive
    columns of the square matrix `a`.  A totally-positive verdict here
    implies the all-minors verdict."""
    return _scan(a, _windows)
