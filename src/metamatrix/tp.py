"""Exact total-positivity certification and the triangular factorization of
the type-B tables.

A matrix is totally positive when every minor of every size is strictly
positive.  Two certifiers are provided: the definitional all-minors scan,
which gets the minors of each size from those one size down by Laplace
expansion, and the Fekete criterion (positivity of all minors on consecutive
row and column windows implies strict total positivity), which gets those
minors level by level by integer condensation.  Both work in exact integers
on the rows scaled by the lcm of their denominators, and report a witness at
its unscaled value; the all-minors witness is re-evaluated by Bareiss
elimination before it is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exactlinear import _bareiss_int, _integer_rows, inverse_pascal_times, vandermonde_half_nodes
from .typeb import scm_table

ALL_MINORS_SIZE_CAP = 12


@dataclass(frozen=True)
class MinorWitness:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    minor: Fraction


@dataclass(frozen=True)
class TPCertificate:
    verdict: str  # "totally-positive" | "not-totally-positive"
    method: str  # "all-minors" | "fekete"
    minors_checked: int
    witness: MinorWitness | None

    @property
    def is_totally_positive(self) -> bool:
        return self.verdict == "totally-positive"


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
            witness = MinorWitness(rows, cols, Fraction(value, scale))
            return TPCertificate("not-totally-positive", "all-minors", checked, witness)
    return TPCertificate("totally-positive", "all-minors", checked, None)


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
            return TPCertificate("not-totally-positive", "fekete", checked, witness)
    return TPCertificate("totally-positive", "fekete", checked, None)


def _half_node_diagonal(n: int) -> tuple[Fraction, ...]:
    """D_kk = 2^k e_{n-k}(1/2, 3/2, ..., n-1/2) / n!, the coefficient of s^k
    in C(s + n - 1/2, n) times 2^k.  With u_p = p + 1/2 and s = 2 u_p u_q,
    C(s + n - 1/2, n) = C(2pq + p + q + n, n) = L_pq, so L = V * D * V^t for
    the Vandermonde matrix V at the nodes u_p."""
    # C(s + n - 1/2, n) = sum_k c_k (2s)^k / (2^n n!), where the integers c_k
    # are the coefficients of prod_{i=1..n} (t + 2i - 1)
    coeffs = [1]
    for i in range(1, n + 1):
        coeffs = [(2 * i - 1) * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    scale = 2**n * math.factorial(n)
    return tuple(Fraction(c * 4**k, scale) for k, c in enumerate(coeffs))


def gauss_decomposition_typeb(n: int) -> tuple[list[list[Fraction]], tuple[Fraction, ...]]:
    """Factor the signed-contingency table as Q * D * Q^t with Q = P^{-1} * V
    upper triangular and D positive diagonal, both in closed form.  Returns
    Q as rows and the diagonal of D.

    Q is invertible (its diagonal is 0!, 1!, ..., n!), so the exact
    reconstruction Q * D * Q^t = T alone proves T congruent to the diagonal
    D.  Any failed structural check is a fatal defect and raises
    AssertionError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    q = inverse_pascal_times(vandermonde_half_nodes(n))
    diag = _half_node_diagonal(n)
    if any(q[i][j] != 0 for i in range(n + 1) for j in range(i)):
        raise AssertionError(f"type-B factorization: Q is not upper triangular (n={n})")
    if any(x <= 0 for x in diag):
        raise AssertionError(f"type-B factorization: D has a nonpositive entry (n={n})")
    # with Q upper triangular, (Q D Q^t)_ij = sum over k >= max(i, j) of Q_ik D_kk Q_jk
    table = scm_table(n)
    for i in range(n + 1):
        for j in range(n + 1):
            if sum(q[i][k] * diag[k] * q[j][k] for k in range(max(i, j), n + 1)) != table[i][j]:
                raise AssertionError(
                    f"type-B factorization: Q D Q^t differs from the table at ({i}, {j}) (n={n})"
                )
    return q, diag
