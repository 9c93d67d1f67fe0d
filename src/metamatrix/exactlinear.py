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

    def to_int_rows(self) -> list[list[int]]:
        if any(x.denominator != 1 for x in self._data):
            raise ValueError("matrix has non-integer entries")
        return [[int(x) for x in self.row(i)] for i in range(self.rows)]

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

    def is_lower_triangular(self) -> bool:
        return all(
            self[i, j] == 0 for i in range(self.rows) for j in range(i + 1, self.cols)
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


def pascal_matrix(n: int) -> Matrix:
    """(n+1)x(n+1) lower-triangular matrix of binomial coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Matrix.from_rows(
        [[gen_binom(i, j) for j in range(n + 1)] for i in range(n + 1)]
    )


def vandermonde_half_nodes(n: int) -> Matrix:
    """Vandermonde matrix at the half-integer nodes 1/2, 3/2, ..., n+1/2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    nodes = [Fraction(2 * i + 1, 2) for i in range(n + 1)]
    return Matrix.from_rows([[x**j for j in range(n + 1)] for x in nodes])


def invert_lower_triangular(p: Matrix) -> Matrix:
    """Exact inverse of a lower-triangular matrix by forward substitution."""
    if not p.is_square:
        raise ValueError("inverse requires a square matrix")
    if not p.is_lower_triangular():
        raise ValueError("matrix is not lower triangular")
    n = p.rows
    if any(p[i, i] == 0 for i in range(n)):
        raise ValueError("zero diagonal entry")
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = 1 / p[j, j]
        for i in range(j + 1, n):
            s = sum(p[i, k] * inv[k][j] for k in range(j, i))
            inv[i][j] = -s / p[i, i]
    return Matrix.from_rows(inv)


def invert(a: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals."""
    if not a.is_square:
        raise ValueError("inverse requires a square matrix")
    n = a.rows
    aug = [list(a.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        piv = aug[k][k]
        aug[k] = [x / piv for x in aug[k]]
        for r in range(n):
            if r != k and aug[r][k] != 0:
                f = aug[r][k]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[k])]
    return Matrix.from_rows([row[n:] for row in aug])


def _inverse_pascal_apply(x: Sequence[Scalar]) -> list[Scalar]:
    """P^{-1} x, which is the forward differences (Delta^i x)_0, i = 0..len(x)-1,
    because (P^{-1})_ij = (-1)^(i-j) C(i, j)."""
    out = []
    x = list(x)
    while x:
        out.append(x[0])
        x = [b - a for a, b in zip(x, x[1:])]
    return out


def conjugate_by_inverse_pascal(l_mat: Matrix) -> Matrix:
    """Compute T with L = P * T * P^t, i.e. T = P^{-1} * L * (P^{-1})^t.

    P^{-1} is applied as forward differences, first down each column of L and
    then along each row, in python ints when every entry is an integer.
    """
    if not l_mat.is_square:
        raise ValueError("square matrix required")
    try:
        grid: list[list[Scalar]] = l_mat.to_int_rows()
    except ValueError:
        grid = l_mat.to_rows()
    columns = [_inverse_pascal_apply(col) for col in zip(*grid)]
    return Matrix.from_rows([_inverse_pascal_apply(row) for row in zip(*columns)])


def verify_alternating_identity(n: int, k: int) -> bool:
    """Check sum_{i=0}^{k} (-1)^i C(n,i) C(n+k-1-i, k-i) == 0."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    total = sum(
        (-1) ** i * gen_binom(n, i) * gen_binom(n + k - 1 - i, k - i)
        for i in range(k + 1)
    )
    return total == 0


def verify_root_identity(n: int, k: int, x: Scalar) -> bool:
    """Check the falling-product expansion identity at a rational point.

    sum_{i=0}^{k} (-1)^i i! C(n,i) C(k,i) prod_{j=0}^{n-1-i}(x+k+j)
        == prod_{j=0}^{n-1}(x+j)
    """
    if not (1 <= k <= n):
        raise ValueError("need n >= k >= 1")
    x = Fraction(x)
    lhs = Fraction(0)
    for i in range(k + 1):
        prod = Fraction(1)
        for j in range(n - i):
            prod *= x + k + j
        lhs += (-1) ** i * math.factorial(i) * gen_binom(n, i) * gen_binom(k, i) * prod
    rhs = Fraction(1)
    for j in range(n):
        rhs *= x + j
    return lhs == rhs
