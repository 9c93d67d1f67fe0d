"""Slow, definitional references that the tests compare the closed forms of
`metamatrix.typeb`, `metamatrix.exactlinear` and `metamatrix.tp` against.
Nothing in the package calls these.

Matrices are lists of rows, as in the package.  The exhaustive enumeration
of signed contingency matrices below is the reference for the closed-form
counts `typeb.scm_table` and `typeb.scm_count_closed`."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from metamatrix.exactlinear import Matrix, bareiss_det


def gen_binom(t: int, k: int) -> int:
    """Generalized binomial t*(t-1)*...*(t-k+1)/k! for any integer top."""
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    if t >= 0:
        return math.comb(t, k)
    # negative top: (-1)^k * C(k - t - 1, k)
    return (-1) ** k * math.comb(k - t - 1, k)


def det(a) -> Fraction:
    """`exactlinear.bareiss_det` of a square matrix given as rows."""
    return bareiss_det(Matrix.from_rows(a))


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b) -> list:
    """Product of two matrices given as rows."""
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch in matrix product")
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a) -> list:
    return [list(col) for col in zip(*a)]


def submatrix(a, rows, cols) -> list:
    return [[a[i][j] for j in cols] for i in rows]


def is_upper_triangular(a) -> bool:
    return all(a[i][j] == 0 for i in range(len(a)) for j in range(min(i, len(a[i]))))


def pascal_matrix(n: int) -> list[list[int]]:
    """(n+1)x(n+1) lower-triangular matrix of binomial coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [[gen_binom(i, j) for j in range(n + 1)] for i in range(n + 1)]


def invert_lower_triangular(p) -> list[list[Fraction]]:
    """Exact inverse of a lower-triangular matrix by forward substitution."""
    n = len(p)
    if any(len(row) != n for row in p):
        raise ValueError("inverse requires a square matrix")
    if any(p[i][j] != 0 for i in range(n) for j in range(i + 1, n)):
        raise ValueError("matrix is not lower triangular")
    if any(p[i][i] == 0 for i in range(n)):
        raise ValueError("zero diagonal entry")
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = 1 / Fraction(p[j][j])
        for i in range(j + 1, n):
            s = sum(p[i][k] * inv[k][j] for k in range(j, i))
            inv[i][j] = -s / p[i][i]
    return inv


SCM_BRUTE_FORCE_CAP = 5


@dataclass(frozen=True)
class MarginCondition:
    """Composition of n plus a flag for the short-node generator."""

    parts: tuple[int, ...]
    lam: int  # 0 or 1

    def __post_init__(self):
        if self.lam not in (0, 1):
            raise ValueError("flag must be 0 or 1")
        if any(p <= 0 for p in self.parts):
            raise ValueError("composition parts must be positive")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts) - self.lam


@dataclass(frozen=True)
class SignedMatrix:
    """Grid of (plus, minus) pairs satisfying margin and sign constraints."""

    case: tuple[int, int]
    grid: tuple[tuple[tuple[int, int], ...], ...]


def subset_to_margin(subset: set[int] | frozenset[int], n: int) -> MarginCondition:
    """Margin condition of n of length n - |subset|; i and i+1 share a part
    iff generator i is in the subset."""
    if any(not 1 <= i <= n for i in subset):
        raise ValueError("subset must lie in 1..n")
    parts = []
    size = 0
    for i in range(1, n + 1):
        size += 1
        if i == n or i not in subset:
            parts.append(size)
            size = 0
    return MarginCondition(tuple(parts), 1 if n in subset else 0)


def margin_to_subset(margin: MarginCondition, n: int) -> frozenset[int]:
    if margin.n != n:
        raise ValueError("margin is not a margin condition of n")
    subset = set()
    pos = 0
    for part in margin.parts:
        subset.update(range(pos + 1, pos + part))
        pos += part
    if margin.lam:
        subset.add(n)
    return frozenset(subset)


def _compositions(n: int, length: int) -> Iterator[tuple[int, ...]]:
    if length == 0:
        if n == 0:
            yield ()
        return
    if length == 1:
        if n >= 1:
            yield (n,)
        return
    for first in range(1, n - length + 2):
        for rest in _compositions(n - first, length - 1):
            yield (first,) + rest


def margin_conditions(n: int, length: int) -> list[MarginCondition]:
    """All margin conditions of n of the given length."""
    out = [MarginCondition(c, 0) for c in _compositions(n, length)]
    out.extend(MarginCondition(c, 1) for c in _compositions(n, length + 1))
    return out


def _abs_tables(row_sums, col_sums) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All nonnegative integer matrices with the given margins."""
    if not row_sums:
        if all(c == 0 for c in col_sums):
            yield ()
        return
    first, rest = row_sums[0], row_sums[1:]

    def fill(j: int, remaining: int, row: tuple[int, ...]):
        if j == len(col_sums):
            if remaining == 0:
                new_cols = tuple(c - x for c, x in zip(col_sums, row))
                for tail in _abs_tables(rest, new_cols):
                    yield (row,) + tail
            return
        hi = min(remaining, col_sums[j])
        if j == len(col_sums) - 1:
            lo = hi = remaining if remaining <= col_sums[j] else -1
            if hi < 0:
                return
            yield from fill(j + 1, 0, row + (remaining,))
            return
        for x in range(hi + 1):
            yield from fill(j + 1, remaining - x, row + (x,))

    yield from fill(0, first, ())


def enumerate_scm(alpha: MarginCondition, beta: MarginCondition) -> list[SignedMatrix]:
    """All signed contingency matrices with the given margins."""
    if alpha.n != beta.n:
        raise ValueError("margins must be conditions of the same n")
    la, lb = alpha.lam, beta.lam
    nrows, ncols = len(alpha.parts), len(beta.parts)
    out = []
    for table in _abs_tables(alpha.parts, beta.parts):
        cell_choices = []
        for i in range(nrows):
            for j in range(ncols):
                a = table[i][j]
                restricted = (la == 1 and i == nrows - 1) or (
                    lb == 1 and j == ncols - 1
                )
                if restricted:
                    cell_choices.append([(a, 0)])
                else:
                    cell_choices.append([(a - k, k) for k in range(a + 1)])
        for combo in product(*cell_choices):
            grid = tuple(
                tuple(combo[i * ncols + j] for j in range(ncols))
                for i in range(nrows)
            )
            out.append(SignedMatrix((la, lb), grid))
    return out


def scm_count_fixed_case(n: int, p: int, q: int, lam: int, mu: int) -> int:
    """|SCM| restricted to margin pairs of lengths (p, q) with fixed flags."""
    total = 0
    alphas = [m for m in margin_conditions(n, p) if m.lam == lam]
    betas = [m for m in margin_conditions(n, q) if m.lam == mu]
    for alpha in alphas:
        for beta in betas:
            total += len(enumerate_scm(alpha, beta))
    return total


def scm_count(n: int, p: int, q: int) -> int:
    """|SCM_n(p, q)| by exhaustive enumeration over all margin pairs."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError("need 0 <= p, q <= n")
    return sum(
        scm_count_fixed_case(n, p, q, lam, mu) for lam in (0, 1) for mu in (0, 1)
    )


def binomial_sum(n: int, pq: int, x: int) -> int:
    """A(x) = sum_a C(a+x-1, a) * C(n-a+pq-1, n-a), term by term; by
    Chu-Vandermonde it equals gen_binom(n + x + pq - 1, n)."""
    return sum(
        gen_binom(a + x - 1, a) * gen_binom(n - a + pq - 1, n - a)
        for a in range(n + 1)
    )


def gscm_product(n: int, p: int, q: int) -> int:
    """prod_{i=1..n} (2pq + p + q + i) / n!, the product formula for
    |GSCM_n(p, q)|; the division must be exact."""
    prod = math.prod(2 * p * q + p + q + i for i in range(1, n + 1))
    count, rem = divmod(prod, math.factorial(n))
    assert rem == 0, (n, p, q)
    return count


def gscm_piece_count(n: int, p: int, q: int, lam: int, mu: int) -> int:
    """Cardinality of the (lam, mu) piece of the generalized signed
    contingency matrices, by inclusion-exclusion over binomial sums."""
    if p < 0 or q < 0 or lam not in (0, 1) or mu not in (0, 1):
        raise ValueError("bad arguments")
    a00 = binomial_sum(n, p * q, p * q)
    if (lam, mu) == (0, 0):
        return a00
    a10 = binomial_sum(n, p * q, (p + 1) * q)
    if (lam, mu) == (1, 0):
        return a10 - a00
    a01 = binomial_sum(n, p * q, p * (q + 1))
    if (lam, mu) == (0, 1):
        return a01 - a00
    a11 = binomial_sum(n, p * q, (p + 1) * (q + 1))
    return a11 - a01 - a10 + a00


def verify_scm_gscm_transform(n: int, lam: int, mu: int) -> bool:
    """Check the binomial-transform relation between fixed-case SCM and GSCM
    counts at every (p, q) with both sides computed independently."""
    if n > SCM_BRUTE_FORCE_CAP:
        raise ValueError(f"brute-force SCM enumeration capped at n={SCM_BRUTE_FORCE_CAP}")
    scm = {
        (i, j): scm_count_fixed_case(n, i, j, lam, mu)
        for i in range(n + 1)
        for j in range(n + 1)
    }
    for p in range(n + 1):
        for q in range(n + 1):
            rhs = sum(
                gen_binom(p, i) * gen_binom(q, j) * scm[(i, j)]
                for i in range(p + 1)
                for j in range(q + 1)
            )
            if gscm_piece_count(n, p, q, lam, mu) != rhs:
                return False
    return True


def verify_alternating_identity(n: int, k: int) -> bool:
    """Check sum_{i=0}^{k} (-1)^i C(n,i) C(n+k-1-i, k-i) == 0."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    total = sum(
        (-1) ** i * gen_binom(n, i) * gen_binom(n + k - 1 - i, k - i)
        for i in range(k + 1)
    )
    return total == 0


def verify_root_identity(n: int, k: int, x) -> bool:
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

