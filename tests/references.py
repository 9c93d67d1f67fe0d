"""Slow, definitional references that the tests compare the closed forms of
`metamatrix.typeb`, `metamatrix.exactlinear` and `metamatrix.tp`, and the
oracle's orbit labels in `metamatrix.engine`, against.  Nothing in the
package calls these."""

import math
from fractions import Fraction

from metamatrix.exactlinear import Matrix, gen_binom
from metamatrix.typeb import SCM_BRUTE_FORCE_CAP, scm_count_fixed_case


def pascal_matrix(n: int) -> Matrix:
    """(n+1)x(n+1) lower-triangular matrix of binomial coefficients."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Matrix.from_rows(
        [[gen_binom(i, j) for j in range(n + 1)] for i in range(n + 1)]
    )


def invert_lower_triangular(p: Matrix) -> Matrix:
    """Exact inverse of a lower-triangular matrix by forward substitution."""
    if not p.is_square:
        raise ValueError("inverse requires a square matrix")
    n = p.rows
    if any(p[i, j] != 0 for i in range(n) for j in range(i + 1, n)):
        raise ValueError("matrix is not lower triangular")
    if any(p[i, i] == 0 for i in range(n)):
        raise ValueError("zero diagonal entry")
    inv = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        inv[j][j] = 1 / p[j, j]
        for i in range(j + 1, n):
            s = sum(p[i, k] * inv[k][j] for k in range(j, i))
            inv[i][j] = -s / p[i, i]
    return Matrix.from_rows(inv)


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


def reference_orbit_count(size: int, perms) -> int:
    """Orbits of the permutations `perms` (sequences) of range(size), by
    breadth-first search from every point not yet reached."""
    seen = [False] * size
    orbits = 0
    for start in range(size):
        if seen[start]:
            continue
        orbits += 1
        seen[start] = True
        queue = [start]
        for x in queue:  # visits the points appended below too
            for perm in perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return orbits
