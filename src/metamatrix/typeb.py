"""Signed contingency matrices and the closed-form type-B pipeline, in
python ints.

Counting goes through generalized signed contingency matrices,
|GSCM_n(p, q)| = C(2pq + p + q + n, n); the counts of signed contingency
matrices, and with them the type-B metamatrix, fall out by conjugating that
table with the inverse Pascal matrix (and reversing indices).  The SCM table T
factors as 2^n n! T = Q C Q^t (Q invertible, C a positive diagonal), so T is
positive definite; that it is totally positive rests on `tp.fekete_check`.
The tests' reference enumerates the matrices (`tests/references.py`).
"""

from __future__ import annotations

import math
import operator

from .tables import Metamatrix


def gscm_count(n: int, p: int, q: int) -> int:
    """|GSCM_n(p, q)| = C(2pq + p + q + n, n)."""
    if n < 0 or p < 0 or q < 0:
        raise ValueError("n, p, q must be nonnegative")
    return math.comb(2 * p * q + p + q + n, n)


def L_matrix(n: int) -> list[list[int]]:
    """(n+1)x(n+1) table of generalized signed contingency counts."""
    if n < 1:
        raise ValueError("n must be positive")
    return [[gscm_count(n, p, q) for q in range(n + 1)] for p in range(n + 1)]


def _row_differences(rows) -> list[list]:
    """P^{-1} X for X given as rows: row i is the i-th forward difference of
    the rows at 0, as (P^{-1})_ij = (-1)^(i-j) C(i, j)."""
    out = []
    while rows:
        out.append(list(rows[0]))
        rows = [list(map(operator.sub, b, a)) for a, b in zip(rows, rows[1:])]
    return out


def conjugate_by_inverse_pascal(grid: list[list]) -> list[list]:
    """T = P^{-1} * L * (P^{-1})^t for a square L given as rows: differences
    of whole rows of L^t give P^{-1} L^t, the transpose of L (P^{-1})^t, and
    differences of whole rows of that transpose give T."""
    if any(len(row) != len(grid) for row in grid):
        raise ValueError("square matrix required")
    return _row_differences(list(zip(*_row_differences(list(zip(*grid))))))


def scm_table(n: int) -> list[list[int]]:
    """The table T_pq = |SCM_n(p, q)|, 0 <= p, q <= n, as P^{-1} * L * (P^{-1})^t."""
    return conjugate_by_inverse_pascal(L_matrix(n))


def scm_count_closed(n: int, p: int, q: int) -> int:
    """|SCM_n(p, q)| for any n from the closed form.  P^{-1} has entries
    (-1)^(p-i) C(p, i), so T_pq = sum over i <= p, j <= q of
    (-1)^(p-i+q-j) C(p, i) C(q, j) L_ij: O(pq) terms."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError("need 0 <= p, q <= n")
    total = 0
    for i in range(p + 1):
        row = sum((-1) ** (q - j) * math.comb(q, j) * gscm_count(n, i, j) for j in range(q + 1))
        total += (-1) ** (p - i) * math.comb(p, i) * row
    return total


def gauss_decomposition_typeb(n: int) -> tuple[list[list[int]], list[int]]:
    """Factor the signed-contingency table T of rank n as 2^n n! T = Q C Q^t in
    python ints, with Q upper triangular and C a positive diagonal; returns Q
    as rows and the diagonal c of C.  As 2^n n! L_pq is
    prod_{i=1..n} ((2p+1)(2q+1) + 2i - 1), c_k is the coefficient of t^k in
    prod_{i=1..n} (t + 2i - 1), and Q_ik = sum_j (-1)^(i-j) C(i, j) (2j+1)^k.
    By the Leibniz rule for differences, Q_0k = 1 and
    Q_ik = (2i+1) Q_i,k-1 + 2i Q_i-1,k-1, so Q_kk = 2^k k!; Q_ik = 0 for i > k
    (an i-th difference of a degree-k polynomial), and the recurrence writes
    only i <= k, so Q is upper triangular by construction.  Q is invertible,
    so the exact reconstruction proves T congruent to C.  A failed check is
    a fatal defect and raises AssertionError."""
    table = scm_table(n)  # raises ValueError unless n >= 1
    q = [[1] * (n + 1)] + [[0] * (n + 1) for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(1, k + 1):
            q[i][k] = (2 * i + 1) * q[i][k - 1] + 2 * i * q[i - 1][k - 1]
    c = [1]
    for i in range(1, n + 1):
        c = [(2 * i - 1) * a + b for a, b in zip(c + [0], [0] + c)]
    if any(x <= 0 for x in c):
        raise AssertionError(f"type-B factorization: C has a nonpositive entry (n={n})")
    # with Q upper triangular, (Q C Q^t)_ij = sum over k >= max(i, j) of Q_ik c_k Q_jk
    scale = 2**n * math.factorial(n)
    for i in range(n + 1):
        for j in range(n + 1):
            got = sum(q[i][k] * c[k] * q[j][k] for k in range(max(i, j), n + 1))
            if got != scale * table[i][j]:
                raise AssertionError(f"type-B factorization: Q C Q^t differs from the table "
                                     f"at ({i}, {j}) (n={n})")
    return q, c


def metamatrix_typeb(n: int) -> Metamatrix:
    """Exact metamatrix of the hyperoctahedral group of rank n."""
    t = scm_table(n)
    entries = tuple(
        tuple(t[n - p][n - q] for q in range(n + 1)) for p in range(n + 1)
    )
    return Metamatrix(n=n, entries=entries)
