"""Signed contingency matrices and the closed-form type-B pipeline.

Counting goes through generalized signed contingency matrices,
|GSCM_n(p, q)| = C(2pq + p + q + n, n); the counts of signed contingency
matrices, and with them the type-B metamatrix, fall out by conjugating that
table with the inverse Pascal matrix (and reversing indices), all in python
ints.  The exhaustive enumeration of signed contingency matrices is the
tests' reference (`tests/references.py`).
"""

from __future__ import annotations

import math

from .exactlinear import conjugate_by_inverse_pascal
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


def scm_table(n: int) -> list[list[int]]:
    """The (n+1)x(n+1) table T with T_pq = |SCM_n(p, q)|, from the closed
    form: T = P^{-1} * L * (P^{-1})^t."""
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


def metamatrix_typeb(n: int) -> Metamatrix:
    """Exact metamatrix of the hyperoctahedral group of rank n."""
    t = scm_table(n)
    entries = tuple(
        tuple(t[n - p][n - q] for q in range(n + 1)) for p in range(n + 1)
    )
    return Metamatrix(n=n, entries=entries, provenance="formula")
