"""Signed contingency matrices and the closed-form type-B pipeline.

Margins are compositions with a flag recording whether the last (short-node)
generator is present.  Counting goes through generalized signed contingency
matrices, |GSCM_n(p, q)| = C(2pq + p + q + n, n); the type-B metamatrix falls
out by conjugating that table with the inverse Pascal matrix and reversing
indices, all in python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .exactlinear import conjugate_by_inverse_pascal
from .tables import Metamatrix

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


def metamatrix_typeb(n: int) -> Metamatrix:
    """Exact metamatrix of the hyperoctahedral group of rank n."""
    t = scm_table(n)
    entries = tuple(
        tuple(t[n - p][n - q] for q in range(n + 1)) for p in range(n + 1)
    )
    return Metamatrix(n=n, entries=entries, provenance="formula")
