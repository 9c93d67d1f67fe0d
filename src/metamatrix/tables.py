"""The catalog of supported Coxeter systems and the result tables:
N-tables, metamatrices, the closed-form dihedral table, the binomial
transform and the invariant checks every printed result passes.

`check-tp` and the type-B formula need only this module, so they start
without loading `coxeter` or `engine`, which re-export these names.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Dihedral groups realizable with exact matrix entries: integers for
# m in {2,3,4,6}, Z[phi] for m=5 (2*cos(pi/5) = phi).
_I2_MATRIX_M = {2, 3, 4, 5, 6}

# The exceptional families exist only at these ranks, with these orders.
_EXCEPTIONAL_ORDERS = {
    "H": {3: 120, 4: 14400},
    "F": {4: 1152},
    "E": {6: 51840, 7: 2903040, 8: 696729600},
}

# The catalog: the ranks `coxeter.build_system` supports in each family.
_RANKS = {
    "A": range(1, 9),
    "B": range(1, 9),
    "D": range(4, 9),
    "I2": (2,),
    **_EXCEPTIONAL_ORDERS,
}


class UnsupportedSystem(ValueError):
    pass


class EnumerationLimit(RuntimeError):
    pass


def _edges(family: str, rank: int, m: int | None) -> dict[tuple[int, int], int]:
    """Coxeter-diagram bond orders keyed by node pairs (1-based, i<j)."""
    chain = {(i, i + 1): 3 for i in range(1, rank)}
    if family == "A":
        return chain
    if family == "B":
        if rank >= 2:
            chain[(rank - 1, rank)] = 4
        return chain
    if family == "D":
        chain.pop((rank - 1, rank))
        chain[(rank - 2, rank)] = 3
        return chain
    if family == "I2":
        return {(1, 2): m}
    if family == "H":
        chain[(1, 2)] = 5
        return chain
    if family == "F":
        chain[(2, 3)] = 4
        return chain
    if family == "E":
        edges = {(i, i + 1): 3 for i in range(3, rank)}
        edges[(1, 3)] = 3
        edges[(2, 4)] = 3
        return edges
    raise UnsupportedSystem(f"unknown family {family!r}")


def _group_order(family: str, rank: int, m: int | None) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family == "B":
        return 2**rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if family == "I2":
        return 2 * m
    orders = _EXCEPTIONAL_ORDERS.get(family, {})
    if rank not in orders:
        raise _unsupported(family, rank, m)
    return orders[rank]


def system_label(family: str, rank: int, m: int | None) -> str:
    """The name of a system in messages and cache file names: B3, I2m5."""
    return f"{family}{rank}" if m is None else f"{family}m{m}"


def _catalog_text() -> str:
    """The catalog as one line: A1-A8, ..., I2(m) for m in {2,...}, H3, ..."""
    parts = []
    for family, ranks in _RANKS.items():
        if family == "I2":
            parts.append(f"I2(m) for m in {{{','.join(map(str, sorted(_I2_MATRIX_M)))}}}")
        elif isinstance(ranks, range):
            parts.append(f"{family}{ranks[0]}-{family}{ranks[-1]}")
        else:
            parts.extend(f"{family}{rank}" for rank in ranks)
    return ", ".join(parts)


def _unsupported(family: str, rank: int, m: int | None) -> UnsupportedSystem:
    return UnsupportedSystem(
        f"unsupported Coxeter system family={family!r} rank={rank} m={m}; "
        f"supported: {_catalog_text()}"
    )


def in_catalog(family: str, rank: int, m: int | None) -> bool:
    """Whether the catalog has a matrix realization of the system (`family`
    in upper case)."""
    return rank in _RANKS.get(family, ()) and (family != "I2" or m in _I2_MATRIX_M)


def check_catalog(family: str, rank: int, m: int | None) -> None:
    """Raise UnsupportedSystem unless the system is `in_catalog`."""
    if not in_catalog(family, rank, m):
        raise _unsupported(family, rank, m)


class NTable(NamedTuple):
    """Two-sided ascent statistics: counts[i][j] = #elements with i left and
    j right ascents."""

    n: int
    counts: tuple[tuple[int, ...], ...]

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def is_symmetric(self) -> bool:
        c, n = self.counts, self.n
        return all(
            c[i][j] == c[j][i] and c[i][j] == c[n - i][n - j]
            for i in range(n + 1)
            for j in range(n + 1)
        )


class Metamatrix(NamedTuple):
    """The (n+1)x(n+1) table and the pipeline that produced it; two are equal
    when their entries are."""

    n: int
    entries: tuple[tuple[int, ...], ...]
    provenance: str

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Metamatrix) and self.entries == other.entries

    def __ne__(self, other: object) -> bool:  # a tuple's own != compares every field
        return not self == other

    def __hash__(self) -> int:  # a tuple's own hash covers every field
        return hash(self.entries)


def dihedral_ntable(m: int) -> NTable:
    """Closed-form N-table of the dihedral group of order 2m."""
    if m < 2:
        raise ValueError("m must be at least 2")
    counts = [[0, 0, 0], [0, 2 * m - 2, 0], [0, 0, 1]]
    counts[0][0] = 1
    return NTable(n=2, counts=tuple(tuple(r) for r in counts))


def metamatrix_from_ntable(table: NTable, provenance: str = "enumeration") -> Metamatrix:
    """M_pq = sum_ij C(i,p) C(j,q) N_ij."""
    n = table.n
    entries = []
    for p in range(n + 1):
        row = []
        for q in range(n + 1):
            row.append(
                sum(
                    math.comb(i, p) * math.comb(j, q) * table.counts[i][j]
                    for i in range(n + 1)
                    for j in range(n + 1)
                )
            )
        entries.append(tuple(row))
    return Metamatrix(n=n, entries=tuple(entries), provenance=provenance)


def ntable_invariant_failure(table: NTable, order: int) -> str | None:
    """Why `table` cannot be the N-table of a group of rank table.n and order
    `order`, or None.  Checks the shape, nonnegative entries, the total |W|,
    the symmetries c[i][j] = c[j][i] = c[n-i][n-j] and row n = (0, ..., 0, 1)
    (only the identity has n left ascents).  M_00 is the sum of all entries
    (every C(i, 0) is 1), so the total check is M_00 = |W|; row n of the
    metamatrix is C(n, q) exactly when row n of the N-table is the identity's."""
    n, c = table.n, table.counts
    if len(c) != n + 1 or any(len(row) != n + 1 for row in c):
        return f"N-table is not {n + 1}x{n + 1}"
    if any(x < 0 for row in c for x in row):
        return "N-table has a negative entry"
    if table.total() != order:
        return f"N-table total (M_00) is {table.total()}, expected |W| = {order}"
    if not table.is_symmetric():
        return "N-table lacks the symmetries c[i][j] = c[j][i] = c[n-i][n-j]"
    if list(c[n]) != [0] * n + [1]:
        return f"N-table row {n} is not the identity's (0, ..., 0, 1)"
    return None


def metamatrix_invariant_failure(m: Metamatrix, order: int) -> str | None:
    """Why `m` cannot be the metamatrix of a group of rank m.n and order
    `order`, or None.  Checks the shape, the symmetry M_pq = M_qp,
    M_00 = |W| (with I and J empty every element is its own double coset)
    and row n = C(n, q) (with I = S there is one double coset for each J).
    None of these depends on the pipeline that produced `m`."""
    n, e = m.n, m.entries
    if len(e) != n + 1 or any(len(row) != n + 1 for row in e):
        return f"metamatrix is not {n + 1}x{n + 1}"
    if any(e[p][q] != e[q][p] for p in range(n + 1) for q in range(p)):
        return "metamatrix is not symmetric"
    if e[0][0] != order:
        return f"M_00 is {e[0][0]}, expected |W| = {order}"
    if list(e[n]) != [math.comb(n, q) for q in range(n + 1)]:
        return f"row {n} is not C({n}, q)"
    return None
