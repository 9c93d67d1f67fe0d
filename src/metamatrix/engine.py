"""Metamatrix pipelines: descent-statistics enumeration, and the brute-force
double-coset oracle on numpy.  The result tables they return, the
closed-form dihedral table and the invariant checks live in `tables`.

The N-table counts elements by (#left ascents, #right ascents); the
metamatrix is its binomial transform.  Every enumerable group, golden or
crystallographic, is counted by a walk up the parabolic coset tower that
carries a histogram of ascent states (see `_kernels`), in python ints; only
the oracle, which keeps its own matrix enumeration as an independent
cross-check, imports numpy, when it runs.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable

from . import _kernels
from .coxeter import CoxeterSystem, tower_plan
from .tables import (  # the result tables, kept importable from here
    EnumerationLimit,
    Metamatrix,
    NTable,
    dihedral_ntable,
    metamatrix_from_ntable,
    metamatrix_invariant_failure,
    ntable_invariant_failure,
    system_label,
)

if TYPE_CHECKING:
    import numpy as np

# Recorded in every cached N-table; bump it when a change to the enumeration
# could change a table, so entries written by older code are recomputed.
ENGINE_VERSION = 2


def accumulate_ntable(
    system: CoxeterSystem, progress: Callable[[int, int], None] | None = None
) -> NTable:
    """Exact N-table by the state-histogram walk up the coset tower, one
    level at a time.  `progress` is called after each level as
    (levels done, levels)."""
    plan = tower_plan(system)
    n = system.rank
    histogram = {(0, 0, ()): len(plan.tail_mats)}  # W_0 = {e}: no ascents, nothing watched
    for k in range(1, n + 1):
        histogram = _kernels.count_profiles_batch(plan, k, histogram)
        if progress is not None:
            progress(k, n)
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for (left, right, _), count in histogram.items():
        counts[left.bit_count()][right] += count
    table = NTable(n=n, counts=tuple(map(tuple, counts)))
    failure = ntable_invariant_failure(table, system.order)
    if failure is not None:
        label = system_label(system.family, system.rank, system.m)
        raise AssertionError(f"{label}: {failure}")
    return table


# --------------------------------------------------------------------------
# The oracle: every element as a matrix over Z[phi], stored as an integer
# array of shape (2, n, n) (layer 0 the rational part, layer 1 the phi part);
# the matrix of w has column j equal to the coordinates of w(alpha_j).


def ring_matmul(x, y):
    """Product of two matrices over Z[phi] (phi^2 = phi + 1) in two-layer
    representation."""
    import numpy as np

    a = x[0] @ y[0] + x[1] @ y[1]
    b = x[0] @ y[1] + x[1] @ y[0] + x[1] @ y[1]
    return np.stack((a, b))


def nonneg_grid(a, b):
    """Elementwise exact test a + b*phi >= 0 on integer arrays, as
    `coxeter.is_nonneg` does for one pair."""
    s = 2 * a + b
    pos_b = (s >= 0) | (5 * b * b >= s * s)
    neg_b = (s >= 0) & (s * s >= 5 * b * b)
    return ((b >= 0) & pos_b) | ((b < 0) & neg_b)


def _identity_mat(rank: int):
    import numpy as np

    out = np.zeros((2, rank, rank), dtype=np.int64)
    out[0] += np.eye(rank, dtype=np.int64)
    return out


def generator_matrices(system: CoxeterSystem) -> list:
    """The matrix of each s_i: the identity with row i of the Cartan matrix
    subtracted from row i."""
    import numpy as np

    cartan = np.moveaxis(np.array(system.cartan, dtype=np.int64), 2, 0)  # (2, n, n)
    gens = []
    for i in range(system.rank):
        g = _identity_mat(system.rank)
        g[:, i, :] -= cartan[:, i, :]
        g.setflags(write=False)
        gens.append(g)
    return gens


def _keys(stack: np.ndarray) -> list[bytes]:
    """One byte key per element of a (2, N, n, n) stack: the tobytes() of its
    (2, n, n) matrix."""
    import numpy as np

    return [m.tobytes() for m in np.ascontiguousarray(np.moveaxis(stack, 1, 0))]


def _matrix_elements(system: CoxeterSystem) -> tuple[np.ndarray, np.ndarray]:
    """Every element as a root-coordinate matrix with its inverse, by
    breadth-first search on right multiplication by generators, one layer at
    a time.  Element w is mats[w], a (2, n, n) matrix, in BFS order."""
    import numpy as np

    n = system.rank
    e = _identity_mat(n)[:, None]
    gens = np.stack(generator_matrices(system), axis=1)[:, None]  # (2, 1, rank, n, n)
    mats, invs = [e], [e]
    seen = set(_keys(e))
    frontier, frontier_inv = e, e
    while frontier.shape[1]:
        # u * g for every frontier element u and generator g, and inv(u * g) = g * inv(u)
        prod = ring_matmul(frontier[:, :, None], gens).reshape(2, -1, n, n)
        prod_inv = ring_matmul(gens, frontier_inv[:, :, None]).reshape(2, -1, n, n)
        new = []
        for k, key in enumerate(_keys(prod)):
            if key not in seen:
                seen.add(key)
                new.append(k)
        frontier, frontier_inv = prod[:, new], prod_inv[:, new]
        mats.append(frontier)
        invs.append(frontier_inv)
    return tuple(
        np.ascontiguousarray(np.moveaxis(np.concatenate(layers, axis=1), 1, 0))
        for layers in (mats, invs)
    )


# Largest group order the oracle expands in memory.  H4 (14,400) is under it;
# B6 (46,080) and E6 (51,840) are not.
ORACLE_LIMIT = 20_000


class GroupTable:
    """Fully expanded small group: generator permutations of the element
    indices, and ascent bitmasks.  Backs the oracle operations."""

    def __init__(self, system: CoxeterSystem):
        if system.order > ORACLE_LIMIT:
            raise EnumerationLimit(
                f"oracle method limited to groups of order <= {ORACLE_LIMIT} "
                f"(|W| = {system.order})"
            )
        import numpy as np

        self.system = system
        mats, invs = _matrix_elements(system)
        self.size = len(mats)
        stack = np.moveaxis(mats, 0, 1)
        index = {key: w for w, key in enumerate(_keys(stack))}

        def lookup(prod: np.ndarray) -> np.ndarray:
            return np.array([index[key] for key in _keys(prod)], dtype=np.intp)

        # left_perm[i - 1][w] is the index of s_i * w, right_perm[i - 1][w] of w * s_i
        gens = generator_matrices(system)
        self.left_perm = [lookup(ring_matmul(g, stack)) for g in gens]
        self.right_perm = [lookup(ring_matmul(stack, g)) for g in gens]
        n = system.rank
        right_cols = nonneg_grid(mats[:, 0], mats[:, 1]).all(axis=1)
        left_cols = nonneg_grid(invs[:, 0], invs[:, 1]).all(axis=1)
        self.right_masks = [
            frozenset(j + 1 for j in range(n) if right_cols[w, j])
            for w in range(self.size)
        ]
        self.left_masks = [
            frozenset(j + 1 for j in range(n) if left_cols[w, j])
            for w in range(self.size)
        ]


_TABLE_CACHE: dict[tuple[str, int, int | None], GroupTable] = {}


def group_table(system: CoxeterSystem) -> GroupTable:
    key = (system.family, system.rank, system.m)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = GroupTable(system)
    return _TABLE_CACHE[key]


def orbit_count(size: int, perms: list[np.ndarray]) -> int:
    """Number of orbits of the group generated by involutions `perms` of
    range(size).  Min-label propagation with pointer jumping (Shiloach and
    Vishkin, J. Algorithms 3, 1982): lab[w] always lies in the orbit of w and
    only falls, and at the fixed point it is constant along every edge, hence
    on every orbit, so each orbit keeps exactly one fixed point lab[w] = w."""
    import numpy as np

    lab = np.arange(size)
    while True:
        new = lab
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, lab):
            return int(np.count_nonzero(lab == np.arange(size)))
        lab = new


def double_coset_count(
    system: CoxeterSystem, left: Iterable[int], right: Iterable[int]
) -> int:
    """|W_I \\ W / W_J|: the orbits of the element indices under left
    multiplication by s_i (i in I) and right multiplication by s_j (j in J)."""
    table = group_table(system)
    perms = [table.left_perm[i - 1] for i in left] + [table.right_perm[j - 1] for j in right]
    return orbit_count(table.size, perms)


def metamatrix_bruteforce(system: CoxeterSystem) -> Metamatrix:
    """Entrywise sums of double-coset counts over all subset pairs."""
    n = system.rank
    gens = list(range(1, n + 1))
    entries = []
    for p in range(n + 1):
        row = []
        for q in range(n + 1):
            total = 0
            for left in combinations(gens, p):
                for right in combinations(gens, q):
                    total += double_coset_count(system, left, right)
            row.append(total)
        entries.append(tuple(row))
    return Metamatrix(n=n, entries=tuple(entries), provenance="oracle")
