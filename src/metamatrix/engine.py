"""Metamatrix pipelines: descent-statistics enumeration, the closed-form
dihedral table, and the brute-force double-coset oracle.

The N-table counts elements by (#left ascents, #right ascents); the
metamatrix is its binomial transform.  Every enumerable group, golden or
crystallographic, is streamed through the parabolic coset tower as root
permutations (see `coxeter.root_system`); the oracle keeps its own matrix
enumeration, so it stays an independent cross-check.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from . import _kernels
from .coxeter import (
    CoxeterSystem,
    EnumerationLimit,
    TowerPlan,
    _identity_mat,
    leaf_prefixes,
    ring_matmul,
    system_label,
    tower_plan,
)
from .exactlinear import gen_binom
from .goldring import nonneg_grid

# Recorded in every cached N-table; bump it when a change to the enumeration
# could change a table, so entries written by older code are recomputed.
ENGINE_VERSION = 2

# Upper bound on the products one leaf gather covers (its uint8 work arrays
# and the bincount index array scale with it).
GATHER_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class NTable:
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


@dataclass(frozen=True)
class Metamatrix:
    n: int
    entries: tuple[tuple[int, ...], ...]
    provenance: str

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Metamatrix) and self.entries == other.entries


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
                    gen_binom(i, p) * gen_binom(j, q) * table.counts[i][j]
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
    if list(e[n]) != [gen_binom(n, q) for q in range(n + 1)]:
        return f"row {n} is not C({n}, q)"
    return None


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def pool_size(requested: int, cosets: int, cpus: int) -> int:
    """Worker processes worth starting: at most one per usable CPU and one
    per top-level coset, and at least one."""
    return max(1, min(requested, cpus, cosets))


def _tower_counts(
    plan: TowerPlan,
    top_indices: Iterable[int] | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> np.ndarray:
    """(n+1, n+1) ascent counts of the elements under the given top-level
    cosets (all of them by default), one top-level coset at a time."""
    n = plan.system.rank
    positive = plan.roots.positive
    tails = np.ascontiguousarray(plan.tail_mats[:, :n])
    tails_inv_pos = np.ascontiguousarray(positive[plan.tail_invs].T)
    rows = max(1, GATHER_ELEMENTS // len(tails))
    tops = range(plan.top_size()) if top_indices is None else list(top_indices)
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    for done, top in enumerate(tops, start=1):
        pre, pre_inv = leaf_prefixes(plan, top)
        pre_pos = positive[pre]
        pre_inv = np.ascontiguousarray(pre_inv[:, :n])
        for s in range(0, len(pre), rows):
            _kernels.count_profiles_batch(
                pre_pos[s : s + rows], pre_inv[s : s + rows], tails, tails_inv_pos, out
            )
        if progress is not None:
            progress(done, len(tops))
    return out


# The plan a pool worker counts under, set once per worker by the pool
# initializer so it is sent to each worker once, not with every coset.
_WORKER_PLAN: TowerPlan | None = None


def _init_worker(plan: TowerPlan) -> None:
    global _WORKER_PLAN
    _WORKER_PLAN = plan


def _coset_worker(top: int) -> bytes:
    return _tower_counts(_WORKER_PLAN, [top]).tobytes()


def accumulate_ntable(
    system: CoxeterSystem,
    workers: int | None = 1,
    progress: Callable[[int, int], None] | None = None,
) -> NTable:
    """Exact N-table from `workers` processes (None: one per usable CPU);
    deterministic for any worker count.  `progress` is called after each
    finished top-level coset."""
    plan = tower_plan(system)
    top = plan.top_size()
    cpus = usable_cpus()
    procs = pool_size(cpus if workers is None else workers, top, cpus)
    if procs == 1:
        counts = _tower_counts(plan, progress=progress)
    else:
        n = system.rank
        counts = np.zeros((n + 1, n + 1), dtype=np.int64)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=procs, initializer=_init_worker, initargs=(plan,)
        ) as pool:
            for done, raw in enumerate(pool.map(_coset_worker, range(top)), start=1):
                counts += np.frombuffer(raw, dtype=np.int64).reshape(n + 1, n + 1)
                if progress is not None:
                    progress(done, top)
    table = NTable(
        n=system.rank,
        counts=tuple(tuple(int(x) for x in row) for row in counts),
    )
    failure = ntable_invariant_failure(table, system.order)
    if failure is not None:
        label = system_label(system.family, system.rank, system.m)
        raise AssertionError(f"{label}: {failure}")
    return table


def _keys(stack: np.ndarray) -> list[bytes]:
    """One byte key per element of a (2, N, n, n) stack: the tobytes() of its
    (2, n, n) matrix."""
    return [m.tobytes() for m in np.ascontiguousarray(np.moveaxis(stack, 1, 0))]


def _matrix_elements(system: CoxeterSystem) -> tuple[np.ndarray, np.ndarray]:
    """Every element as a root-coordinate matrix with its inverse, by
    breadth-first search on right multiplication by generators, one layer at
    a time.  Element w is mats[w], a (2, n, n) matrix, in BFS order."""
    n = system.rank
    e = _identity_mat(n)[:, None]
    gens = np.stack(system.generators, axis=1)[:, None]  # (2, 1, rank, n, n)
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
        self.system = system
        mats, invs = _matrix_elements(system)
        self.size = len(mats)
        stack = np.moveaxis(mats, 0, 1)
        index = {key: w for w, key in enumerate(_keys(stack))}

        def lookup(prod: np.ndarray) -> np.ndarray:
            return np.array([index[key] for key in _keys(prod)], dtype=np.intp)

        # left_perm[i - 1][w] is the index of s_i * w, right_perm[i - 1][w] of w * s_i
        self.left_perm = [lookup(ring_matmul(g, stack)) for g in system.generators]
        self.right_perm = [lookup(ring_matmul(stack, g)) for g in system.generators]
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
