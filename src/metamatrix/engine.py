"""Metamatrix pipelines on numpy: descent-statistics enumeration and the
brute-force double-coset oracle.  The result tables they return, the
closed-form dihedral table and the invariant checks live in `tables`.

The N-table counts elements by (#left ascents, #right ascents); the
metamatrix is its binomial transform.  Every enumerable group, golden or
crystallographic, is streamed through the parabolic coset tower as root
permutations (see `coxeter.root_system`); the oracle keeps its own matrix
enumeration, so it stays an independent cross-check.
"""

from __future__ import annotations

import concurrent.futures
import os
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from . import _kernels
from .coxeter import (
    CoxeterSystem,
    TowerPlan,
    _identity_mat,
    leaf_prefixes,
    nonneg_grid,
    ring_matmul,
    tower_plan,
)
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

# Recorded in every cached N-table; bump it when a change to the enumeration
# could change a table, so entries written by older code are recomputed.
ENGINE_VERSION = 2

# Upper bound on the products one leaf gather covers (its uint8 work arrays
# and the bincount index array scale with it).
GATHER_ELEMENTS = 1 << 18


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
