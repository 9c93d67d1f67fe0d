"""Metamatrix pipelines: descent-statistics enumeration, and the double-coset
oracle.  The result tables they return, the closed-form dihedral table and
the invariant checks live in `tables`.

The N-table counts elements by (#left ascents, #right ascents); the
metamatrix is its binomial transform.  Every enumerable group, golden or
crystallographic, is counted by a walk up the parabolic coset tower that
carries a histogram of ascent states (see `_kernels`).  The oracle, an
independent cross-check that shares nothing with the root system or the
tower, sums double-coset counts, each counted as chamber points on the
orbit of a weight.  Both work in python ints; nothing here imports numpy.
"""

from __future__ import annotations

from typing import Iterable

from . import _kernels
from .coxeter import CoxeterSystem, is_nonneg, tower_plan
from .tables import (
    EnumerationLimit,
    Metamatrix,
    NTable,
    metamatrix_from_ntable,  # cli calls it by this name, which perfbench/tracing.py times
    ntable_invariant_failure,
    system_label,
)

# Recorded in every cached N-table; bump it when a change to the enumeration
# could change a table, so entries written by older code are recomputed.
ENGINE_VERSION = 2


def accumulate_ntable(system: CoxeterSystem) -> NTable:
    """Exact N-table by the state-histogram walk up the coset tower, one
    level at a time."""
    plan = tower_plan(system)
    n = system.rank
    histogram = {(0, 0, ()): len(plan.tail_mats)}  # W_0 = {e}: no ascents, nothing watched
    for k in range(1, n + 1):
        histogram = _kernels.count_profiles_batch(plan, k, histogram)
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
# The oracle: |W_I \ W / W_J| counted on the orbit of a weight, with no element
# ever enumerated.  A weight is a linear form mu on the root space, written by
# its values mu_i = mu(alpha_i) over Z[phi] as 2n python ints (the plain
# parts, then the phi parts): the coordinates in the fundamental weights, up
# to the scaling of each coroot.  W acts by (w mu)(x) = mu(w^-1 x); since
# s_i x = x - (row i of cartan) . x * alpha_i, s_i mu = mu - mu_i * cartan[i],
# which changes coordinate i and the graph neighbours of i only.  The
# fundamental chamber is {mu_i >= 0 for all i}.  By Chevalley's lemma
# (Humphreys, Reflection Groups and Coxeter Groups, 1.12) the stabilizer of
# lambda_J (1 off J, 0 on J) is exactly W_J, so W / W_J is the orbit
# W lambda_J, and each W_I-orbit on it meets the closed W_I chamber
# {mu_i >= 0 for all i in I} exactly once.


# Largest group order the oracle walks: E6 (51,840), B6, A7 and D6 are under
# it, D7 (322,560), A8 and B7 are not.
ORACLE_LIMIT = 60_000


def _chamber_histogram(moves: list, lam: tuple[int, ...]) -> list[int]:
    """hist[mask]: the points mu of the orbit W lam, for dominant lam, with
    {i : mu_i >= 0} = mask (bit i - 1 for node i).  `moves[mask]` lists the
    steps from a point of that mask, as `_coset_counts` builds them.

    The walk goes down from lam one step s_i at a time, from mu_i > 0 to
    s_i mu, which is one reflection further from lam.  Each point other than
    lam is reached from one parent only, s_i mu for i its first negative
    coordinate, so the orbit is walked as a tree and needs no visited set.
    Off-diagonal Cartan entries are <= 0, so s_i raises every neighbour of i
    and leaves the other coordinates alone: a nonnegative coordinate stays
    nonnegative, and only the negative neighbours need a sign test.
    """
    n = len(lam) // 2
    hist = [0] * (1 << n)
    stack = [(lam, sum(1 << i for i in range(n) if is_nonneg(lam[i], lam[n + i])))]
    while stack:
        mu, mask = stack.pop()
        hist[mask] += 1
        for i, low, nbrs in moves[mask]:
            a, b = mu[i], mu[n + i]
            if not (a or b):
                continue  # s_i fixes mu
            new = list(mu)
            new[i], new[n + i] = -a, -b
            new_mask = mask ^ 1 << i
            for j, ca, cb in nbrs:  # mu_j - mu_i * c_ij, phi^2 = phi + 1
                x = new[j] = new[j] - a * ca - b * cb
                y = new[n + j] = new[n + j] - a * cb - b * ca - b * cb
                if not new_mask >> j & 1 and is_nonneg(x, y):
                    new_mask |= 1 << j
            if new_mask & low == low:
                stack.append((tuple(new), new_mask))
    return hist


def _coset_counts(system: CoxeterSystem) -> list[list[int]]:
    """counts[J][I] = |W_I \\ W / W_J| over bit masks of nodes: the points of
    W lambda_J in the closed W_I chamber, the sum of the orbit's histogram
    over the masks that contain I (one superset-sum pass per node).  The
    tables of the walk are built once, for every orbit."""
    n = system.rank
    # the steps s_i of the walk, with the neighbours j of i and c_ij
    steps = [
        [(j, ca, cb) for j, (ca, cb) in enumerate(row) if j != i and (ca or cb)]
        for i, row in enumerate(system.cartan)
    ]
    below = [(1 << i) - 1 for i in range(n)]
    # s_i mu has first negative coordinate i only if mu is already
    # nonnegative on the nodes below i that s_i does not touch
    untouched = [below[i] & ~sum(1 << j for j, _, _ in steps[i]) for i in range(n)]
    moves = [
        [(i, below[i], steps[i]) for i in range(n)
         if mask >> i & 1 and mask & untouched[i] == untouched[i]]
        for mask in range(1 << n)
    ]
    counts = [[system.order]]
    for right in range(1, 1 << n):
        lam = tuple(0 if right >> j & 1 else 1 for j in range(n)) + (0,) * n
        hist = _chamber_histogram(moves, lam)
        for bit in (1 << i for i in range(n)):
            for mask in range(1 << n):
                if not mask & bit:
                    hist[mask] += hist[mask | bit]
        counts.append(hist)
    # J empty: |W_I \ W| = |W lambda_I|, the whole orbit walked for I
    counts[0] += [counts[left][0] for left in range(1, 1 << n)]
    return counts


_TABLE_CACHE: dict[tuple[str, int, int | None], list[list[int]]] = {}


def group_table(system: CoxeterSystem) -> list[list[int]]:
    """The double-coset counts of `system` as `_coset_counts` lays them out,
    computed once per system."""
    if system.order > ORACLE_LIMIT:
        raise EnumerationLimit(
            f"oracle method limited to groups of order <= {ORACLE_LIMIT} "
            f"(|W| = {system.order})"
        )
    key = (system.family, system.rank, system.m)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = _coset_counts(system)
    return _TABLE_CACHE[key]


def double_coset_count(
    system: CoxeterSystem, left: Iterable[int], right: Iterable[int]
) -> int:
    """|W_I \\ W / W_J| for I = `left` and J = `right`, generators 1..n."""
    return group_table(system)[_mask(right)][_mask(left)]


def _mask(gens: Iterable[int]) -> int:
    return sum(1 << (i - 1) for i in set(gens))


def metamatrix_bruteforce(system: CoxeterSystem) -> Metamatrix:
    """Entrywise sums of double-coset counts over all subset pairs: entry
    (p, q) sums `group_table` over the left masks of p nodes and the right
    masks of q nodes."""
    n = system.rank
    entries = [[0] * (n + 1) for _ in range(n + 1)]
    for right, row in enumerate(group_table(system)):
        for left, count in enumerate(row):
            entries[left.bit_count()][right.bit_count()] += count
    return Metamatrix(n=n, entries=tuple(map(tuple, entries)))


# `coxeter.is_nonneg` by the name the tests import and perfbench/tracing.py
# times; no pipeline calls it
nonneg_grid = is_nonneg
