"""Definitional references.  On the oracle's group table
(`engine.GroupTable`), every element's length is its breadth-first distance
from e under right multiplication by generators, and its ascent sets are
read from lengths by definition: i is a right (left) ascent of w when
l(w * s_i) (l(s_i * w)) exceeds l(w).  From these come the N-table, for
comparison with the enumeration engine, and the minimal double-coset
representatives, for comparison with the double-coset counts.  Above the
oracle's limit, `gather_counts` counts the N-table element by element on
the tower's root permutations."""

from functools import cache

from metamatrix.coxeter import tower_plan
from metamatrix.engine import group_table


@cache
def ascent_sets(system) -> tuple[list[frozenset], list[frozenset]]:
    """(left, right): the left and right ascent sets of every element, in
    the group table's element order, as sets of generators 1..n."""
    table = group_table(system)
    left = [perm.tolist() for perm in table.left_perm]
    right = [perm.tolist() for perm in table.right_perm]
    length = [-1] * table.size
    length[0] = 0  # element 0 is e
    frontier = [0]
    while frontier:
        fresh = []
        for w in frontier:
            for perm in right:
                v = perm[w]
                if length[v] < 0:
                    length[v] = length[w] + 1
                    fresh.append(v)
        frontier = fresh

    def ascents(perms, w):
        return frozenset(i for i, perm in enumerate(perms, 1) if length[perm[w]] > length[w])

    return (
        [ascents(left, w) for w in range(table.size)],
        [ascents(right, w) for w in range(table.size)],
    )


def definitional_counts(system) -> list[list[int]]:
    n = system.rank
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for left, right in zip(*ascent_sets(system)):
        counts[len(left)][len(right)] += 1
    return counts


def minimal_reps_count(system, left, right) -> int:
    """#{w : I contained in L(w), J contained in R(w)}: by the ^I W^J
    bijection, the number of double cosets W_I \\ W / W_J."""
    left = frozenset(left)
    right = frozenset(right)
    return sum(
        1 for lefts, rights in zip(*ascent_sets(system)) if left <= lefts and right <= rights
    )


def gather_counts(system) -> list[list[int]]:
    """The N-table element by element, for groups above the oracle's reach:
    every w = u * t, with u in the top transversal of the tower plan and t
    in W_{n-1} (all products of the lower transversals), by numpy gathers on
    root permutations.  w(alpha_j) = u(t(alpha_j)) and
    w^{-1}(alpha_i) = t^{-1}(u^{-1}(alpha_i)), so each side's ascents are
    sign lookups."""
    import numpy as np

    plan = tower_plan(system)
    n = system.rank
    positive = np.array(plan.roots.positive)
    elems = invs = np.array(plan.tail_mats, dtype=np.int16)
    for reps, rep_invs in plan.transversals[:-1]:
        reps, rep_invs = np.array(reps, dtype=np.int16), np.array(rep_invs, dtype=np.int16)
        # (u * t)(r) = u[t[r]], (u * t)^{-1}(r) = t^{-1}[u^{-1}[r]]
        elems, invs = (
            reps[:, elems].reshape(-1, plan.roots.size),
            invs[:, rep_invs].transpose(1, 0, 2).reshape(-1, plan.roots.size),
        )
    counts = np.zeros((n + 1) ** 2, dtype=np.int64)
    for u, u_inv in zip(*plan.transversals[-1]):
        right = positive[np.array(u)[elems[:, :n]]].sum(axis=1)
        left = positive[invs[:, list(u_inv[:n])]].sum(axis=1)
        counts += np.bincount(left * (n + 1) + right, minlength=(n + 1) ** 2)
    return counts.reshape(n + 1, n + 1).tolist()
