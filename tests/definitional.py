"""Definitional references on the oracle's matrix enumeration: every element
is enumerated as a root-coordinate matrix by the oracle's breadth-first
search (`engine.GroupTable`), and its ascent sets are read from the signs of
its columns and of its inverse's columns.  From these come the N-table, for
comparison with the enumeration engine, and the minimal double-coset
representatives, for comparison with the double-coset counts."""

from metamatrix.engine import group_table


def definitional_counts(system) -> list[list[int]]:
    n = system.rank
    table = group_table(system)
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for left, right in zip(table.left_masks, table.right_masks):
        counts[len(left)][len(right)] += 1
    return counts


def minimal_reps_count(system, left, right) -> int:
    """#{w : I contained in L(w), J contained in R(w)}: by the ^I W^J
    bijection, the number of double cosets W_I \\ W / W_J."""
    table = group_table(system)
    left = frozenset(left)
    right = frozenset(right)
    return sum(
        1
        for w in range(table.size)
        if left <= table.left_masks[w] and right <= table.right_masks[w]
    )
