"""The definitional N-table, for comparison with the enumeration engine:
every element is enumerated as a root-coordinate matrix by the oracle's
breadth-first search (`engine.GroupTable`), and its ascent sets are read
from the signs of its columns and of its inverse's columns."""

from metamatrix.engine import group_table


def definitional_counts(system) -> list[list[int]]:
    n = system.rank
    table = group_table(system)
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for left, right in zip(table.left_masks, table.right_masks):
        counts[len(left)][len(right)] += 1
    return counts
