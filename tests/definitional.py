"""The definitional N-table, for comparison with the enumeration engine:
every element is enumerated as a root-coordinate matrix by breadth-first
search, and its ascent sets are read from the signs of its columns and of
its inverse's columns."""

from metamatrix.coxeter import descent_profile, enumerate_bfs


def definitional_counts(system) -> list[list[int]]:
    n = system.rank
    counts = [[0] * (n + 1) for _ in range(n + 1)]

    def visit(w):
        p = descent_profile(w)
        counts[len(p.left_ascents)][len(p.right_ascents)] += 1

    enumerate_bfs(system, visit)
    return counts
