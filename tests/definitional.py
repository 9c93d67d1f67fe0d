"""Definitional references, independent of the package's pipelines: only
the Cartan matrix c is read, never the root system, the tower or the oracle.

Every element w is expanded, by breadth-first search, as its matrix over
Z[phi] in python ints: a flat tuple of columns, column j the simple-root
coordinates of w(alpha_j), each as its rational part and then its phi part.
Since s_i(alpha_j) = alpha_j - c_ij * alpha_i, w * s_i changes only the
columns adjacent to i (col_j -= c_ij * col_i), and s_i * w only row i.

An element's length is its breadth-first distance from e, and i is a right
(left) ascent of w when l(w * s_i) (l(s_i * w)) exceeds l(w).  From these
come the N-table and the minimal double-coset representatives; the orbits
of the element indices under the generator permutations count the double
cosets a second way."""

from functools import cache
from itertools import chain, combinations
from typing import NamedTuple

from metamatrix.tables import EnumerationLimit

# Largest group order the reference expands in memory: H4 (14,400) is under
# it, D6 (23,040) and E6 (51,840) are not.
REFERENCE_LIMIT = 20_000


def _neighbours(system, i):
    """(j, c_ij) for every node j != i with c_ij != 0, 0-based."""
    return [(j, c) for j, c in enumerate(system.cartan[i]) if j != i and c != (0, 0)]


def identity(n: int) -> tuple[int, ...]:
    """The matrix of e: entry (j, j) of column j sits at 2n * j + 2j."""
    return tuple(int(k % (2 * n + 2) == 0) for k in range(2 * n * n))


def times_generator(system, w: tuple[int, ...], i: int) -> tuple[int, ...]:
    """w * s_{i+1}: col_i -> -col_i, and col_j -= c_ij * col_i for each
    neighbour j (phi^2 = phi + 1)."""
    n2 = 2 * system.rank
    out = list(w)
    col = w[n2 * i : n2 * (i + 1)]
    out[n2 * i : n2 * (i + 1)] = [-x for x in col]
    for j, (ca, cb) in _neighbours(system, i):
        for k in range(0, n2, 2):
            xa, xb = col[k], col[k + 1]
            out[n2 * j + k] -= ca * xa + cb * xb
            out[n2 * j + k + 1] -= ca * xb + cb * xa + cb * xb
    return tuple(out)


def generator_times(system, w: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_{i+1} * w, for a flat tuple of any number of columns: in each column
    x_i -> x_i - sum_k c_ik * x_k = -x_i - sum over neighbours k of c_ik * x_k
    (phi^2 = phi + 1)."""
    n2 = 2 * system.rank
    nbrs = _neighbours(system, i)
    out = list(w)
    for col in range(2 * i, len(w), n2):  # col - 2i starts a column
        a, b = -w[col], -w[col + 1]
        for j, (ca, cb) in nbrs:
            xa, xb = w[col + 2 * (j - i)], w[col + 2 * (j - i) + 1]
            a -= ca * xa + cb * xb
            b -= ca * xb + cb * xa + cb * xb
        out[col], out[col + 1] = a, b
    return tuple(out)


class GroupTable(NamedTuple):
    """Every element in breadth-first order (element 0 is e): mats[w] is its
    matrix and index[mats[w]] = w; length[w] is l(w); left[i - 1][w] is the
    index of s_i * w, right[i - 1][w] that of w * s_i, inverse[w] that of
    w^{-1}."""

    mats: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    length: list[int]
    left: list[list[int]]
    right: list[list[int]]
    inverse: list[int]


@cache
def group_table(system) -> GroupTable:
    if system.order > REFERENCE_LIMIT:
        raise EnumerationLimit(
            f"reference limited to groups of order <= {REFERENCE_LIMIT} "
            f"(|W| = {system.order})"
        )
    n = system.rank
    mats = [identity(n)]
    index = {mats[0]: 0}
    length = [0]
    parent = [(0, 0)]  # (u, i): w = u * s_{i+1}, first met that way
    right = [[] for _ in range(n)]
    for u, mat in enumerate(mats):  # visits the elements appended below too
        for i in range(n):
            v = times_generator(system, mat, i)
            w = index.get(v)
            if w is None:
                w = index[v] = len(mats)
                mats.append(v)
                length.append(length[u] + 1)
                parent.append((u, i))
            right[i].append(w)
    left = [[index[generator_times(system, mat, i)] for mat in mats] for i in range(n)]
    # w = u * s_i gives w^{-1} = s_i * u^{-1}, with u before w in this order
    inverse = [0]
    for u, i in parent[1:]:
        inverse.append(left[i][inverse[u]])
    return GroupTable(mats, index, length, left, right, inverse)


@cache
def ascent_sets(system) -> tuple[list[frozenset], list[frozenset]]:
    """(left, right): the left and right ascent sets of every element, in
    the group table's element order, as sets of generators 1..n."""
    table = group_table(system)
    length = table.length

    def ascents(perms, w):
        return frozenset(i for i, perm in enumerate(perms, 1) if length[perm[w]] > length[w])

    elements = range(len(table.mats))
    return [ascents(table.left, w) for w in elements], [ascents(table.right, w) for w in elements]


def definitional_counts(system) -> list[list[int]]:
    n = system.rank
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for left, right in zip(*ascent_sets(system)):
        counts[len(left)][len(right)] += 1
    return counts


def subsets(n: int):
    """Every set of generators of a rank-n system, as a tuple, by size."""
    items = range(1, n + 1)
    return chain.from_iterable(combinations(items, k) for k in range(n + 1))


def mask(gens) -> int:
    """The bit mask of a set of generators: bit i - 1 for generator i."""
    return sum(1 << (i - 1) for i in gens)


def coset_counts(system) -> list[list[int]]:
    """counts[mask(J)][mask(I)] = #{w : I contained in L(w), J contained in
    R(w)}, for every (I, J) at once: the histogram of (L(w), R(w)) as one
    2n-bit mask, summed over supersets.  By the ^I W^J bijection
    (Bjorner-Brenti, GTM 231) this is the number of double cosets
    W_I \\ W / W_J."""
    n = system.rank
    hist = [0] * (1 << 2 * n)
    for lefts, rights in zip(*ascent_sets(system)):
        hist[mask(lefts) | mask(rights) << n] += 1
    for bit in range(2 * n):
        for m in range(1 << 2 * n):
            if not m >> bit & 1:
                hist[m] += hist[m | 1 << bit]
    return [hist[right << n : (right + 1) << n] for right in range(1 << n)]


def orbit_coset_count(system, left, right) -> int:
    """|W_I \\ W / W_J|: the orbits of the element indices under left
    multiplication by s_i (i in I) and right multiplication by s_j (j in J),
    by breadth-first search from every element not yet reached."""
    table = group_table(system)
    perms = [table.left[i - 1] for i in left] + [table.right[j - 1] for j in right]
    seen = [False] * len(table.mats)
    orbits = 0
    for start in range(len(seen)):
        if seen[start]:
            continue
        orbits += 1
        seen[start] = True
        queue = [start]
        for x in queue:  # visits the points appended below too
            for perm in perms:
                y = perm[x]
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
    return orbits
