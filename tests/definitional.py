"""Definitional references, independent of the package's oracle.

The group table below is a breadth-first search over every element as a
root-coordinate matrix over Z[phi] (numpy, as the tests' reference only),
with the generator permutations of the element indices; `orbit_count`
counts double cosets on it as orbit labels.  On that table every element's
length is its breadth-first distance from e under right multiplication by
generators, and its ascent sets are read from lengths by definition: i is a
right (left) ascent of w when l(w * s_i) (l(s_i * w)) exceeds l(w).  From
these come the N-table, for comparison with the enumeration engine, and the
minimal double-coset representatives, for comparison with the double-coset
counts.  Above `REFERENCE_LIMIT`, `gather_counts` counts the N-table element
by element on the tower's root permutations."""

from functools import cache

import numpy as np

from metamatrix.coxeter import tower_plan
from metamatrix.tables import EnumerationLimit

# Largest group order the reference expands in memory: H4 (14,400) is under
# it, D6 (23,040) and E6 (51,840) are not.
REFERENCE_LIMIT = 20_000

# Every element as a matrix over Z[phi], stored as an integer array of shape
# (2, n, n) (layer 0 the rational part, layer 1 the phi part); the matrix of w
# has column j equal to the coordinates of w(alpha_j).


def ring_matmul(x, y):
    """Product of two matrices over Z[phi] (phi^2 = phi + 1) in two-layer
    representation."""
    a = x[0] @ y[0] + x[1] @ y[1]
    b = x[0] @ y[1] + x[1] @ y[0] + x[1] @ y[1]
    return np.stack((a, b))


def _identity_mat(rank: int):
    out = np.zeros((2, rank, rank), dtype=np.int64)
    out[0] += np.eye(rank, dtype=np.int64)
    return out


def generator_matrices(system) -> list:
    """The matrix of each s_i: the identity with row i of the Cartan matrix
    subtracted from row i."""
    cartan = np.moveaxis(np.array(system.cartan, dtype=np.int64), 2, 0)  # (2, n, n)
    gens = []
    for i in range(system.rank):
        g = _identity_mat(system.rank)
        g[:, i, :] -= cartan[:, i, :]
        g.setflags(write=False)
        gens.append(g)
    return gens


def _keys(stack) -> list[bytes]:
    """One byte key per element of a (2, N, n, n) stack: the tobytes() of its
    (2, n, n) matrix."""
    return [m.tobytes() for m in np.ascontiguousarray(np.moveaxis(stack, 1, 0))]


def _matrix_elements(system):
    """Every element as a root-coordinate matrix, by breadth-first search on
    right multiplication by generators, one layer at a time.  Element w is
    mats[w], a (2, n, n) matrix, in BFS order; `index` maps the bytes of
    mats[w] to w, and right[i - 1][w], recorded as the search meets each
    product, is the index of w * s_i."""
    n = system.rank
    e = _identity_mat(n)[:, None]
    gens = np.stack(generator_matrices(system), axis=1)[:, None]  # (2, 1, rank, n, n)
    mats, blocks = [e], []
    index = {_keys(e)[0]: 0}
    frontier = e
    while frontier.shape[1]:
        # u * s_i for every frontier element u and generator s_i, u-major
        prod = ring_matmul(frontier[:, :, None], gens).reshape(2, -1, n, n)
        new, found = [], []
        for k, key in enumerate(_keys(prod)):
            w = index.get(key)
            if w is None:
                w = index[key] = len(index)
                new.append(k)
            found.append(w)
        blocks.append(np.array(found, dtype=np.intp).reshape(-1, n))
        frontier = prod[:, new]
        mats.append(frontier)
    mats = np.ascontiguousarray(np.moveaxis(np.concatenate(mats, axis=1), 1, 0))
    return mats, index, np.ascontiguousarray(np.concatenate(blocks).T)


class GroupTable:
    """Fully expanded small group: the generator permutations of the element
    indices."""

    def __init__(self, system):
        if system.order > REFERENCE_LIMIT:
            raise EnumerationLimit(
                f"reference limited to groups of order <= {REFERENCE_LIMIT} "
                f"(|W| = {system.order})"
            )
        mats, index, right = _matrix_elements(system)
        self.size = len(mats)
        stack = np.moveaxis(mats, 0, 1)
        # left_perm[i - 1][w] is the index of s_i * w, right_perm[i - 1][w] of w * s_i
        self.left_perm = [
            np.array([index[key] for key in _keys(ring_matmul(g, stack))], dtype=np.intp)
            for g in generator_matrices(system)
        ]
        self.right_perm = list(right)


@cache
def group_table(system) -> GroupTable:
    return GroupTable(system)


def orbit_count(size: int, perms) -> int:
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


def orbit_coset_count(system, left, right) -> int:
    """|W_I \\ W / W_J|: the orbits of the element indices under left
    multiplication by s_i (i in I) and right multiplication by s_j (j in J)."""
    table = group_table(system)
    perms = [table.left_perm[i - 1] for i in left] + [table.right_perm[j - 1] for j in right]
    return orbit_count(table.size, perms)


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


def coset_counts(system) -> list[list[int]]:
    """counts[J][I] = #{w : I contained in L(w), J contained in R(w)} over bit
    masks (bit i - 1 for generator i), for every (I, J) at once: the
    histogram of (L(w), R(w)) as one 2n-bit mask, summed over supersets."""
    n = system.rank
    hist = [0] * (1 << 2 * n)
    for lefts, rights in zip(*ascent_sets(system)):
        hist[sum(1 << (i - 1) for i in lefts) | sum(1 << (n + j - 1) for j in rights)] += 1
    for bit in range(2 * n):
        for mask in range(1 << 2 * n):
            if not mask >> bit & 1:
                hist[mask] += hist[mask | 1 << bit]
    return [hist[right << n : (right + 1) << n] for right in range(1 << n)]


def gather_counts(system) -> list[list[int]]:
    """The N-table element by element, for groups above REFERENCE_LIMIT:
    every w = u * t, with u in the top transversal of the tower plan and t
    in W_{n-1} (all products of the lower transversals), by numpy gathers on
    root permutations.  w(alpha_j) = u(t(alpha_j)) and
    w^{-1}(alpha_i) = t^{-1}(u^{-1}(alpha_i)), so each side's ascents are
    sign lookups."""
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
