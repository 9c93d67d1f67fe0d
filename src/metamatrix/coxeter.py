"""Finite Coxeter systems, their root systems, and the parabolic coset tower,
in python ints.

Coordinates are taken in the simple-root basis.  Crystallographic families
live over the integers, H3/H4 (and I2(5)) over Z[phi]: every coordinate is a
pair (a, b) standing for a + b*phi, so both cases are handled alike.
Positivity of a root is the exact all-coordinates-nonnegative test.

The enumeration works on root permutations (see `root_system`); the oracle
walks weight orbits with its own reflections from `cartan`
(`engine.group_table`).
"""

from __future__ import annotations

from typing import NamedTuple

from .tables import _edges, _group_order, check_catalog

_CHAIN_ORDERS = {
    "A": lambda n: list(range(1, n + 1)),
    "B": lambda n: list(range(n, 0, -1)),
    "D": lambda n: list(range(n, 0, -1)),
    "I2": lambda n: [1, 2],
    "H": lambda n: list(range(1, n + 1)),
    "F": lambda n: [1, 2, 3, 4],
    "E": lambda n: [1, 3, 4, 2, 5, 6, 7, 8][:n],
}

# Cartan pairs (c_ij, c_ji) per bond order, as (plain, phi) coefficients.
_BOND_CARTAN = {
    2: ((0, 0), (0, 0)),
    3: ((-1, 0), (-1, 0)),
    4: ((-1, 0), (-2, 0)),
    5: ((0, -1), (0, -1)),
    6: ((-1, 0), (-3, 0)),
}

ZPhi = tuple[int, int]  # a + b*phi


class CoxeterSystem(NamedTuple):
    family: str
    rank: int
    m: int | None
    coxeter_matrix: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[ZPhi, ...], ...]  # cartan[i][j], 0-based nodes
    order: int


def build_system(family: str, rank: int, m: int | None = None) -> CoxeterSystem:
    """Construct a finite Coxeter system from the catalog."""
    family = family.upper()
    check_catalog(family, rank, m)
    if family != "I2":
        m = None
    cox = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    cartan = [[(2, 0) if i == j else (0, 0) for j in range(rank)] for i in range(rank)]
    for (i, j), bond in _edges(family, rank, m).items():
        cox[i - 1][j - 1] = cox[j - 1][i - 1] = bond
        cartan[i - 1][j - 1], cartan[j - 1][i - 1] = _BOND_CARTAN[bond]
    return CoxeterSystem(
        family=family,
        rank=rank,
        m=m,
        coxeter_matrix=tuple(tuple(r) for r in cox),
        cartan=tuple(tuple(r) for r in cartan),
        order=_group_order(family, rank, m),
    )


def is_nonneg(a: int, b: int) -> bool:
    """Exact test a + b*phi >= 0.  Since a + b*phi = ((2a + b) + b*sqrt(5)) / 2,
    the sign is decided by comparing (2a + b)^2 with 5b^2 when the two terms
    disagree; no floating point."""
    s = 2 * a + b
    if b >= 0:
        return s >= 0 or 5 * b * b >= s * s
    return s >= 0 and s * s >= 5 * b * b


def reflect(system: CoxeterSystem, i: int, root: tuple[ZPhi, ...]) -> tuple[ZPhi, ...]:
    """s_{i+1}(root): only coordinate i changes, by the row i of the Cartan
    matrix applied to the root (phi^2 = phi + 1)."""
    a = b = 0
    for (ca, cb), (xa, xb) in zip(system.cartan[i], root):
        a += ca * xa + cb * xb
        b += ca * xb + cb * xa + cb * xb
    xa, xb = root[i]
    return root[:i] + ((xa - a, xb - b),) + root[i + 1 :]


# --------------------------------------------------------------------------
# Root permutations
#
# Every element w permutes the finite root system Phi, and w is determined by
# that permutation (indeed by the images of the simple roots).  The tower and
# the N-table walk work on these integer permutations only: a product is a
# lookup per root, and an ascent test is a lookup in the sign table of Phi.
# The Z[phi] arithmetic is confined to building Phi once (Casselman, "Machine
# calculations in Weyl groups", Invent. Math. 116, 1994; Bjorner-Brenti,
# GTM 231, ch. 4).

Perm = tuple[int, ...]


class RootSystem(NamedTuple):
    """Phi with its signs and the generator permutations.

    Root k has coordinates coords[k] (one (a, b) pair per simple root); the
    simple root alpha_j has index j - 1.  generators[i - 1][k] is the index
    of s_i(root k).
    """

    coords: tuple[tuple[ZPhi, ...], ...]
    positive: tuple[bool, ...]
    generators: tuple[Perm, ...]

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def size(self) -> int:
        return len(self.positive)


def root_system(system: CoxeterSystem) -> RootSystem:
    """Phi as the orbit of the simple roots under the generators, exactly: each
    root is reflected once by each generator, which also fills `generators`."""
    n = system.rank
    coords = [tuple((1, 0) if k == j else (0, 0) for k in range(n)) for j in range(n)]
    index = {root: k for k, root in enumerate(coords)}
    generators = [[] for _ in range(n)]
    for root in coords:  # grows as the search finds new roots
        for i, images in enumerate(generators):
            image = reflect(system, i, root)
            if image not in index:
                index[image] = len(coords)
                coords.append(image)
            images.append(index[image])
    return RootSystem(
        coords=tuple(coords),
        positive=tuple(all(is_nonneg(a, b) for a, b in root) for root in coords),
        generators=tuple(map(tuple, generators)),
    )


def inverse(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for r, image in enumerate(perm):
        out[image] = r
    return tuple(out)


def coset_transversal(
    roots: RootSystem, big_gens: list[int], small_gens: list[int]
) -> tuple[list[Perm], list[Perm]]:
    """Minimal-length left-coset representatives of W_small in W_big, as root
    permutations with their inverses.

    Orbit search on cosets by left multiplication.  By Deodhar's lemma, for a
    minimal representative u and a generator s, either s*u is minimal or
    s*u lies in the coset of u; so only minimal products (no right descent in
    `small_gens`) are kept and no reduction is needed.  Both tests read only
    s*u on the simple roots, so the whole product is built for a new coset only.
    """
    n = roots.rank
    small = [j - 1 for j in small_gens]
    positive = roots.positive
    reps = [tuple(range(roots.size))]
    seen = {reps[0][:n]}  # w is determined by the images of the simple roots
    for u in reps:  # grows as the search finds new cosets
        for i in big_gens:
            g = roots.generators[i - 1]
            head = tuple([g[r] for r in u[:n]])  # s_i * u on the simple roots
            if all(positive[head[j]] for j in small) and head not in seen:
                seen.add(head)
                reps.append(tuple([g[r] for r in u]))
    return reps, [inverse(u) for u in reps]


class TowerPlan(NamedTuple):
    """The parabolic coset tower W = T_n * ... * T_1 on root permutations.

    W_k, generated by the first k nodes of `order`, is T_k * W_{k-1}, where
    T_k holds the minimal left-coset representatives of W_{k-1} in W_k;
    `transversals[k - 1]` is T_k as (representatives, inverses), level 1
    first.  `tail_mats` is W_0 = {e}, which the N-table walk starts from
    without reading it.  `watched[k]` lists the nodes outside the first k
    that are adjacent to one of them, in increasing order: the nodes j whose
    images t(alpha_j), t in W_k, the walk carries (every other node outside
    is fixed by W_k).
    """

    system: CoxeterSystem
    roots: RootSystem
    order: tuple[int, ...]
    tail_mats: tuple[Perm, ...]
    transversals: list[tuple[list[Perm], list[Perm]]]
    watched: tuple[tuple[int, ...], ...]


def tower_plan(system: CoxeterSystem) -> TowerPlan:
    roots = root_system(system)
    n = system.rank
    order = tuple(_CHAIN_ORDERS[system.family](n))
    transversals = [
        coset_transversal(roots, order[:k], order[: k - 1]) for k in range(1, n + 1)
    ]
    total = 1
    for reps, _ in transversals:
        total *= len(reps)
    if total != system.order:
        raise AssertionError("tower decomposition does not cover the group")
    cox = system.coxeter_matrix
    watched = tuple(
        tuple(
            j
            for j in range(1, n + 1)
            if j not in order[:k] and any(cox[i - 1][j - 1] > 2 for i in order[:k])
        )
        for k in range(n + 1)
    )
    return TowerPlan(system, roots, order, (tuple(range(roots.size)),), transversals, watched)
