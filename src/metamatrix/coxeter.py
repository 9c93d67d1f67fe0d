"""Finite Coxeter systems, their root systems, and the parabolic coset tower.

Group elements act on the simple-root basis; the matrix of w has column j
equal to the coordinates of w(alpha_j).  Crystallographic families live over
the integers, H3/H4 (and I2(5)) over Z[phi].  Both cases are stored uniformly
as integer arrays of shape (2, n, n): layer 0 the rational part, layer 1 the
phi part.  Positivity of a root is the exact all-coordinates-nonnegative test
on its column.

The enumeration works on root permutations instead (see `root_system`): the
generator matrices are used only to build the root system once and by the
oracle's own matrix enumeration (`engine.GroupTable`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .goldring import nonneg_grid

TAIL_CAP = 4000

_CHAIN_ORDERS = {
    "A": lambda n: list(range(1, n + 1)),
    "B": lambda n: list(range(n, 0, -1)),
    "D": lambda n: list(range(n, 0, -1)),
    "I2": lambda n: [1, 2],
    "H": lambda n: list(range(1, n + 1)),
    "F": lambda n: [1, 2, 3, 4],
    "E": lambda n: [1, 3, 4, 2, 5, 6, 7, 8][:n],
}

# Dihedral groups realizable with exact matrix entries: integers for
# m in {2,3,4,6}, Z[phi] for m=5 (2*cos(pi/5) = phi).
_I2_MATRIX_M = {2, 3, 4, 5, 6}

# The exceptional families exist only at these ranks, with these orders.
_EXCEPTIONAL_ORDERS = {
    "H": {3: 120, 4: 14400},
    "F": {4: 1152},
    "E": {6: 51840, 7: 2903040, 8: 696729600},
}

# The catalog: the ranks `build_system` supports in each family.
_RANKS = {
    "A": range(1, 9),
    "B": range(1, 9),
    "D": range(4, 9),
    "I2": (2,),
    **_EXCEPTIONAL_ORDERS,
}


class UnsupportedSystem(ValueError):
    pass


class EnumerationLimit(RuntimeError):
    pass


def _edges(family: str, rank: int, m: int | None) -> dict[tuple[int, int], int]:
    """Coxeter-diagram bond orders keyed by node pairs (1-based, i<j)."""
    chain = {(i, i + 1): 3 for i in range(1, rank)}
    if family == "A":
        return chain
    if family == "B":
        if rank >= 2:
            chain[(rank - 1, rank)] = 4
        return chain
    if family == "D":
        chain.pop((rank - 1, rank))
        chain[(rank - 2, rank)] = 3
        return chain
    if family == "I2":
        return {(1, 2): m}
    if family == "H":
        chain[(1, 2)] = 5
        return chain
    if family == "F":
        chain[(2, 3)] = 4
        return chain
    if family == "E":
        edges = {(i, i + 1): 3 for i in range(3, rank)}
        edges[(1, 3)] = 3
        edges[(2, 4)] = 3
        return edges
    raise UnsupportedSystem(f"unknown family {family!r}")


def _group_order(family: str, rank: int, m: int | None) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family == "B":
        return 2**rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    if family == "I2":
        return 2 * m
    orders = _EXCEPTIONAL_ORDERS.get(family, {})
    if rank not in orders:
        raise _unsupported(family, rank, m)
    return orders[rank]


# Cartan pairs (c_ij, c_ji) per bond order, as (plain, phi) coefficients.
_BOND_CARTAN = {
    2: ((0, 0), (0, 0)),
    3: ((-1, 0), (-1, 0)),
    4: ((-1, 0), (-2, 0)),
    5: ((0, -1), (0, -1)),
    6: ((-1, 0), (-3, 0)),
}


@dataclass(frozen=True)
class CoxeterSystem:
    family: str
    rank: int
    m: int | None
    golden: bool
    coxeter_matrix: tuple[tuple[int, ...], ...]
    cartan: np.ndarray  # (2, n, n) int64
    order: int
    generators: tuple[np.ndarray, ...] = field(repr=False)  # matrices of s_i


def system_label(family: str, rank: int, m: int | None) -> str:
    """The name of a system in messages and cache file names: B3, I2m5."""
    return f"{family}{rank}" if m is None else f"{family}m{m}"


def _unsupported(family: str, rank: int, m: int | None) -> UnsupportedSystem:
    return UnsupportedSystem(
        f"unsupported Coxeter system family={family!r} rank={rank} m={m}; "
        "supported: A1-A8, B1-B8, D4-D8, I2(m) for m in {2,3,4,5,6}, "
        "H3, H4, F4, E6, E7, E8"
    )


def build_system(family: str, rank: int, m: int | None = None) -> CoxeterSystem:
    """Construct a finite Coxeter system from the catalog."""
    family = family.upper()
    if rank not in _RANKS.get(family, ()) or (family == "I2" and m not in _I2_MATRIX_M):
        raise _unsupported(family, rank, m)
    if family != "I2":
        m = None
    edges = _edges(family, rank, m)

    cox = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    cartan = np.zeros((2, rank, rank), dtype=np.int64)
    cartan[0] += 2 * np.eye(rank, dtype=np.int64)
    for (i, j), bond in edges.items():
        cox[i - 1][j - 1] = cox[j - 1][i - 1] = bond
        (cij_a, cij_b), (cji_a, cji_b) = _BOND_CARTAN[bond]
        cartan[0, i - 1, j - 1] = cij_a
        cartan[1, i - 1, j - 1] = cij_b
        cartan[0, j - 1, i - 1] = cji_a
        cartan[1, j - 1, i - 1] = cji_b
    golden = bool(cartan[1].any())

    gens = []
    for i in range(rank):
        g = np.zeros((2, rank, rank), dtype=np.int64)
        g[0] += np.eye(rank, dtype=np.int64)
        g[0, i, :] -= cartan[0, i, :]
        g[1, i, :] -= cartan[1, i, :]
        g.setflags(write=False)
        gens.append(g)

    cartan.setflags(write=False)
    return CoxeterSystem(
        family=family,
        rank=rank,
        m=m,
        golden=golden,
        coxeter_matrix=tuple(tuple(r) for r in cox),
        cartan=cartan,
        order=_group_order(family, rank, m),
        generators=tuple(gens),
    )


def ring_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of two matrices over Z[phi] in two-layer representation."""
    a = x[0] @ y[0] + x[1] @ y[1]
    b = x[0] @ y[1] + x[1] @ y[0] + x[1] @ y[1]
    out = np.stack((a, b))
    return out


def _identity_mat(rank: int) -> np.ndarray:
    out = np.zeros((2, rank, rank), dtype=np.int64)
    out[0] += np.eye(rank, dtype=np.int64)
    return out


# --------------------------------------------------------------------------
# Root permutations
#
# Every element w permutes the finite root system Phi, and w is determined by
# that permutation (indeed by the images of the simple roots).  The tower and
# the N-table kernel work on these integer permutations only: a product is a
# gather, and an ascent test is a lookup in the sign table of Phi.  The exact
# Z[phi] arithmetic is confined to building Phi once (Casselman, "Machine
# calculations in Weyl groups", Invent. Math. 116, 1994; Bjorner-Brenti,
# GTM 231, ch. 4).


@dataclass(frozen=True)
class RootSystem:
    """Phi with its signs and the generator permutations.

    Root k has coordinates coords[:, :, k] in the simple-root basis (layer 0
    the rational part, layer 1 the phi part); the simple root alpha_j has
    index j - 1.  generators[i - 1][k] is the index of s_i(root k).
    """

    coords: np.ndarray  # (2, n, R) int64
    positive: np.ndarray  # (R,) bool
    generators: np.ndarray  # (n, R) intp

    @property
    def rank(self) -> int:
        return self.coords.shape[1]

    @property
    def size(self) -> int:
        return self.positive.shape[0]


def _column_keys(vectors: np.ndarray) -> list[bytes]:
    """Hashable key per column of a (2, n, k) coordinate stack."""
    rows = np.ascontiguousarray(vectors.transpose(2, 0, 1))
    return [row.tobytes() for row in rows]


def root_system(system: CoxeterSystem) -> RootSystem:
    """Phi as the orbit of the simple roots under the generators, exactly."""
    n = system.rank
    simple = _identity_mat(n)  # columns: the simple roots
    index = {key: k for k, key in enumerate(_column_keys(simple))}
    found = [simple]
    frontier = simple
    while frontier.shape[2]:
        fresh = []
        for g in system.generators:
            images = ring_matmul(g, frontier)
            for col, key in enumerate(_column_keys(images)):
                if key not in index:
                    index[key] = len(index)
                    fresh.append(images[:, :, col])
        frontier = np.stack(fresh, axis=2) if fresh else simple[:, :, :0]
        found.append(frontier)
    coords = np.concatenate(found, axis=2)
    positive = nonneg_grid(coords[0], coords[1]).all(axis=0)
    generators = np.array(
        [[index[key] for key in _column_keys(ring_matmul(g, coords))]
         for g in system.generators],
        dtype=np.intp,
    ).reshape(n, -1)
    for arr in (coords, positive, generators):
        arr.setflags(write=False)
    return RootSystem(coords, positive, generators)


def _perm_key(perm: np.ndarray, rank: int) -> bytes:
    # w is determined by the images of the simple roots (a basis)
    return perm[:rank].tobytes()


def _products(
    left: tuple[np.ndarray, np.ndarray], right: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Every product u * v of u in `left` and v in `right` (u-major), with
    inverses; each side is a pair (elements, inverses) of (., R) arrays."""
    (us, us_inv), (vs, vs_inv) = left, right
    size = us.shape[1]
    prods = us[:, vs].reshape(-1, size)  # (u * v)(r) = u[v[r]]
    invs = vs_inv[:, us_inv].transpose(1, 0, 2).reshape(-1, size)
    return prods, invs


def coset_transversal(
    roots: RootSystem, big_gens: list[int], small_gens: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-length left-coset representatives of W_small in W_big, as root
    permutations with their inverses.

    Orbit search on cosets by left multiplication.  By Deodhar's lemma, for a
    minimal representative u and a generator s, either s*u is minimal or
    s*u lies in the coset of u; so only minimal products (no right descent in
    `small_gens`) are kept and no reduction is needed.
    """
    n = roots.rank
    small = [j - 1 for j in small_gens]
    e = np.arange(roots.size, dtype=np.intp)
    reps = [e]
    seen = {_perm_key(e, n)}
    frontier = e[None]
    while len(frontier):
        fresh = []
        for i in big_gens:
            products = roots.generators[i - 1][frontier]  # s_i * u
            minimal = roots.positive[products[:, small]].all(axis=1)
            for perm in products[minimal]:
                key = _perm_key(perm, n)
                if key not in seen:
                    seen.add(key)
                    fresh.append(perm)
                    reps.append(perm)
        frontier = np.array(fresh, dtype=np.intp).reshape(-1, roots.size)
    stack = np.stack(reps)
    return stack, np.argsort(stack, axis=1)


@dataclass
class TowerPlan:
    """Parabolic coset tower: W = T_top * ... * T_low * W_tail.

    Elements are root permutations: `tail_mats` (B, R) holds the tail
    subgroup and `tail_invs` its inverses; `transversals` lists, top level
    first, (representatives, inverse representatives) arrays of shape (M, R).
    """

    system: CoxeterSystem
    roots: RootSystem
    tail_mats: np.ndarray
    tail_invs: np.ndarray
    transversals: list[tuple[np.ndarray, np.ndarray]]

    def top_size(self) -> int:
        """Number of top-level cosets (1 when the tail is the whole group)."""
        return len(self.transversals[0][0]) if self.transversals else 1


def tower_plan(system: CoxeterSystem, tail_cap: int = TAIL_CAP) -> TowerPlan:
    roots = root_system(system)
    n = system.rank
    order = _CHAIN_ORDERS[system.family](n)
    # W_k, generated by order[:k], is levels[k-1] * W_{k-1}
    levels = [coset_transversal(roots, order[:k], order[: k - 1]) for k in range(1, n + 1)]
    # the tail is the largest W_k with at most tail_cap elements
    e = np.arange(roots.size, dtype=np.intp)[None]
    tail = (e, e.copy())
    k = 0
    while k < n and len(tail[0]) * len(levels[k][0]) <= tail_cap:
        tail = _products(levels[k], tail)
        k += 1
    transversals = levels[k:][::-1]
    total = len(tail[0])
    for reps, _ in transversals:
        total *= len(reps)
    if total != system.order:
        raise AssertionError("tower decomposition does not cover the group")
    return TowerPlan(system, roots, tail[0], tail[1], transversals)


def leaf_prefixes(plan: TowerPlan, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Every product t_top * t_1 * ... * t_low of transversal elements that
    starts with top-level representative `top`, with inverses, as (K, R)."""
    if not plan.transversals:
        e = np.arange(plan.roots.size, dtype=np.intp)[None]
        return e, e.copy()
    reps, invs = plan.transversals[0]
    prefixes = (reps[top : top + 1], invs[top : top + 1])
    for level in plan.transversals[1:]:
        prefixes = _products(prefixes, level)
    return prefixes
