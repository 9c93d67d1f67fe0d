import numpy as np
import pytest

from metamatrix.coxeter import (
    UnsupportedSystem,
    _group_order,
    build_system,
    root_system,
    tower_plan,
)
from metamatrix.engine import (
    _identity_mat,
    _matrix_elements,
    generator_matrices,
    group_table,
    nonneg_grid,
    ring_matmul,
)

SMALL_SYSTEMS = [
    ("A", 1, None),
    ("A", 2, None),
    ("A", 3, None),
    ("B", 2, None),
    ("B", 3, None),
    ("D", 4, None),
    ("I2", 2, 2),
    ("I2", 2, 3),
    ("I2", 2, 4),
    ("I2", 2, 5),
    ("I2", 2, 6),
    ("H", 3, None),
    ("F", 4, None),
]

ALL_SYSTEMS = SMALL_SYSTEMS + [
    ("B", 8, None),
    ("D", 8, None),
    ("H", 4, None),
    ("E", 6, None),
    ("E", 7, None),
    ("E", 8, None),
]


def products(left, right):
    """Every product u * v (u-major) of (perm, inverse) pairs."""
    return [
        (tuple(u[r] for r in v), tuple(v_inv[r] for r in u_inv))
        for u, u_inv in left
        for v, v_inv in right
    ]


def coords_array(roots):
    """The roots as a (2, n, R) array: column k holds root k."""
    return np.array(roots.coords, dtype=np.int64).transpose(2, 1, 0)


def tower_matrices(plan, tail_cap):
    """(mat, inv) root-coordinate matrices of every element the tower plan
    covers, as prefix times tail, where the tail multiplies out the lowest
    levels while it has at most `tail_cap` elements: column j of the matrix
    of w is the root w(alpha_j)."""
    n, coords = plan.system.rank, coords_array(plan.roots)
    levels = [list(zip(*level)) for level in plan.transversals]
    identity = [(plan.tail_mats[0], plan.tail_mats[0])]
    tail = identity
    while levels and len(tail) * len(levels[0]) <= tail_cap:
        tail = products(levels.pop(0), tail)
    prefixes = identity
    for level in reversed(levels):
        prefixes = products(prefixes, level)
    for p, p_inv in prefixes:
        for t, t_inv in tail:
            yield (coords[:, :, [p[t[j]] for j in range(n)]],
                   coords[:, :, [t_inv[p_inv[j]] for j in range(n)]])


def element_index(system):
    """The oracle's elements (matrices, inverses) with an index by matrix."""
    mats, invs = _matrix_elements(system)
    return mats, invs, {m.tobytes(): i for i, m in enumerate(mats)}


def longest_index(system):
    """The elements with no right ascent (exactly one: the longest)."""
    return [w for w, asc in enumerate(group_table(system).right_masks) if not asc]


class TestBuildSystem:
    def test_b2(self):
        s = build_system("B", 2)
        assert s.coxeter_matrix[0][1] == 4
        assert s.order == 8

    def test_orders(self):
        assert build_system("H", 3).order == 120
        assert build_system("H", 4).order == 14400
        assert build_system("F", 4).order == 1152
        assert build_system("E", 6).order == 51840
        assert build_system("E", 7).order == 2903040
        assert build_system("E", 8).order == 696729600
        assert build_system("I2", 2, m=5).order == 10
        assert build_system("B", 4).order == 2**4 * 24

    def test_unsupported_rejected(self):
        with pytest.raises(UnsupportedSystem, match="supported"):
            build_system("Z", 3)
        with pytest.raises(UnsupportedSystem):
            build_system("E", 5)
        with pytest.raises(UnsupportedSystem):
            build_system("I2", 2, m=7)

    @pytest.mark.parametrize("family,rank", [("H", 5), ("F", 3), ("E", 5), ("Z", 3)])
    def test_unknown_rank_has_no_order(self, family, rank):
        with pytest.raises(UnsupportedSystem, match="supported: A1-A8"):
            _group_order(family, rank, None)

    def test_family_is_case_insensitive(self):
        assert build_system("i2", 2, m=5).family == "I2"
        assert build_system("e", 6).order == 51840

    @pytest.mark.parametrize("family,rank,m", ALL_SYSTEMS)
    def test_coxeter_relations(self, family, rank, m):
        s = build_system(family, rank, m)
        n = rank
        gens = generator_matrices(s)
        eye = _identity_mat(n)
        for i in range(n):
            for j in range(n):
                order = s.coxeter_matrix[i][j]
                prod = ring_matmul(gens[i], gens[j])
                acc = eye
                for _ in range(order):
                    acc = ring_matmul(acc, prod)
                assert np.array_equal(acc, eye), (family, rank, i + 1, j + 1)


class TestRootSystem:
    @pytest.mark.parametrize(
        "family,rank,m,size",
        [("E", 7, None, 126), ("E", 8, None, 240), ("H", 4, None, 120), ("F", 4, None, 48),
         ("E", 6, None, 72), ("H", 3, None, 30), ("B", 8, None, 128), ("D", 8, None, 112),
         ("A", 3, None, 12), ("I2", 2, 5, 10), ("I2", 2, 6, 12)],
    )
    def test_size(self, family, rank, m, size):
        roots = root_system(build_system(family, rank, m))
        assert roots.size == size
        assert sum(roots.positive) == size // 2

    @pytest.mark.parametrize("family,rank,m", ALL_SYSTEMS)
    def test_generators_are_involutions(self, family, rank, m):
        roots = root_system(build_system(family, rank, m))
        ident = list(range(roots.size))
        for g in roots.generators:
            assert sorted(g) == ident
            assert [g[x] for x in g] == ident

    @pytest.mark.parametrize("family,rank,m", ALL_SYSTEMS)
    def test_simple_reflections(self, family, rank, m):
        roots = root_system(build_system(family, rank, m))
        coords, positive = roots.coords, roots.positive
        for i, g in enumerate(roots.generators):
            # s_i sends alpha_i (index i) to -alpha_i ...
            assert coords[g[i]] == tuple((-a, -b) for a, b in coords[i])
            # ... and permutes the other positive roots
            others = [k for k in range(roots.size) if positive[k] and k != i]
            assert sorted(g[k] for k in others) == others

    @pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H", 3, None), ("F", 4, None)])
    def test_generator_permutations_match_matrices(self, family, rank, m):
        s = build_system(family, rank, m)
        roots = root_system(s)
        coords = coords_array(roots)
        for gen, perm in zip(generator_matrices(s), roots.generators):
            assert np.array_equal(ring_matmul(gen, coords), coords[:, :, list(perm)])


class TestApplyGenerator:
    def test_generator_matrix(self):
        s = build_system("A", 2)
        assert np.array_equal(generator_matrices(s)[0][0], np.array([[-1, 1], [0, 1]]))

    def test_inverse_tracking(self):
        s = build_system("F", 4)
        eye = _identity_mat(s.rank)
        for mat, inv in zip(*_matrix_elements(s)):
            assert np.array_equal(ring_matmul(mat, inv), eye)


class TestAscentSets:
    def test_identity(self):
        t = group_table(build_system("B", 3))
        assert t.left_masks[0] == t.right_masks[0] == frozenset({1, 2, 3})

    def test_longest_b2(self):
        s = build_system("B", 2)
        t = group_table(s)
        (w0,) = longest_index(s)
        assert t.left_masks[w0] == t.right_masks[w0] == frozenset()

    def test_s1_in_b2(self):
        s = build_system("B", 2)
        t = group_table(s)
        w = element_index(s)[2][generator_matrices(s)[0].tobytes()]
        assert t.left_masks[w] == t.right_masks[w] == frozenset({2})

    @pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H", 3, None), ("A", 3, None)])
    def test_inverse_swaps_sides(self, family, rank, m):
        s = build_system(family, rank, m)
        t = group_table(s)
        _, invs, index = element_index(s)
        for w, inv in enumerate(invs):
            w_inv = index[inv.tobytes()]
            assert t.left_masks[w] == t.right_masks[w_inv]
            assert t.right_masks[w] == t.left_masks[w_inv]


class TestLongestElement:
    def test_a1(self):
        s = build_system("A", 1)
        index = element_index(s)[2]
        assert longest_index(s) == [index[generator_matrices(s)[0].tobytes()]]

    def test_b2_all_columns_negative(self):
        s = build_system("B", 2)
        (w0,) = longest_index(s)
        mat = _matrix_elements(s)[0][w0]
        assert not nonneg_grid(mat[0], mat[1]).all(axis=0).any()

    def test_i2_3_longest_word(self):
        s = build_system("I2", 2, m=3)
        g1, g2 = generator_matrices(s)
        (w0,) = longest_index(s)
        assert np.array_equal(_matrix_elements(s)[0][w0], ring_matmul(ring_matmul(g1, g2), g1))


class TestEnumerateBfs:
    @pytest.mark.parametrize(
        "family,rank,m,expected",
        [("B", 3, None, 48), ("F", 4, None, 1152), ("H", 4, None, 14400)],
    )
    def test_counts(self, family, rank, m, expected):
        s = build_system(family, rank, m)
        assert expected == s.order == len(_matrix_elements(s)[0])

    def test_unique_longest(self):
        for family, rank, m in [("B", 3, None), ("H", 3, None), ("A", 2, None)]:
            s = build_system(family, rank, m)
            t = group_table(s)
            (w0,) = longest_index(s)
            assert t.left_masks[w0] == frozenset()
            mat = _matrix_elements(s)[0][w0]
            assert not nonneg_grid(mat[0], mat[1]).all(axis=0).any()

    @pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H", 3, None), ("I2", 2, 5)])
    def test_columns_are_roots(self, family, rank, m):
        s = build_system(family, rank, m)
        for mat in _matrix_elements(s)[0]:
            nonneg = nonneg_grid(mat[0], mat[1])
            nonpos = nonneg_grid(-mat[0], -mat[1])
            zero = (mat[0] == 0) & (mat[1] == 0)
            for j in range(s.rank):
                col_ok = nonneg[:, j].all() or nonpos[:, j].all()
                assert col_ok and not zero[:, j].all()


class TestEnumerateTower:
    def test_multilevel_plan_covers_group(self):
        s = build_system("B", 4)
        keys = {mat.tobytes() for mat, _ in tower_matrices(tower_plan(s), tail_cap=10)}
        assert len(keys) == s.order
        assert keys == set(element_index(s)[2])

    @pytest.mark.parametrize(
        "family,rank,m,cap", [("B", 3, None, 1), ("H", 3, None, 8), ("I2", 2, 5, 1)]
    )
    def test_tower_matrices_equal_bfs_matrices(self, family, rank, m, cap):
        s = build_system(family, rank, m)
        tower = [mat.tobytes() for mat, _ in tower_matrices(tower_plan(s), tail_cap=cap)]
        assert len(tower) == len(set(tower)) == s.order
        assert set(tower) == set(element_index(s)[2])

    def test_tower_inverses_consistent(self):
        s = build_system("D", 4)
        eye = _identity_mat(s.rank)
        for mat, inv in tower_matrices(tower_plan(s), tail_cap=10):
            assert np.array_equal(ring_matmul(mat, inv), eye)
