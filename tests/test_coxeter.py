from collections import Counter

import numpy as np
import pytest

from metamatrix.coxeter import (
    EnumerationLimit,
    UnsupportedSystem,
    _tower_iter,
    apply_generator,
    build_system,
    descent_profile,
    enumerate_bfs,
    enumerate_tower,
    identity_element,
    longest_element,
    positive_columns,
    ring_matmul,
    root_system,
    tower_plan,
)
from metamatrix.goldring import nonneg_grid

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


def collect(system):
    out = []
    enumerate_bfs(system, out.append)
    return out


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

    @pytest.mark.parametrize("family,rank,m", ALL_SYSTEMS)
    def test_coxeter_relations(self, family, rank, m):
        s = build_system(family, rank, m)
        n = rank
        eye = identity_element(s).mat
        for i in range(n):
            for j in range(n):
                order = s.coxeter_matrix[i][j]
                prod = ring_matmul(s.generators[i], s.generators[j])
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
        assert roots.positive.sum() == size // 2

    @pytest.mark.parametrize("family,rank,m", ALL_SYSTEMS)
    def test_generators_are_involutions(self, family, rank, m):
        roots = root_system(build_system(family, rank, m))
        ident = np.arange(roots.size)
        for g in roots.generators:
            assert sorted(g) == list(ident)
            assert np.array_equal(g[g], ident)

    @pytest.mark.parametrize("family,rank,m", ALL_SYSTEMS)
    def test_simple_reflections(self, family, rank, m):
        roots = root_system(build_system(family, rank, m))
        coords, positive = roots.coords, roots.positive
        for i, g in enumerate(roots.generators):
            # s_i sends alpha_i (index i) to -alpha_i ...
            assert np.array_equal(coords[:, :, g[i]], -coords[:, :, i])
            # ... and permutes the other positive roots
            others = [k for k in np.flatnonzero(positive) if k != i]
            assert sorted(g[others]) == others

    @pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H", 3, None), ("F", 4, None)])
    def test_generator_permutations_match_matrices(self, family, rank, m):
        s = build_system(family, rank, m)
        roots = root_system(s)
        for gen, perm in zip(s.generators, roots.generators):
            assert np.array_equal(ring_matmul(gen, roots.coords), roots.coords[:, :, perm])


class TestApplyGenerator:
    def test_involution(self):
        s = build_system("B", 2)
        e = identity_element(s)
        w = apply_generator(apply_generator(e, 1, "right"), 1, "right")
        assert w == e

    def test_generator_matrix(self):
        s = build_system("A", 2)
        w = apply_generator(identity_element(s), 1, "right")
        assert np.array_equal(w.mat[0], np.array([[-1, 1], [0, 1]]))

    def test_b2_braid_relation(self):
        s = build_system("B", 2)
        w = identity_element(s)
        for _ in range(4):
            w = apply_generator(w, 1, "right")
            w = apply_generator(w, 2, "right")
        assert w == identity_element(s)

    def test_left_right_consistency(self):
        s = build_system("B", 3)
        e = identity_element(s)
        w = apply_generator(apply_generator(e, 1, "right"), 2, "right")  # s1 s2
        u = apply_generator(apply_generator(e, 2, "right"), 1, "left")  # s1 s2
        assert w == u

    def test_index_out_of_range(self):
        s = build_system("B", 2)
        with pytest.raises(ValueError):
            apply_generator(identity_element(s), 3, "right")

    def test_inverse_tracking(self):
        s = build_system("F", 4)
        w = identity_element(s)
        for i in [1, 2, 3, 2, 4, 1]:
            w = apply_generator(w, i, "right")
        assert np.array_equal(ring_matmul(w.mat, w.inv), identity_element(s).mat)


class TestDescentProfile:
    def test_identity(self):
        s = build_system("B", 3)
        p = descent_profile(identity_element(s))
        assert p.left_ascents == p.right_ascents == frozenset({1, 2, 3})

    def test_longest_b2(self):
        s = build_system("B", 2)
        p = descent_profile(longest_element(s))
        assert p.left_ascents == p.right_ascents == frozenset()

    def test_s1_in_b2(self):
        s = build_system("B", 2)
        w = apply_generator(identity_element(s), 1, "right")
        p = descent_profile(w)
        assert p.left_ascents == p.right_ascents == frozenset({2})

    @pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H", 3, None), ("A", 3, None)])
    def test_inverse_swaps_sides(self, family, rank, m):
        s = build_system(family, rank, m)
        for w in collect(s):
            p = descent_profile(w)
            q = descent_profile(w.inverse())
            assert p.left_ascents == q.right_ascents
            assert p.right_ascents == q.left_ascents


class TestLongestElement:
    def test_a1(self):
        s = build_system("A", 1)
        assert longest_element(s) == apply_generator(identity_element(s), 1, "right")

    def test_b2_all_columns_negative(self):
        s = build_system("B", 2)
        w = longest_element(s)
        assert not positive_columns(w.mat).any()

    def test_i2_3_longest_word(self):
        s = build_system("I2", 2, m=3)
        w = identity_element(s)
        for i in [1, 2, 1]:
            w = apply_generator(w, i, "right")
        assert longest_element(s) == w


class TestEnumerateBfs:
    @pytest.mark.parametrize(
        "family,rank,m,expected",
        [("B", 3, None, 48), ("F", 4, None, 1152), ("H", 4, None, 14400)],
    )
    def test_counts(self, family, rank, m, expected):
        count = enumerate_bfs(build_system(family, rank, m), lambda w: None)
        assert count == expected

    def test_threshold(self):
        with pytest.raises(EnumerationLimit, match="enumerate_tower"):
            enumerate_bfs(build_system("E", 8), lambda w: None, threshold=10**6)

    def test_unique_longest(self):
        for family, rank, m in [("B", 3, None), ("H", 3, None), ("A", 2, None)]:
            s = build_system(family, rank, m)
            empty = [w for w in collect(s) if not descent_profile(w).right_ascents]
            assert len(empty) == 1
            assert empty[0] == longest_element(s)

    @pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H", 3, None), ("I2", 2, 5)])
    def test_columns_are_roots(self, family, rank, m):
        s = build_system(family, rank, m)
        for w in collect(s):
            nonneg = nonneg_grid(w.mat[0], w.mat[1])
            nonpos = nonneg_grid(-w.mat[0], -w.mat[1])
            zero = (w.mat[0] == 0) & (w.mat[1] == 0)
            for j in range(s.rank):
                col_ok = nonneg[:, j].all() or nonpos[:, j].all()
                assert col_ok and not zero[:, j].all()


def profile_multiset(system, enumerator):
    counter = Counter()

    def visit(w):
        p = descent_profile(w)
        counter[(len(p.left_ascents), len(p.right_ascents))] += 1

    enumerator(system, visit)
    return counter


class TestEnumerateTower:
    @pytest.mark.parametrize("family,rank,m", [("B", 4, None), ("D", 4, None), ("A", 4, None)])
    def test_matches_bfs_profiles(self, family, rank, m):
        s = build_system(family, rank, m)
        assert profile_multiset(s, enumerate_tower) == profile_multiset(s, enumerate_bfs)

    def test_e6_count(self):
        assert enumerate_tower(build_system("E", 6), lambda w: None) == 51840

    def test_multilevel_plan_covers_group(self):
        s = build_system("B", 4)
        plan = tower_plan(s, tail_cap=10)
        keys = {mat.tobytes() for mat, _ in _tower_iter(plan)}
        assert len(keys) == s.order

    @pytest.mark.parametrize(
        "family,rank,m,cap", [("B", 3, None, 1), ("H", 3, None, 8), ("I2", 2, 5, 1)]
    )
    def test_tower_matrices_equal_bfs_matrices(self, family, rank, m, cap):
        s = build_system(family, rank, m)
        tower = [mat.tobytes() for mat, _ in _tower_iter(tower_plan(s, tail_cap=cap))]
        assert len(tower) == len(set(tower)) == s.order
        assert set(tower) == {w.key() for w in collect(s)}

    def test_tower_inverses_consistent(self):
        s = build_system("D", 4)
        plan = tower_plan(s, tail_cap=10)
        eye = identity_element(s).mat
        for mat, inv in _tower_iter(plan):
            assert np.array_equal(ring_matmul(mat, inv), eye)
