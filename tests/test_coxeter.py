import pytest

from definitional import ascent_sets, generator_times, group_table, identity, times_generator
from metamatrix import coxeter
from metamatrix.coxeter import build_system, is_nonneg, root_system, tower_plan
from metamatrix.tables import UnsupportedSystem, _group_order

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


def flat(roots, ks):
    """The roots with indices `ks` as one flat tuple of columns, in the
    layout of `definitional`."""
    return tuple(x for k in ks for pair in roots.coords[k] for x in pair)


def nonneg_columns(mat, n):
    """For each column of a flat matrix, whether all its coordinates are >= 0."""
    return [all(is_nonneg(mat[c + k], mat[c + k + 1]) for k in range(0, 2 * n, 2))
            for c in range(0, len(mat), 2 * n)]


def tower_matrices(plan):
    """(mat, inv) root-coordinate matrices of every element the tower plan
    covers, the product T_n * ... * T_1 * W_0 multiplied out level by level:
    column j of the matrix of w is the root w(alpha_j)."""
    n, roots = plan.system.rank, plan.roots
    elements = [(plan.tail_mats[0], plan.tail_mats[0])]
    for level in plan.transversals:
        elements = products(list(zip(*level)), elements)
    for w, w_inv in elements:
        yield flat(roots, [w[j] for j in range(n)]), flat(roots, [w_inv[j] for j in range(n)])


def longest_index(system):
    """The elements with no right ascent (exactly one: the longest)."""
    return [w for w, asc in enumerate(ascent_sets(system)[1]) if not asc]


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
        e = identity(rank)
        for i in range(rank):
            for j in range(rank):
                acc = e
                for _ in range(s.coxeter_matrix[i][j]):  # (s_i s_j)^m_ij
                    acc = times_generator(s, times_generator(s, acc, i), j)
                assert acc == e, (family, rank, i + 1, j + 1)


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

    @pytest.mark.parametrize("family,rank,size", [("E", 8, 240), ("H", 4, 120), ("A", 8, 72)])
    def test_reflects_each_root_once_per_generator(self, monkeypatch, family, rank, size):
        calls = []
        reflect = coxeter.reflect
        monkeypatch.setattr(coxeter, "reflect", lambda *args: calls.append(args) or reflect(*args))
        assert root_system(build_system(family, rank)).size == size
        assert len(calls) == rank * size

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
        every_root = flat(roots, range(roots.size))
        for i, perm in enumerate(roots.generators):
            assert generator_times(s, every_root, i) == flat(roots, perm)


class TestAscentSets:
    def test_identity(self):
        lefts, rights = ascent_sets(build_system("B", 3))
        assert lefts[0] == rights[0] == frozenset({1, 2, 3})

    def test_longest_b2(self):
        s = build_system("B", 2)
        lefts, rights = ascent_sets(s)
        (w0,) = longest_index(s)
        assert lefts[w0] == rights[w0] == frozenset()

    def test_s1_in_b2(self):
        s = build_system("B", 2)
        lefts, rights = ascent_sets(s)
        w = group_table(s).right[0][0]  # e * s_1
        assert lefts[w] == rights[w] == frozenset({2})

    @pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H", 3, None), ("A", 3, None)])
    def test_inverse_swaps_sides(self, family, rank, m):
        s = build_system(family, rank, m)
        lefts, rights = ascent_sets(s)
        for w, w_inv in enumerate(group_table(s).inverse):
            assert lefts[w] == rights[w_inv]
            assert rights[w] == lefts[w_inv]


class TestLongestElement:
    def test_a1(self):
        s = build_system("A", 1)
        assert longest_index(s) == [group_table(s).right[0][0]]

    def test_b2_all_columns_negative(self):
        s = build_system("B", 2)
        (w0,) = longest_index(s)
        assert not any(nonneg_columns(group_table(s).mats[w0], 2))

    def test_i2_3_longest_word(self):
        s = build_system("I2", 2, m=3)
        (w0,) = longest_index(s)
        word = identity(2)
        for i in (0, 1, 0):  # s_1 * (s_2 * (s_1 * e))
            word = generator_times(s, word, i)
        assert group_table(s).mats[w0] == word


class TestEnumerateBfs:
    @pytest.mark.parametrize(
        "family,rank,m,expected",
        [("B", 3, None, 48), ("F", 4, None, 1152), ("H", 4, None, 14400)],
    )
    def test_counts(self, family, rank, m, expected):
        s = build_system(family, rank, m)
        assert expected == s.order == len(group_table(s).mats)

    def test_unique_longest(self):
        for family, rank, m in [("B", 3, None), ("H", 3, None), ("A", 2, None)]:
            s = build_system(family, rank, m)
            (w0,) = longest_index(s)
            assert ascent_sets(s)[0][w0] == frozenset()
            assert not any(nonneg_columns(group_table(s).mats[w0], rank))

    @pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H", 3, None), ("I2", 2, 5)])
    def test_columns_are_roots(self, family, rank, m):
        s = build_system(family, rank, m)
        for mat in group_table(s).mats:
            negated = tuple(-x for x in mat)
            # a zero column is both, a column of mixed signs neither
            for nonneg, nonpos in zip(nonneg_columns(mat, rank), nonneg_columns(negated, rank)):
                assert nonneg != nonpos


class TestEnumerateTower:
    def test_multilevel_plan_covers_group(self):
        s = build_system("B", 4)
        keys = {mat for mat, _ in tower_matrices(tower_plan(s))}
        assert len(keys) == s.order
        assert keys == set(group_table(s).index)

    @pytest.mark.parametrize("family,rank,m", [("B", 3, None), ("H", 3, None), ("I2", 2, 5),
                                               ("F", 4, None)])
    def test_tower_matrices_equal_bfs_matrices(self, family, rank, m):
        s = build_system(family, rank, m)
        tower = [mat for mat, _ in tower_matrices(tower_plan(s))]
        assert len(tower) == len(set(tower)) == s.order
        assert set(tower) == set(group_table(s).index)

    def test_tower_inverses_consistent(self):
        s = build_system("D", 4)
        table = group_table(s)
        for mat, inv in tower_matrices(tower_plan(s)):
            assert table.index[inv] == table.inverse[table.index[mat]]
