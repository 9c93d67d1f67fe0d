import pytest

import golden
from definitional import (
    REFERENCE_LIMIT,
    coset_counts,
    definitional_counts,
    group_table,
    mask,
    orbit_coset_count,
    subsets,
)
from metamatrix import engine
from metamatrix.coxeter import build_system
from metamatrix.engine import accumulate_ntable, double_coset_count, metamatrix_bruteforce
from metamatrix.tables import (
    _I2_MATRIX_M,
    _RANKS,
    EnumerationLimit,
    Metamatrix,
    NTable,
    _group_order,
    dihedral_ntable,
    metamatrix_from_ntable,
    metamatrix_invariant_failure,
    ntable_invariant_failure,
    system_label,
)
from metamatrix.typeb import metamatrix_typeb


def enumerated_metamatrix(family, rank, m=None):
    system = build_system(family, rank, m)
    return metamatrix_from_ntable(accumulate_ntable(system))


class TestNTable:
    def test_dihedral_fixture(self):
        t = dihedral_ntable(3)
        assert t.counts == ((1, 0, 0), (0, 4, 0), (0, 0, 1))
        assert t.total() == 6
        assert t.is_symmetric()

    def test_dihedral_rejects_small_m(self):
        with pytest.raises(ValueError):
            dihedral_ntable(1)

    def test_b2_enumerated(self):
        t = accumulate_ntable(build_system("B", 2))
        assert t.counts == ((1, 0, 0), (0, 6, 0), (0, 0, 1))

    @pytest.mark.parametrize(
        "family,rank,m",
        [("A", 3, None), ("B", 3, None), ("D", 4, None), ("H", 3, None), ("F", 4, None)],
    )
    def test_symmetry(self, family, rank, m):
        t = accumulate_ntable(build_system(family, rank, m))
        assert t.total() == build_system(family, rank, m).order
        assert t.is_symmetric()

    def test_asymmetric_table_detected(self):
        t = NTable(n=1, counts=((0, 1), (0, 1)))
        assert not t.is_symmetric()


class TestMetamatrixFromNtable:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_dihedral_closed_form(self, m):
        got = metamatrix_from_ntable(dihedral_ntable(m))
        assert [list(r) for r in got.entries] == golden.dihedral_metamatrix(m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_dihedral_matches_enumeration(self, m):
        assert enumerated_metamatrix("I2", 2, m) == metamatrix_from_ntable(
            dihedral_ntable(m)
        )

    def test_equality_ignores_provenance(self):
        a = Metamatrix(1, ((2, 1), (1, 1)), "formula")
        b = Metamatrix(1, ((2, 1), (1, 1)), "oracle")
        assert a == b

    def test_equal_results_hash_alike(self):
        a = Metamatrix(1, ((1,),), "x")
        b = Metamatrix(1, ((1,),), "y")
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_typeb_agreement(self, n):
        assert enumerated_metamatrix("B", n) == metamatrix_typeb(n)

    def test_h3_golden(self):
        got = enumerated_metamatrix("H", 3)
        assert [list(r) for r in got.entries] == golden.H3


class TestTower:
    @pytest.mark.parametrize("family,rank,m", [("H", 3, None), ("I2", 2, 5)])
    def test_golden_tower_matches_definition(self, family, rank, m):
        system = build_system(family, rank, m)
        assert any(b for row in system.cartan for _, b in row)  # a phi part
        assert list(map(list, accumulate_ntable(system).counts)) == definitional_counts(system)


# Every catalog system the tests' reference can expand: A1-A6, B1-B5, D4, D5,
# H3, H4, F4 and I2(2..6)
REFERENCE_SYSTEMS = [
    (family, rank, m)
    for family, ranks in _RANKS.items()
    for rank in ranks
    for m in (sorted(_I2_MATRIX_M) if family == "I2" else [None])
    if _group_order(family, rank, m) <= REFERENCE_LIMIT
]
REFERENCE_IDS = [system_label(*s) for s in REFERENCE_SYSTEMS]


class TestHistogram:
    @pytest.mark.parametrize("family,rank,m", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
    def test_matches_definition(self, family, rank, m):
        system = build_system(family, rank, m)
        assert list(map(list, accumulate_ntable(system).counts)) == definitional_counts(system)


class TestInvariants:
    B2 = ((1, 0, 0), (0, 6, 0), (0, 0, 1))

    def test_valid_table(self):
        assert ntable_invariant_failure(NTable(2, self.B2), 8) is None

    @pytest.mark.parametrize(
        "counts,order,reason",
        [
            (((1, 0, 0), (0, 6, 0), (0, 0, 1)), 10, "total"),
            (((1, 1, 0), (0, 5, 0), (0, 0, 1)), 8, "symmetries"),
            (((1, 0, 0), (0, 6, 0)), 7, "not 3x3"),
            (((2, 0, 0), (0, 6, -1), (0, -1, 2)), 8, "negative"),
            (((0, 0, 1), (0, 6, 0), (1, 0, 0)), 8, "row 2"),
        ],
    )
    def test_bad_tables(self, counts, order, reason):
        assert reason in ntable_invariant_failure(NTable(2, counts), order)

    @pytest.mark.parametrize(
        "family,rank,m", [("A", 3, None), ("B", 4, None), ("H", 3, None), ("I2", 2, 5)]
    )
    def test_m00_is_group_order(self, family, rank, m):
        system = build_system(family, rank, m)
        table = accumulate_ntable(system)
        assert metamatrix_from_ntable(table).entries[0][0] == system.order


GOLDEN_TABLES = {
    f"I2({m})": ("I2", 2, m, golden.dihedral_metamatrix(m)) for m in range(2, 8)
} | {
    label: (label[0], int(label[1]), None, table) for label, table in golden.EXCEPTIONAL.items()
}


class TestMetamatrixInvariants:
    B2 = ((8, 8, 1), (8, 10, 2), (1, 2, 1))

    def test_valid_metamatrix(self):
        assert metamatrix_invariant_failure(Metamatrix(2, self.B2, "formula"), 8) is None

    @pytest.mark.parametrize(
        "entries,order,reason",
        [
            (((8, 8, 1), (8, 10, 2)), 8, "not 3x3"),
            (((8, 8, 1), (8, 10, 2), (1, 2)), 8, "not 3x3"),
            (((8, 8, 1), (9, 10, 2), (1, 2, 1)), 8, "not symmetric"),
            (((8, 8, 1), (8, 10, 2), (1, 2, 1)), 10, "M_00 is 8"),
            (((8, 8, 1), (8, 10, 3), (1, 3, 1)), 8, "row 2 is not C(2, q)"),
        ],
    )
    def test_bad_metamatrices(self, entries, order, reason):
        bad = Metamatrix(2, entries, "formula")
        assert reason in metamatrix_invariant_failure(bad, order)

    @pytest.mark.parametrize(
        "family,rank,m,table", list(GOLDEN_TABLES.values()), ids=list(GOLDEN_TABLES)
    )
    def test_golden_tables_pass(self, family, rank, m, table):
        metamatrix = Metamatrix(rank, tuple(map(tuple, table)), "golden")
        assert metamatrix_invariant_failure(metamatrix, _group_order(family, rank, m)) is None


class TestOracle:
    @pytest.mark.parametrize(
        "family,rank,m",
        [("A", 3, None), ("B", 3, None), ("I2", 2, 5), ("H", 3, None), ("D", 4, None)],
    )
    def test_minimal_reps_equal_coset_counts(self, family, rank, m):
        system = build_system(family, rank, m)
        minimal_reps = coset_counts(system)
        for left in subsets(rank):
            for right in subsets(rank):
                expected = minimal_reps[mask(right)][mask(left)]
                assert orbit_coset_count(system, left, right) == expected, (left, right)
                assert double_coset_count(system, left, right) == expected, (left, right)

    @pytest.mark.parametrize("family,rank,m", REFERENCE_SYSTEMS, ids=REFERENCE_IDS)
    def test_every_pair_matches_definition(self, family, rank, m):
        system = build_system(family, rank, m)
        expected = coset_counts(system)
        for left in subsets(rank):
            for right in subsets(rank):
                got = double_coset_count(system, left, right)
                assert got == expected[mask(right)][mask(left)], (left, right)

    def test_empty_margins_give_group_order(self):
        system = build_system("B", 3)
        assert double_coset_count(system, (), ()) == system.order

    def test_full_margins_give_one(self):
        system = build_system("B", 3)
        assert double_coset_count(system, (1, 2, 3), (1, 2, 3)) == 1

    def test_b2_parabolic_index(self):
        # |W_I \ W| for I = {1} in B2 is 4
        assert double_coset_count(build_system("B", 2), (1,), ()) == 4

    def test_limit_enforced_before_enumeration(self, monkeypatch):
        def walk(system, lam):
            raise AssertionError("walked a group over the oracle limit")

        monkeypatch.setattr(engine, "_chamber_histogram", walk)
        system = build_system("B", 7)
        assert system.order > engine.ORACLE_LIMIT
        with pytest.raises(EnumerationLimit):
            engine.group_table(system)


class TestGroupTable:
    @pytest.mark.parametrize("family,rank", [("H", 3), ("F", 4), ("D", 5)])
    def test_generator_permutations(self, family, rank):
        table = group_table(build_system(family, rank))
        ident = list(range(len(table.mats)))
        for perm in table.left + table.right:
            assert sorted(perm) == ident
            assert [perm[x] for x in perm] == ident
        # (s_i * w) * s_j == s_i * (w * s_j)
        for left in table.left:
            for right in table.right:
                assert [left[x] for x in right] == [right[x] for x in left]


class TestBruteforce:
    def test_a2_is_dihedral(self):
        got = metamatrix_bruteforce(build_system("A", 2))
        assert [list(r) for r in got.entries] == golden.dihedral_metamatrix(3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_typeb_three_way(self, n):
        system = build_system("B", n)
        oracle = metamatrix_bruteforce(system)
        assert oracle == metamatrix_typeb(n)
        assert oracle == enumerated_metamatrix("B", n)

    def test_h3_golden(self):
        got = metamatrix_bruteforce(build_system("H", 3))
        assert [list(r) for r in got.entries] == golden.H3
        assert got.entries[1][2] == 111

    def test_i2_5_closed_form(self):
        got = metamatrix_bruteforce(build_system("I2", 2, m=5))
        assert [list(r) for r in got.entries] == golden.dihedral_metamatrix(5)

    @pytest.mark.parametrize(
        "family,rank", [("A", 6), ("D", 5), ("E", 6), ("B", 6), ("D", 6), ("A", 7)]
    )
    def test_equals_enumeration(self, family, rank):
        assert metamatrix_bruteforce(build_system(family, rank)) == enumerated_metamatrix(
            family, rank
        )
