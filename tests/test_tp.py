import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from metamatrix import tp, typeb
from metamatrix.tp import ALL_MINORS_SIZE_CAP, TPCertificate, all_minors_positive, fekete_check
from metamatrix.typeb import (
    conjugate_by_inverse_pascal,
    gauss_decomposition_typeb,
    metamatrix_typeb,
    scm_table,
)
from references import (
    det,
    identity,
    invert_lower_triangular,
    is_upper_triangular,
    matmul,
    pascal_matrix,
    submatrix,
    transpose,
)


def tp_corpus():
    yield [[2, 1], [1, 1]]
    yield [[1, 1, 1], [1, 2, 3], [1, 3, 6]]
    yield scm_table(3)
    yield golden.dihedral_metamatrix(5)
    yield golden.H3


def non_tp_corpus():
    yield identity(2)
    yield [[1, 2], [3, 4]]
    yield [[1, 1], [1, 1]]
    yield [[5, 2, 1], [2, 1, 1], [1, 1, 1]]


def test_certificate_holds_the_count_and_the_witness_only():
    assert TPCertificate._fields == ("minors_checked", "witness")


class TestAllMinors:
    def test_2x2_positive(self):
        cert = all_minors_positive([[2, 1], [1, 1]])
        assert cert.is_totally_positive
        assert cert.minors_checked == 5
        assert cert.witness is None

    def test_identity_witness(self):
        cert = all_minors_positive(identity(2))
        assert not cert.is_totally_positive
        assert cert.witness.rows == (0,)
        assert cert.witness.cols == (1,)
        assert cert.witness.minor == 0

    def test_negative_det_witness(self):
        cert = all_minors_positive([[1, 2], [3, 4]])
        assert cert.witness.rows == (0, 1)
        assert cert.witness.cols == (0, 1)
        assert cert.witness.minor == -2

    def test_rational_entries(self):
        m = [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 3)]]
        assert all_minors_positive(m).is_totally_positive

    def test_size_cap(self):
        big = identity(ALL_MINORS_SIZE_CAP + 1)
        with pytest.raises(ValueError, match="fekete"):
            all_minors_positive(big)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            all_minors_positive([[1, 2, 3], [4, 5, 6]])


class TestFekete:
    def test_negative_det(self):
        cert = fekete_check([[1, 2], [3, 4]])
        assert not cert.is_totally_positive
        assert cert.witness.minor == -2

    def test_minor_count(self):
        # sum over k of (n-k+1)^2 windows; the H3 table is 4x4
        assert fekete_check(golden.H3).minors_checked == 16 + 9 + 4 + 1
        assert fekete_check([[2, 1], [1, 1]]).minors_checked == 5

    @pytest.mark.parametrize("matrix", list(tp_corpus()))
    def test_agrees_on_positive(self, matrix):
        assert fekete_check(matrix).is_totally_positive
        assert all_minors_positive(matrix).is_totally_positive

    @pytest.mark.parametrize("matrix", list(non_tp_corpus()))
    def test_agrees_on_negative(self, matrix):
        assert not fekete_check(matrix).is_totally_positive
        assert not all_minors_positive(matrix).is_totally_positive

    def test_checks_fewer_minors(self):
        m = golden.F4
        fekete = fekete_check(m)
        full = all_minors_positive(m)
        assert fekete.is_totally_positive and full.is_totally_positive
        assert fekete.minors_checked < full.minors_checked


class TestWitnessReevaluation:
    @pytest.mark.parametrize("matrix", list(non_tp_corpus()))
    def test_witness_is_faithful(self, matrix):
        for cert in (all_minors_positive(matrix), fekete_check(matrix)):
            w = cert.witness
            assert det(submatrix(matrix, w.rows, w.cols)) == w.minor
            assert w.minor <= 0


class TestGaussDecomposition:
    """2^n n! T = Q C Q^t for the type-B table T, in python ints."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_structure(self, n):
        q, c = gauss_decomposition_typeb(n)
        assert all(type(x) is int for row in q + [c] for x in row)
        assert is_upper_triangular(q)
        assert len(c) == n + 1 and all(x > 0 for x in c)
        c_mat = [[c[i] if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
        scale = 2**n * math.factorial(n)
        assert matmul(matmul(q, c_mat), transpose(q)) == [
            [scale * x for x in row] for row in scm_table(n)
        ]
        assert [q[k][k] for k in range(n + 1)] == [
            2**k * math.factorial(k) for k in range(n + 1)
        ]

    def test_n1_diagonal(self):
        q, c = gauss_decomposition_typeb(1)
        assert q == [[1, 1], [0, 2]]
        assert c == [1, 1]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_definition(self, n):
        # Q_ik = sum_j (-1)^(i-j) C(i, j) (2j+1)^k, and c_k = e_{n-k}(1, 3, ..., 2n-1),
        # the coefficient of t^k in prod_{i=1..n} (t + 2i - 1)
        q, c = gauss_decomposition_typeb(n)
        assert q == [
            [
                sum((-1) ** (i - j) * math.comb(i, j) * (2 * j + 1) ** k for j in range(i + 1))
                for k in range(n + 1)
            ]
            for i in range(n + 1)
        ]
        odd = range(1, 2 * n, 2)
        assert c == [
            sum(math.prod(roots) for roots in combinations(odd, n - k)) for k in range(n + 1)
        ]

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            gauss_decomposition_typeb(0)

    def test_wrong_diagonal_fails_reconstruction(self, monkeypatch):
        forged = typeb.scm_table(4)
        forged[4][4] += 1  # a wrong diagonal entry of T
        monkeypatch.setattr(typeb, "scm_table", lambda n: forged)
        with pytest.raises(AssertionError, match="Q C Q\\^t differs from the table"):
            gauss_decomposition_typeb(4)


def fekete_by_bareiss(a):
    """Reference Fekete scan: one Bareiss determinant per solid window, in
    the order size, first row, first column.  Returns (minors_checked,
    witness as (rows, cols, value), or None for a totally positive matrix)."""
    n = len(a)
    checked = 0
    for k in range(1, n + 1):
        for i in range(n - k + 1):
            for j in range(n - k + 1):
                rows, cols = tuple(range(i, i + k)), tuple(range(j, j + k))
                checked += 1
                value = det(submatrix(a, rows, cols))
                if value <= 0:
                    return checked, (rows, cols, value)
    return checked, None


def all_minors_by_bareiss(a):
    """Reference all-minors scan: one Bareiss determinant of the unscaled
    submatrix per minor, in lexicographic order; returns as fekete_by_bareiss."""
    n = len(a)
    checked = 0
    for k in range(1, n + 1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                checked += 1
                value = det(submatrix(a, rows, cols))
                if value <= 0:
                    return checked, (rows, cols, value)
    return checked, None


def assert_matches_reference(a, certify=fekete_check, reference=fekete_by_bareiss):
    cert = certify(a)
    checked, witness = reference(a)
    assert cert.minors_checked == checked
    if witness is None:
        assert cert.witness is None
    else:
        assert (cert.witness.rows, cert.witness.cols, cert.witness.minor) == witness
        assert type(cert.witness.minor) is Fraction


def tp_tables():
    return [golden.H3, golden.F4] + [scm_table(n) for n in range(2, 7)]


small_ints = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)

small_fractions = st.builds(Fraction, st.integers(-4, 9), st.integers(1, 6))


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 5))
    return [[draw(small_fractions) for _ in range(n)] for _ in range(n)]


@st.composite
def perturbed_tables(draw):
    """A totally-positive table with one entry moved by a small amount."""
    rows = [list(row) for row in draw(st.sampled_from(tp_tables()))]
    n = len(rows)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[i][j] += draw(st.integers(-3, 3))
    return rows


@st.composite
def zeroed_windows(draw):
    """A totally-positive table whose bottom-right entry of one solid window
    is lowered until that window's determinant is exactly zero, so the scan
    stops deep inside the table on a zero minor."""
    table = draw(st.sampled_from(tp_tables()))
    n = len(table)
    k = draw(st.integers(2, n))
    i, j = draw(st.integers(0, n - k)), draw(st.integers(0, n - k))
    window = submatrix(table, range(i, i + k), range(j, j + k))
    inner = submatrix(window, range(k - 1), range(k - 1))
    rows = [list(row) for row in table]
    rows[i + k - 1][j + k - 1] -= det(window) / det(inner)
    return rows


@st.composite
def row_scaled_tables(draw):
    """A totally-positive table with each row divided by a small integer."""
    table = draw(st.sampled_from(tp_tables()))
    rows = []
    for row in table:
        divisor = draw(st.integers(1, 7))
        rows.append([Fraction(x, divisor) for x in row])
    return rows


def scan_matches_bareiss(certify, reference):
    """The test class that checks `certify` against its Bareiss `reference`
    on every strategy, each within the all-minors size cap.  Each call
    builds fresh test functions, so hypothesis sees one executor per test."""

    class ScanMatchesBareiss:
        def check(self, a):
            assert_matches_reference(a, certify, reference)

        @settings(max_examples=300, deadline=None)
        @given(small_ints)
        def test_small_integer_matrices(self, grid):
            self.check(grid)

        @settings(max_examples=150, deadline=None)
        @given(rational_matrices())
        def test_rational_matrices(self, a):
            self.check(a)

        @settings(max_examples=100, deadline=None)
        @given(perturbed_tables())
        def test_perturbed_tables(self, a):
            self.check(a)

        @settings(max_examples=100, deadline=None)
        @given(zeroed_windows())
        def test_zero_minor_deep_in_table(self, a):
            self.check(a)

        @settings(max_examples=60, deadline=None)
        @given(row_scaled_tables())
        def test_row_scaled_tables(self, a):
            self.check(a)

        # the rest of the golden tables, the type-B tables up to rank 8, and two
        # matrices whose scaled rows are not symmetric: F4 but for one entry, and
        # the symmetric 6 x 6 Hilbert matrix, whose rows scale by different lcms
        @pytest.mark.parametrize("a", tp_tables() + [
            golden.H4, golden.E6, golden.E7, golden.E8,
            *(golden.dihedral_metamatrix(m) for m in range(2, 9)),
            *(scm_table(n) for n in (1, 7, 8)),
            [[x + ((i, j) == (4, 3)) for j, x in enumerate(row)]
             for i, row in enumerate(golden.F4)],
            [[Fraction(1, i + j + 1) for j in range(6)] for i in range(6)],
        ])
        def test_tp_tables(self, a):
            self.check(a)

        def test_stops_before_dividing_by_a_zero_minor(self):
            # the 2x2 minor on rows and columns (0, 1) is 0, and the size-3
            # condensation step would divide by it
            a = [[1, 1, 1], [1, 1, 2], [1, 2, 5]]
            self.check(a)
            cert = certify(a)
            assert cert.minors_checked == 10
            assert (cert.witness.rows, cert.witness.cols, cert.witness.minor) == ((0, 1), (0, 1), 0)

        def test_singular_integer_matrix(self):
            self.check([[1, 2, 3], [2, 5, 8], [3, 8, 13]])

        def test_witness_is_checked_by_bareiss(self, monkeypatch):
            monkeypatch.setattr(tp, "_bareiss_int", lambda grid: -1)
            with pytest.raises(AssertionError, match="by Bareiss"):
                certify([[1, 2], [3, 4]])

    return ScanMatchesBareiss


class TestCondensationMatchesBareiss(scan_matches_bareiss(fekete_check, fekete_by_bareiss)):
    pass


class TestAllMinorsMatchesBareiss(
    scan_matches_bareiss(all_minors_positive, all_minors_by_bareiss)
):
    def test_non_solid_first_witness(self):
        # every 1x1 minor and every 2x2 minor on rows (0, 1) is positive
        a = [[1, 1, 1], [1, 2, 4], [1, 1, 9]]
        self.check(a)
        w = all_minors_positive(a).witness
        assert (w.rows, w.cols, w.minor) == ((0, 2), (0, 1), 0)

    def test_singular_level_below(self):
        # rank 2 with every 2x2 minor (i2 - i1)(j2 - j1) > 0: each 3x3 minor
        # is 0, so the scan stops at the first one, before any 4x4 minor
        a = [[1 + i * j for j in range(1, 5)] for i in range(1, 5)]
        self.check(a)
        cert = all_minors_positive(a)
        assert cert.minors_checked == 16 + 36 + 1
        assert (cert.witness.rows, cert.witness.cols) == ((0, 1, 2), (0, 1, 2))

    def test_10x10_positive_table(self):
        cert = all_minors_positive(metamatrix_typeb(9).entries)
        assert cert.is_totally_positive
        assert cert.minors_checked == math.comb(20, 10) - 1


@pytest.mark.parametrize("certify, a, steps", [
    (fekete_check, metamatrix_typeb(24).entries, 2_600),
    (all_minors_positive, golden.E8, 24_520),
], ids=["fekete-b24", "all-minors-e8"])
def test_symmetric_grid_condenses_each_transposed_pair_once(monkeypatch, certify, a, steps):
    # the full scans take 4,900 and 48,538 condensation steps
    calls = []

    def counted(x, y):
        calls.append(y)
        return divmod(x, y)

    monkeypatch.setattr(tp, "divmod", counted, raising=False)
    assert certify(a).is_totally_positive
    assert len(calls) == steps


big_fractions = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30))


class TestScanPrice:
    """tp.scaled_digits counts the digits of each entry that tp._integer_rows
    builds, at most two too many, and tp.scan_work sums the squared digits
    of each scanned row set once per column set."""

    def check(self, a):
        for row, scaled in zip(a, tp._integer_rows(a)[0]):
            actual = [len(str(abs(x))) for x in scaled]
            assert all(d <= c <= d + 2 for c, d in zip(tp.scaled_digits(row), actual))

    @pytest.mark.parametrize("a", [*golden.EXCEPTIONAL.values(), metamatrix_typeb(64).entries],
                             ids=[*golden.EXCEPTIONAL, "B64"])
    def test_digits_of_golden_tables(self, a):
        self.check(a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(small_fractions | big_fractions, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_digits_of_fraction_matrices(self, a):
        self.check(a)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 50), min_size=1, max_size=3), min_size=1, max_size=7))
    def test_work_by_windows(self, digits):
        n, widths = len(digits), [max(row) for row in digits]
        windows = [[range(i, i + k) for i in range(n - k + 1)] for k in range(1, n + 1)]
        work = sum(len(sets) * sum(sum(widths[i] for i in s) ** 2 for s in sets)
                   for sets in windows)
        assert tp.scan_work(digits, all_minors=False) == work


class TestIntegerConjugation:
    def reference(self, l_mat) -> list:
        p_inv = invert_lower_triangular(pascal_matrix(len(l_mat) - 1))
        return matmul(matmul(p_inv, l_mat), transpose(p_inv))

    @settings(max_examples=100, deadline=None)
    @given(small_ints)
    def test_integer_input(self, grid):
        got = conjugate_by_inverse_pascal(grid)
        assert got == self.reference(grid)
        assert all(type(x) is int for row in got for x in row)

    @settings(max_examples=100, deadline=None)
    @given(rational_matrices())
    def test_fraction_input(self, l_mat):
        assert conjugate_by_inverse_pascal(l_mat) == self.reference(l_mat)
