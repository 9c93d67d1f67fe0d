import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from definitional import subsets
from metamatrix.typeb import gscm_count, metamatrix_typeb, scm_count_closed, scm_table
from references import (
    MarginCondition,
    binomial_sum,
    enumerate_scm,
    gen_binom,
    gscm_piece_count,
    gscm_product,
    margin_conditions,
    margin_to_subset,
    scm_count,
    scm_count_fixed_case,
    subset_to_margin,
    verify_scm_gscm_transform,
)


def weak_compositions(total, length):
    """All length-tuples of nonnegative integers summing to total."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, length - 1):
            yield (first,) + rest


def gscm_oracle(n, p, q, lam, mu):
    """Count pairs (plus grid on p x q, minus grid on (p+lam) x (q+mu)) with
    total sum n, requiring the extra minus row/column to be nonzero.
    Exhaustive, independent of any closed form."""
    rows, cols = p + lam, q + mu
    total = 0
    for a in range(n + 1):
        plus_ways = sum(1 for _ in weak_compositions(n - a, p * q))
        for flat in weak_compositions(a, rows * cols):
            grid = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
            if lam and not any(grid[p]):
                continue
            if mu and not any(row[q] for row in grid):
                continue
            total += plus_ways
    return total


class TestMargins:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_subset_bijection(self, n):
        for subset in subsets(n):
            s = frozenset(subset)
            margin = subset_to_margin(s, n)
            assert margin.n == n
            assert margin.length == n - len(s)
            assert margin_to_subset(margin, n) == s

    def test_counts_are_binomial(self):
        for n in range(1, 8):
            for length in range(n + 1):
                assert len(margin_conditions(n, length)) == math.comb(n, length)

    def test_full_subset(self):
        margin = subset_to_margin(frozenset(range(1, 5)), 4)
        assert margin == MarginCondition((4,), 1)
        assert margin.length == 0

    def test_empty_subset(self):
        assert subset_to_margin(frozenset(), 3) == MarginCondition((1, 1, 1), 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            subset_to_margin({4}, 3)
        with pytest.raises(ValueError):
            margin_to_subset(MarginCondition((2, 1), 0), 4)

    def test_bad_flag_rejected(self):
        with pytest.raises(ValueError):
            MarginCondition((1,), 2)


class TestEnumerateScm:
    def test_n1_cases(self):
        plain = MarginCondition((1,), 0)
        flagged = MarginCondition((1,), 1)
        assert len(enumerate_scm(plain, plain)) == 2
        assert len(enumerate_scm(flagged, plain)) == 1
        assert len(enumerate_scm(plain, flagged)) == 1
        assert len(enumerate_scm(flagged, flagged)) == 1

    def test_n2_unflagged_full_margins(self):
        alpha = MarginCondition((1, 1), 0)
        assert len(enumerate_scm(alpha, alpha)) == 8

    def test_margins_preserved(self):
        alpha = MarginCondition((2, 1), 0)
        beta = MarginCondition((1, 2), 0)
        for sm in enumerate_scm(alpha, beta):
            row_tot = [sum(p + m for p, m in row) for row in sm.grid]
            col_tot = [sum(p + m for p, m in col) for col in zip(*sm.grid)]
            assert row_tot == [2, 1] and col_tot == [1, 2]

    def test_flagged_cells_have_no_minus(self):
        alpha = MarginCondition((2, 1), 1)
        beta = MarginCondition((3,), 0)
        for sm in enumerate_scm(alpha, beta):
            assert all(m == 0 for _, m in sm.grid[-1])

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_scm(MarginCondition((1,), 0), MarginCondition((2,), 0))


class TestScmCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_table_matches_enumeration(self, n):
        t = scm_table(n)
        for p in range(n + 1):
            for q in range(n + 1):
                assert t[p][q] == scm_count(n, p, q)

    def test_fixed_cases_partition(self):
        for n in (1, 2, 3):
            for p in range(n + 1):
                for q in range(n + 1):
                    assert scm_count(n, p, q) == sum(
                        scm_count_fixed_case(n, p, q, lam, mu)
                        for lam in (0, 1)
                        for mu in (0, 1)
                    )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            scm_count(2, 3, 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_closed_count_matches_enumeration(self, n):
        for p in range(n + 1):
            for q in range(n + 1):
                assert scm_count_closed(n, p, q) == scm_count(n, p, q), (n, p, q)

    def test_closed_count_is_the_table_entry(self):
        # the O(pq) double sum against the whole conjugated table
        for n in range(1, 13):
            t = scm_table(n)
            for p in range(n + 1):
                for q in range(n + 1):
                    assert scm_count_closed(n, p, q) == t[p][q], (n, p, q)

    @pytest.mark.parametrize("args", [(2, 3, 0), (2, 0, 3), (2, -1, 0), (-1, 0, 0)])
    def test_closed_count_out_of_range_rejected(self, args):
        with pytest.raises(ValueError, match="need 0 <= p, q <= n"):
            scm_count_closed(*args)


class TestGscm:
    def test_small_values(self):
        assert gscm_count(1, 1, 1) == 5
        assert gscm_count(2, 1, 1) == 15

    def test_piece_additivity(self):
        for n in (1, 2, 3, 4):
            for p in range(3):
                for q in range(3):
                    assert gscm_count(n, p, q) == sum(
                        gscm_piece_count(n, p, q, lam, mu)
                        for lam in (0, 1)
                        for mu in (0, 1)
                    )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pieces_match_oracle(self, n):
        for p in range(3):
            for q in range(3):
                for lam in (0, 1):
                    for mu in (0, 1):
                        assert gscm_piece_count(n, p, q, lam, mu) == gscm_oracle(
                            n, p, q, lam, mu
                        ), (n, p, q, lam, mu)

    @pytest.mark.parametrize("n,lam,mu", [
        (n, lam, mu) for n in (1, 2, 3, 4) for lam in (0, 1) for mu in (0, 1)
    ])
    def test_transform_relation(self, n, lam, mu):
        assert verify_scm_gscm_transform(n, lam, mu)

    def test_transform_cap(self):
        with pytest.raises(ValueError):
            verify_scm_gscm_transform(6, 0, 0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gscm_piece_count(2, -1, 0, 0, 0)
        with pytest.raises(ValueError):
            gscm_count(2, -1, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    def test_closed_form_matches_sum_and_product(self, n, p, q):
        by_sum = binomial_sum(n, p * q, (p + 1) * (q + 1))
        assert gscm_count(n, p, q) == by_sum == gscm_product(n, p, q)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 40), st.integers(0, 40))
    def test_binomial_sum_is_one_binomial(self, n, pq, x):
        assert binomial_sum(n, pq, x) == gen_binom(n + x + pq - 1, n)


class TestMetamatrixTypeb:
    def test_n1(self):
        assert metamatrix_typeb(1).entries == ((2, 1), (1, 1))

    def test_n2_matches_dihedral(self):
        assert metamatrix_typeb(2).entries == ((8, 8, 1), (8, 10, 2), (1, 2, 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_invariants(self, n):
        m = metamatrix_typeb(n).entries
        assert m[0][0] == 2**n * math.factorial(n)
        assert all(m[p][q] == m[q][p] for p in range(n + 1) for q in range(n + 1))
        assert list(m[n]) == [math.comb(n, q) for q in range(n + 1)]

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            metamatrix_typeb(0)

    def test_b1_to_b64_match_frozen_digest(self):
        tables = [metamatrix_typeb(n).entries for n in range(1, 65)]
        canon = json.dumps(tables, separators=(",", ":"))
        assert hashlib.sha256(canon.encode()).hexdigest() == golden.TYPEB_1_TO_64_SHA256
