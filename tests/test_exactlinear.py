import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metamatrix.exactlinear import Matrix, bareiss_det
from metamatrix.typeb import conjugate_by_inverse_pascal
from references import (
    gen_binom,
    identity,
    invert_lower_triangular,
    matmul,
    pascal_matrix,
    transpose,
    verify_alternating_identity,
    verify_root_identity,
)


def vandermonde_det_oracle(nodes):
    """Independent oracle: prod_{i<j} (x_j - x_i)."""
    det = Fraction(1)
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            det *= nodes[j] - nodes[i]
    return det


class TestGenBinom:
    def test_empty_product(self):
        assert gen_binom(-1, 0) == 1

    def test_k_above_top(self):
        assert gen_binom(3, 5) == 0

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_zero_factor(self, a):
        assert gen_binom(a - 1, a) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            gen_binom(3, -1)

    def test_pascal_recurrence(self):
        for t in range(-10, 21):
            for k in range(0, 21):
                if k == 0:
                    assert gen_binom(t, k) == 1
                else:
                    assert gen_binom(t, k) == gen_binom(t - 1, k) + gen_binom(t - 1, k - 1)


class TestBareissDet:
    def test_2x2(self):
        assert bareiss_det(Matrix.from_rows([[2, 3], [4, 5]])) == -2

    def test_identity(self):
        assert bareiss_det(Matrix.from_rows(identity(4))) == 1

    def test_vandermonde_half_nodes(self):
        nodes = [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
        m = Matrix.from_rows([[x**j for j in range(3)] for x in nodes])
        assert bareiss_det(m) == vandermonde_det_oracle(nodes) == 2

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            bareiss_det(Matrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_empty_matrix(self):
        assert bareiss_det(Matrix.from_rows([])) == 1

    def test_singular(self):
        assert bareiss_det(Matrix.from_rows([[1, 2], [2, 4]])) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-6, 6), min_size=18, max_size=18),
    )
    def test_multiplicative(self, entries):
        a = [entries[i : i + 3] for i in range(0, 9, 3)]
        b = [entries[i : i + 3] for i in range(9, 18, 3)]
        assert bareiss_det(Matrix.from_rows(matmul(a, b))) == bareiss_det(
            Matrix.from_rows(a)
        ) * bareiss_det(Matrix.from_rows(b))

    def test_rational_matrix(self):
        m = Matrix.from_rows(
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        )
        assert bareiss_det(m) == Fraction(1, 14) - Fraction(1, 15)


class TestPascalVandermonde:
    def test_pascal_small(self):
        assert pascal_matrix(1) == [[1, 0], [1, 1]]
        assert pascal_matrix(2) == [[1, 0, 0], [1, 1, 0], [1, 2, 1]]

    def test_pascal_inverse(self):
        inv = invert_lower_triangular(pascal_matrix(2))
        assert inv == [[1, 0, 0], [-1, 1, 0], [1, -2, 1]]


class TestInvertLowerTriangular:
    def test_identity(self):
        assert invert_lower_triangular(identity(3)) == identity(3)

    @pytest.mark.parametrize("n", range(11))
    def test_pascal_inverse_exact(self, n):
        p = pascal_matrix(n)
        assert matmul(invert_lower_triangular(p), p) == identity(n + 1)

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            invert_lower_triangular([[0, 0], [1, 1]])

    def test_not_triangular_rejected(self):
        with pytest.raises(ValueError):
            invert_lower_triangular([[1, 1], [0, 1]])


class TestConjugateByInversePascal:
    def test_n1_table(self):
        assert conjugate_by_inverse_pascal([[1, 2], [2, 5]]) == [[1, 1], [1, 2]]

    def test_n2_table(self):
        t = conjugate_by_inverse_pascal([[1, 3, 6], [3, 15, 36], [6, 36, 91]])
        assert t == [[1, 2, 1], [2, 10, 8], [1, 8, 8]]
        assert all(type(x) is int for row in t for x in row)

    def test_identity_case(self):
        n = 3
        p_inv = invert_lower_triangular(pascal_matrix(n))
        expected = matmul(p_inv, transpose(p_inv))
        assert conjugate_by_inverse_pascal(identity(n + 1)) == expected

    def test_round_trip(self):
        l_mat = [[1, 3, 6], [3, 15, 36], [6, 36, 91]]
        p = pascal_matrix(2)
        t = conjugate_by_inverse_pascal(l_mat)
        assert matmul(matmul(p, t), transpose(p)) == l_mat

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            conjugate_by_inverse_pascal([[1, 2, 3], [4, 5, 6]])


class TestIdentities:
    def test_alternating_identity_examples(self):
        assert verify_alternating_identity(1, 1)
        assert verify_alternating_identity(2, 3)
        assert verify_alternating_identity(5, 4)

    def test_alternating_identity_range(self):
        assert all(
            verify_alternating_identity(n, k)
            for n in range(1, 13)
            for k in range(1, 13)
        )

    def test_root_identity_examples(self):
        assert verify_root_identity(1, 1, 7)
        assert verify_root_identity(2, 2, 0)
        assert verify_root_identity(3, 2, Fraction(1, 2))

    def test_root_identity_random_rationals(self):
        rng = random.Random(20240824)
        for n in range(1, 9):
            for k in range(1, n + 1):
                for _ in range(20):
                    x = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                    assert verify_root_identity(n, k, x)

