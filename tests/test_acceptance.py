"""Acceptance gate: one test per criterion, exact equality throughout, with
an explicit pass/fail line per criterion."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import golden
from definitional import coset_counts, mask, subsets
from metamatrix.coxeter import build_system
from metamatrix.engine import accumulate_ntable, double_coset_count, metamatrix_bruteforce
from metamatrix.tables import dihedral_ntable, metamatrix_from_ntable
from metamatrix.tp import all_minors_positive, fekete_check
from metamatrix.typeb import gauss_decomposition_typeb, gscm_count, metamatrix_typeb, scm_table
from references import (
    binomial_sum,
    det,
    enumerate_scm,
    gscm_product,
    is_upper_triangular,
    matmul,
    submatrix,
    subset_to_margin,
    transpose,
    verify_alternating_identity,
    verify_root_identity,
    verify_scm_gscm_transform,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num}: FAIL - {desc}", flush=True)
        raise
    else:
        print(f"CRITERION {num}: PASS - {desc}", flush=True)


@lru_cache(maxsize=None)
def enumerated(family, rank, m=None):
    """Metamatrix via N-table enumeration, with wall time in seconds."""
    start = time.perf_counter()
    table = accumulate_ntable(build_system(family, rank, m))
    result = metamatrix_from_ntable(table)
    return result, time.perf_counter() - start


def rows(metamatrix):
    return [list(r) for r in metamatrix.entries]


def test_criterion_01_golden_tables_small():
    with criterion(1, "I2(2..7), H3, H4, F4 tables exact, < 10 s total"):
        start = time.perf_counter()
        for m in range(2, 7):
            got, _ = enumerated("I2", 2, m)
            assert rows(got) == golden.dihedral_metamatrix(m), f"I2({m})"
        closed = metamatrix_from_ntable(dihedral_ntable(7))
        assert rows(closed) == golden.dihedral_metamatrix(7), "I2(7)"
        for label, (family, rank) in {"H3": ("H", 3), "H4": ("H", 4), "F4": ("F", 4)}.items():
            got, _ = enumerated(family, rank)
            assert rows(got) == golden.EXCEPTIONAL[label], label
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"took {elapsed:.1f} s"


def test_criterion_02_golden_tables_medium():
    with criterion(2, "E6 exact < 30 s, E7 exact < 5 min single-threaded"):
        e6, t6 = enumerated("E", 6)
        assert rows(e6) == golden.E6
        assert t6 < 30, f"E6 took {t6:.1f} s"
        e7, t7 = enumerated("E", 7)
        assert rows(e7) == golden.E7
        assert t7 < 300, f"E7 took {t7:.1f} s"


def test_criterion_03_golden_table_e8():
    with criterion(3, "E8 table exact with N-table symmetries"):
        table = accumulate_ntable(build_system("E", 8))
        assert table.total() == 696729600
        assert table.is_symmetric()
        assert rows(metamatrix_from_ntable(table)) == golden.E8


def test_criterion_04_typeb_three_way():
    with criterion(4, "type-B formula = enumeration (= oracle for n <= 3), B2 = I2(4)"):
        for n in (1, 2, 3):
            formula = metamatrix_typeb(n)
            assert formula == enumerated("B", n)[0], f"B{n} enumeration"
            assert formula == metamatrix_bruteforce(build_system("B", n)), f"B{n} oracle"
        assert metamatrix_typeb(4) == enumerated("B", 4)[0]
        assert rows(metamatrix_typeb(2)) == golden.dihedral_metamatrix(4)


def test_criterion_05_bijection_cardinalities():
    with criterion(5, "double cosets = signed matrices = minimal reps, B_n n <= 3"):
        for n in (1, 2, 3):
            system = build_system("B", n)
            minimal_reps = coset_counts(system)
            for left in subsets(n):
                for right in subsets(n):
                    cosets = double_coset_count(system, left, right)
                    scm = len(
                        enumerate_scm(
                            subset_to_margin(frozenset(left), n),
                            subset_to_margin(frozenset(right), n),
                        )
                    )
                    reps = minimal_reps[mask(right)][mask(left)]
                    assert cosets == scm == reps, (n, left, right)


def test_criterion_06_formula_identities():
    with criterion(6, "product formula, alternating identity, root identity"):
        for n in range(1, 11):
            for p in range(9):
                for q in range(9):
                    by_sum = binomial_sum(n, p * q, (p + 1) * (q + 1))
                    assert gscm_count(n, p, q) == by_sum == gscm_product(n, p, q), (n, p, q)
        assert all(
            verify_alternating_identity(n, k)
            for n in range(1, 13)
            for k in range(1, 13)
        )
        rng = random.Random(20240824)
        for n in range(1, 9):
            for k in range(1, n + 1):
                for _ in range(20):
                    x = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
                    assert verify_root_identity(n, k, x), (n, k, x)


def test_criterion_07_transform_relation():
    with criterion(7, "fixed-case binomial transform, n <= 4, all four flags"):
        for n in (1, 2, 3, 4):
            for lam in (0, 1):
                for mu in (0, 1):
                    assert verify_scm_gscm_transform(n, lam, mu), (n, lam, mu)


def test_criterion_08_decomposition():
    with criterion(8, "Q upper triangular, C positive diagonal, 2^n n! T = Q C Q^t in ints"):
        for n in range(1, 9):
            q, c = gauss_decomposition_typeb(n)
            assert is_upper_triangular(q)
            assert all(x > 0 for x in c)
            c_mat = [[c[i] if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
            scale = 2**n * math.factorial(n)
            assert matmul(matmul(q, c_mat), transpose(q)) == [
                [scale * x for x in row] for row in scm_table(n)
            ]


def _reference_matrices():
    out = [golden.dihedral_metamatrix(m) for m in range(2, 8)]
    out.extend(golden.EXCEPTIONAL.values())
    return out


def test_criterion_09_total_positivity():
    with criterion(9, "both certifiers positive on all tables, agree on corpus"):
        produced = [metamatrix_typeb(n) for n in (1, 2, 3, 4)]
        produced.extend(enumerated(f, r, m)[0] for f, r, m in [
            ("I2", 2, 2), ("I2", 2, 3), ("I2", 2, 4), ("I2", 2, 5), ("I2", 2, 6),
            ("H", 3, None), ("H", 4, None), ("F", 4, None), ("E", 6, None),
        ])
        produced.append(enumerated("E", 7)[0])
        for result in produced:
            matrix = rows(result)
            assert all_minors_positive(matrix).is_totally_positive
            assert fekete_check(matrix).is_totally_positive

        start = time.perf_counter()
        e8 = golden.E8
        cert = all_minors_positive(e8)
        elapsed = time.perf_counter() - start
        assert cert.is_totally_positive and cert.minors_checked == 48619
        assert elapsed < 60, f"E8 all-minors scan took {elapsed:.1f} s"
        assert fekete_check(e8).is_totally_positive

        corpus = _reference_matrices()
        rng = random.Random(312)
        for _ in range(100):
            size = rng.randint(2, 6)
            corpus.append(
                [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
            )
        references = _reference_matrices()
        for _ in range(100):
            base = rng.choice(references)
            grid = [list(row) for row in base]
            i = rng.randrange(len(base))
            j = rng.randrange(len(base[0]))
            grid[i][j] += rng.choice([-1, 1]) * rng.randint(1, 5)
            corpus.append(grid)
        for matrix in corpus:
            full = all_minors_positive(matrix)
            windows = fekete_check(matrix)
            assert full.verdict == windows.verdict
            for cert in (full, windows):
                if cert.witness is not None:
                    w = cert.witness
                    assert det(submatrix(matrix, w.rows, w.cols)) == w.minor
                    assert w.minor <= 0


def test_criterion_10_determinism():
    with criterion(10, "bit-identical results on repeated runs"):
        reference, _ = enumerated("E", 6)
        for _ in range(3):
            table = accumulate_ntable(build_system("E", 6))
            got = metamatrix_from_ntable(table)
            assert got.entries == reference.entries
        b6 = [accumulate_ntable(build_system("B", 6)).counts for _ in range(3)]
        assert b6[0] == b6[1] == b6[2]
        assert metamatrix_typeb(6).entries == metamatrix_from_ntable(
            accumulate_ntable(build_system("B", 6))
        ).entries
