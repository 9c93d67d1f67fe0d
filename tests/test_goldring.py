import math
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from metamatrix.engine import nonneg_grid


@dataclass(frozen=True)
class Golden:
    """a + b*phi with exact components (ints, or Fractions after division):
    the scalar reference for `nonneg_grid`."""

    a: int | Fraction
    b: int | Fraction

    def __add__(self, other: "Golden") -> "Golden":
        return Golden(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Golden") -> "Golden":
        return Golden(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "Golden") -> "Golden":
        # (a1 + b1 phi)(a2 + b2 phi), using phi^2 = phi + 1
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return Golden(a1 * a2 + b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)

    def inverse(self) -> "Golden":
        # conjugate is a + b*(1 - phi); norm a^2 + a*b - b^2 is rational
        norm = self.a * self.a + self.a * self.b - self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("zero has no inverse")
        return Golden(Fraction(self.a + self.b, 1) / norm, Fraction(-self.b, 1) / norm)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of the real number a + b*phi."""
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        s = 2 * a + b
        if b > 0:
            if s >= 0:
                return 1
            return 1 if 5 * b * b > s * s else -1
        if s <= 0:
            return -1
        return 1 if s * s > 5 * b * b else -1


PHI = Golden(0, 1)
ZERO = Golden(0, 0)
ONE = Golden(1, 0)

PHI_FLOAT = (1 + math.sqrt(5)) / 2

golden_elems = st.builds(Golden, st.integers(-40, 40), st.integers(-40, 40))


def test_phi_squared():
    assert PHI * PHI == Golden(1, 1)


def test_inverse():
    x = Golden(3, -2)
    assert x * x.inverse() == Golden(1, 0)
    assert PHI.inverse() == Golden(-1, 1)  # 1/phi = phi - 1


def test_sign_fixtures():
    assert ZERO.sign() == 0 and ZERO.is_zero()
    assert Golden(1, 0).sign() == 1
    assert Golden(-1, 1).sign() == 1  # phi - 1 > 0
    assert Golden(2, -1).sign() == 1  # 2 - phi > 0
    assert Golden(1, -1).sign() == -1  # 1 - phi < 0
    assert Golden(-2, 1).sign() == -1  # phi - 2 < 0


@settings(max_examples=200, deadline=None)
@given(golden_elems)
def test_sign_matches_float(x):
    value = x.a + x.b * PHI_FLOAT
    if abs(value) > 1e-9:
        assert x.sign() == (1 if value > 0 else -1)


@settings(max_examples=100, deadline=None)
@given(golden_elems, golden_elems)
def test_sign_multiplicative(x, y):
    assert (x * y).sign() == x.sign() * y.sign()


@settings(max_examples=100, deadline=None)
@given(golden_elems, golden_elems)
def test_ring_axioms_sample(x, y):
    assert x * y == y * x
    assert (x - y) + y == x
    assert x * ONE == x


def test_nonneg_grid_matches_scalar_sign():
    vals = range(-6, 7)
    for p in vals:
        for q in vals:
            assert nonneg_grid(p, q) == (Golden(p, q).sign() >= 0), (p, q)
