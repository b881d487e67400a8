import random
from fractions import Fraction

import pytest

from cubegal.sqclass import is_square, square_class_equal


def test_is_square_examples():
    assert is_square(Fraction(4, 9))
    assert not is_square(-1)
    assert not is_square(Fraction(2))
    assert is_square(0)
    # even prime exponents throughout
    assert is_square(Fraction(2 ** 1728 * 3 ** 576, 23 ** 552))


def test_square_class_basics():
    assert square_class_equal(8, 2)  # 8*2 = 16
    assert square_class_equal(Fraction(-3, 5), Fraction(-3, 5))
    c = 1437417619559484462138047
    assert not square_class_equal(7 * c, c)  # product 7*c^2 is not a square


def test_square_class_zero_rejected():
    with pytest.raises(ValueError):
        square_class_equal(0, 4)
    with pytest.raises(ValueError):
        square_class_equal(4, 0)


def test_square_class_is_equivalence():
    rng = random.Random(31)
    values = [Fraction(rng.randrange(-50, 50) or 7, rng.randrange(1, 30))
              for _ in range(12)]
    for a in values:
        assert square_class_equal(a, a)
    for a in values:
        for b in values:
            assert square_class_equal(a, b) == square_class_equal(b, a)
    for a in values:
        for b in values:
            for c in values:
                if square_class_equal(a, b) and square_class_equal(b, c):
                    assert square_class_equal(a, c)


def test_square_scaling_preserves_class():
    rng = random.Random(8)
    for _ in range(40):
        a = Fraction(rng.randrange(-99, 99) or 3, rng.randrange(1, 40))
        r = Fraction(rng.randrange(1, 60), rng.randrange(1, 60))
        assert square_class_equal(a, a * r * r)


def test_is_square_iff_class_of_one():
    rng = random.Random(12)
    for _ in range(40):
        a = Fraction(rng.randrange(-60, 60) or 5, rng.randrange(1, 25))
        assert is_square(a) == (a > 0 and square_class_equal(a, 1)) if a != 0 else True

