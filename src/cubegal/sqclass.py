"""Perfect-square tests and square classes in Q*/(Q*)^2.

Exact rationals are `fractions.Fraction` values (always stored reduced,
with positive denominator) and big integers are plain `int`.  None of
the checks here factor anything: they rely solely on exact integer
square roots (`math.isqrt`) of products, so 25-digit prime-like cofactors
cost nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_square(a) -> bool:
    """True iff a = b^2 for some rational b."""
    a = Fraction(a)
    if a < 0:
        return False
    return all(math.isqrt(n) ** 2 == n for n in (a.numerator, a.denominator))


def square_class_equal(a, b) -> bool:
    """True iff a and b represent the same class in Q*/(Q*)^2.

    Equivalent to a*b being a rational square; zero is not a class
    member and raises.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("zero has no square class")
    return is_square(a * b)
