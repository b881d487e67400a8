"""Perfect-square tests and square classes in Q*/(Q*)^2.

Exact rationals are `fractions.Fraction` values (always stored reduced,
with positive denominator) and big integers are plain `int`.  None of
the checks here factor anything: they rely solely on exact integer
square roots of products, so 25-digit prime-like cofactors cost nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction


def integer_sqrt(n: int) -> tuple[int, bool]:
    """(floor(sqrt(n)), exact flag) for a nonnegative integer n.

    Newton-style integer square root with an exact final verification.
    """
    if n < 0:
        raise ValueError("negative input")
    root = math.isqrt(n)
    return root, root * root == n


def is_square(a) -> bool:
    """True iff a = b^2 for some rational b."""
    a = Fraction(a)
    if a < 0:
        return False
    _, num_exact = integer_sqrt(a.numerator)
    if not num_exact:
        return False
    _, den_exact = integer_sqrt(a.denominator)
    return den_exact


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


def factored_constant(factors) -> int:
    """Expand a list of (prime, exponent) pairs into the integer they
    denote; the empty list gives 1."""
    value = 1
    for prime, exponent in factors:
        if prime <= 0:
            raise ValueError("primes must be positive")
        if exponent < 0:
            raise ValueError("exponents must be nonnegative")
        value *= prime ** exponent
    return value
