"""Dense univariate polynomials over exact rationals.

Coefficients are `fractions.Fraction` values stored in ascending degree
order; the zero polynomial has an empty coefficient tuple.  Each
polynomial also holds one integer form, made once: integer numerators
over one common denominator.  Resultants are computed on it by
fraction-free subresultant elimination (degree-24 Sylvester determinants
are tractable but slow without fraction-free pivoting); the denominator
powers are reinstated symbolically at the end.

Sign convention, fixed here and pinned by tests:

    resultant(f, g) = lc(g)^deg(f) * prod_j f(beta_j)

over the roots beta_j of g, which is (-1)^(deg f * deg g) times the
Sylvester-matrix determinant of (f, g).  The discriminant

    disc(f) = (-1)^(n(n-1)/2) * resultant(f, f') / lc(f)

is independent of that choice because n(n-1) is even.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):  # JSON true is no coefficient
        return Fraction(value)
    if isinstance(value, str):
        return _parse_exact(value)
    raise TypeError(f"cannot use {type(value).__name__} as a rational coefficient")


@dataclass(frozen=True)
class PolyQ:
    """A polynomial over Q; `coeffs[k]` is the coefficient of X^k, and
    Fraction(num[k], den), where `den` is the lcm of the reduced
    denominators.  Equality, resultants and reductions mod p read those."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = [_coerce(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        # the dataclass hash, computed once: polynomials key the
        # discriminant cache, and rehashing 25 Fractions per lookup is
        # costly.  Fraction and tuple hashes are not randomized, so the value
        # survives pickling.
        object.__setattr__(self, "_hash", hash((self.coeffs,)))
        den = math.lcm(*(c.denominator for c in cs))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "num", tuple(c.numerator * (den // c.denominator) for c in cs))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # ints, not Fractions: a pool worker's unpickled key is a separate
        # object, and Fraction.__eq__ on each coefficient costs about 40x more
        return self.den == other.den and self.num == other.num

    @classmethod
    def from_coeffs(cls, coeffs) -> "PolyQ":
        """Ascending coefficients; ints, "num/den" strings and Fractions mix freely."""
        return cls(tuple(coeffs))

    @classmethod
    def zero(cls) -> "PolyQ":
        return cls(())

    @classmethod
    def one(cls) -> "PolyQ":
        return cls((Fraction(1),))

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyQ(tuple(out))

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other) -> "PolyQ":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return PolyQ.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return PolyQ(tuple(out))

    __rmul__ = __mul__

    def scale(self, k) -> "PolyQ":
        k = _coerce(k)
        return PolyQ(tuple(c * k for c in self.coeffs))

    def derivative(self) -> "PolyQ":
        return PolyQ(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))


# -- integer-level fraction-free machinery ---------------------------------


def _content(a: list[int]) -> int:
    return math.gcd(*a) or 1


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a  mod  b."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    for k in range(da - db, -1, -1):
        top = r[db + k]
        for i in range(len(r)):
            r[i] *= lb
        if top:
            for i in range(db + 1):
                r[i + k] -= top * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r[:db] if len(r) > db else r


def _int_resultant(a: list[int], b: list[int]) -> int:
    """Sylvester-determinant resultant of two nonzero integer polynomials,
    by the subresultant polynomial remainder sequence."""
    da, db = len(a) - 1, len(b) - 1
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            sign = -sign
    if db == 0:
        return sign * b[0] ** da
    ca, cb = _content(a), _content(b)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    scale = ca ** db * cb ** da
    g = h = 1
    while True:
        delta = da - db
        if da & db & 1:
            sign = -sign
        rem = _prem(a, b)
        if not rem:
            return 0
        a, da = b, db
        divisor = g * h ** delta
        b = [c // divisor for c in rem]
        db = len(b) - 1
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
        if db == 0:
            return sign * scale * (b[0] ** da // h ** (da - 1))


def resultant(f: PolyQ, g: PolyQ) -> Fraction:
    """Exact resultant under the convention in the module docstring.

    Zero exactly when f and g share a root.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    n, m = f.degree, g.degree
    if n == 0:
        return f.lc ** m  # constant f evaluated at each root of g
    if m == 0:
        return g.lc ** n  # lc(g)^deg(f) times an empty product
    base = Fraction(_int_resultant(f.num, g.num), f.den ** m * g.den ** n)
    if n & m & 1:
        base = -base
    return base


@functools.lru_cache(maxsize=32)
def discriminant(f: PolyQ) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) * Res(f, f') / lc(f), exact; computed
    once per polynomial among the last 32, in each process."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    res = resultant(f, f.derivative())
    if (n * (n - 1) // 2) % 2:
        res = -res
    return res / f.lc


# Shanks' simplest-cubic map A/B (D. Shanks, "The simplest cubic fields",
# Math. Comp. 28, 1974): invariant under the order-3 substitution
# x -> 1/(1 - x), so B^m P(A/B) has its roots in orbits of 3
SHANKS_A = PolyQ.from_coeffs([1, -3, 0, 1])  # X^3 - 3X + 1
SHANKS_B = PolyQ.from_coeffs([0, -1, 1])  # X^2 - X


def int_mul(a: list[int], b: list[int]) -> list[int]:
    """The product of two integer polynomials, ascending; [] is zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def compose(p: PolyQ, a: PolyQ, b: PolyQ) -> PolyQ:
    """B^deg P * P(A/B), exact; with B = 1 this is P(A).

    Horner on the homogenized P, on integer forms: with A = a.num / a.den
    and B = b.num / b.den, B^n P(A/B) is the sum of p.num_k A'^k B'^(n-k)
    over p.den (a.den b.den)^n, where A' = b.den a.num and B' = a.den b.num
    are integer polynomials.  So acc <- acc*A' + num_k*B'^(n-k), k = n..0,
    runs on ints, and the denominator divides once at the end.
    """
    a_int = [b.den * c for c in a.num]
    b_int = [a.den * c for c in b.num]
    acc: list[int] = []
    b_pow = [1]
    for c in reversed(p.num):
        acc = int_mul(acc, a_int)
        acc += [0] * (len(b_pow) - len(acc))
        for i, v in enumerate(b_pow):
            acc[i] += c * v
        b_pow = int_mul(b_pow, b_int)
    den = p.den * (a.den * b.den) ** max(p.degree, 0)
    return PolyQ(tuple(Fraction(c, den) for c in acc))


def trinomial_poly(u) -> PolyQ:
    """X^24 - u*(X + 1) for a nonzero rational u."""
    u = _coerce(u)
    if u == 0:
        raise ValueError("u = 0 degenerates the family")
    coeffs = [-u, -u] + [Fraction(0)] * 22 + [Fraction(1)]
    return PolyQ(tuple(coeffs))


def trinomial_disc(u) -> Fraction:
    """Closed form for disc(X^24 - u*(X+1)):  -(23^23 u + 24^24) u^23."""
    u = _coerce(u)
    if u == 0:
        raise ValueError("u = 0 degenerates the family")
    return -(Fraction(23) ** 23 * u + Fraction(24) ** 24) * u ** 23


# -- exact text and the polynomial file format -------------------------------


def exact_str(value: Fraction) -> str:
    """"num" or "num/den" in exact decimal digits, of any length.

    str(int) refuses more than sys.get_int_max_str_digits() digits; a
    Decimal built from an int is exact and prints without that limit.
    """
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


_EXACT_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_exact(text: str) -> Fraction:
    """The inverse of exact_str: "num" or "num/den", the numerator
    optionally signed, in decimal digits of any length.

    Decimal reads a digit string exactly and converts it to int without
    the digit limit of int(str).  A zero denominator raises
    ZeroDivisionError; any other text raises ValueError.
    """
    if not _EXACT_TEXT.fullmatch(text):
        raise ValueError(f"not a rational number: {text[:40]!r}")
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def poly_from_json(doc: dict) -> PolyQ:
    """Read {"degree": n, "coefficients": [...]}, each coefficient as
    exact_str writes it; a malformed document raises ValueError."""
    try:
        degree, texts = doc["degree"], doc["coefficients"]
    except (KeyError, TypeError):
        raise ValueError('expected an object with "degree" and "coefficients"') from None
    if type(degree) is not int or not isinstance(texts, list):
        raise ValueError('"degree" must be an integer and "coefficients" a list')
    try:
        coeffs = [_coerce(text) for text in texts]
    except ZeroDivisionError:
        raise ValueError("a coefficient has a zero denominator") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad coefficient: {exc}") from None
    if len(coeffs) != degree + 1:
        raise ValueError("degree field disagrees with the coefficient list")
    if coeffs and coeffs[-1] == 0:
        raise ValueError("leading coefficient is zero")
    return PolyQ(tuple(coeffs))


def load_poly(path) -> PolyQ:
    with open(path, encoding="utf-8") as fh:
        return poly_from_json(json.load(fh))
