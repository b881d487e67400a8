"""Polynomial arithmetic over prime fields with word-sized moduli.

Distinct-degree factorization returns the multiset of irreducible factor
degrees of a squarefree polynomial mod p; for a good prime this multiset
is the cycle type of a Frobenius element of the splitting field, which
is the observable every Galois-evidence check consumes.

The prime stream is deterministic (consecutive primes from 2 upward), so
scans reproduce exactly without a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .perm import CycleType
from .polyq import PolyQ

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (Sorenson & Webster); far beyond any modulus used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes(start: int = 2):
    """Consecutive primes from `start` upward, without end."""
    n = max(2, start)
    if n == 2:
        yield 2
        n = 3
    if n % 2 == 0:
        n += 1
    while True:
        if is_prime(n):
            yield n
        n += 2


@dataclass(frozen=True)
class PolyFp:
    """A polynomial over F_p; residues ascending, leading residue nonzero."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = [c % self.p for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def monic(self) -> "PolyFp":
        if self.is_zero:
            raise ValueError("zero polynomial")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = pow(lead, -1, self.p)
        return PolyFp(self.p, tuple(c * inv % self.p for c in self.coeffs))


# -- raw list helpers (ascending residues, trimmed) -------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % p for c in out])


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = [c % p for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for k in range(len(r) - 1 - db, -1, -1):
        top = r[db + k] % p
        if top:
            factor = top * inv % p
            for i in range(db + 1):
                r[i + k] = (r[i + k] - factor * b[i]) % p
    del r[db:]
    return _trim(r)


def _divexact(a: list[int], b: list[int], p: int) -> list[int]:
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = [c % p for c in a]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        top = r[db + k] % p
        if top:
            factor = top * inv % p
            q[k] = factor
            for i in range(db + 1):
                r[i + k] = (r[i + k] - factor * b[i]) % p
    if _trim(r):
        raise ArithmeticError("division was not exact")
    return _trim(q)


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _rem(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _deriv(a: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    acc = _rem(base, mod, p)
    while e:
        if e & 1:
            result = _rem(_mul(result, acc, p), mod, p)
        e >>= 1
        if e:
            acc = _rem(_mul(acc, acc, p), mod, p)
    return result


# -- public operations --------------------------------------------------------


def reduce_mod_p(f: PolyQ, p: int):
    """Coefficientwise reduction with denominator inversion mod p.

    Returns None ("bad prime") when p divides any coefficient
    denominator or the leading numerator, so degree would drop.
    Raises when p is not prime.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.is_zero:
        raise ValueError("zero polynomial")
    out = []
    for c in f.coeffs:
        if c.denominator % p == 0:
            return None
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    if out[-1] == 0:
        return None
    return PolyFp(p, tuple(out))


def powmod(base: PolyFp, e: int, modpoly: PolyFp) -> PolyFp:
    """base^e mod modpoly by square-and-multiply; e may be huge."""
    if base.p != modpoly.p:
        raise ValueError("modulus mismatch")
    if modpoly.degree < 1:
        raise ValueError("modulus polynomial must have degree >= 1")
    if e < 0:
        raise ValueError("negative exponent")
    return PolyFp(base.p, tuple(_powmod(list(base.coeffs), e, list(modpoly.coeffs), base.p)))


def ddf_cycle_type(f: PolyFp):
    """Multiset of irreducible-factor degrees of f mod p, via
    gcd(X^(p^d) - X, f) for d = 1, 2, ...; None when f is not squarefree.

    For squarefree f the factors are distinct, so multiplicity in the
    returned type is the count of factors of that degree.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        raise ValueError("constant polynomial")
    p = f.p
    fstar = list(f.monic().coeffs)
    if len(_gcd(fstar, _deriv(fstar, p), p)) != 1:
        return None
    parts: list[int] = []
    x = [0, 1]
    w = _rem(x, fstar, p)
    d = 0
    while len(fstar) - 1 > 0:
        d += 1
        if 2 * d > len(fstar) - 1:
            parts.append(len(fstar) - 1)
            break
        w = _powmod(w, p, fstar, p)
        delta = list(w) + [0] * max(0, 2 - len(w))
        delta[1] = (delta[1] - 1) % p  # w - X
        g = _gcd(_trim(delta), fstar, p)
        if len(g) - 1 > 0:
            parts.extend([d] * ((len(g) - 1) // d))
            fstar = _divexact(fstar, g, p)
            w = _rem(w, fstar, p)
    return CycleType(tuple(parts))


def frobenius_type(f: PolyQ, p: int):
    """Cycle type of f mod p, or None when p is bad (undefined or
    ramified reduction)."""
    reduced = reduce_mod_p(f, p)
    if reduced is None:
        return None
    return ddf_cycle_type(reduced)


def legendre(a: Fraction | int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p and a with p-unit value."""
    a = Fraction(a)
    num = a.numerator % p
    den = a.denominator % p
    if num == 0 or den == 0:
        raise ValueError("argument is not a p-adic unit")
    val = num * pow(den, -1, p) % p
    sym = pow(val, (p - 1) // 2, p)
    return 1 if sym == 1 else -1
