"""Polynomial arithmetic over prime fields with word-sized moduli.

Distinct-degree factorization (DDF) returns the multiset of irreducible
factor degrees of a squarefree polynomial mod p; for a good prime this
multiset is the cycle type of a Frobenius element of the splitting
field, which is the observable every Galois-evidence check consumes.

DDF and `powmod` share one multiply-mod kernel for F_p[X]/(f), f of
degree n.  It packs the n coefficients of a residue into fixed-width
slots of one Python int (Kronecker substitution; Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", 2009),
so a product of two residues is one bignum multiply in CPython's C code.
The product's high slots are folded back by precomputed packed rows
X^(n+k) mod f, each scaled by a small int and added; a row whose
predecessor has top coefficient 0 is that row shifted by one slot.  Per
prime, DDF computes X^p mod f once by squaring: the leading bits of p
that keep the exponent below n give a monomial for free, and each
multiply by X is a one-slot shift of a square before its fold.  It then
builds the rows X^(ip) mod f of the Frobenius (Berlekamp Q-) matrix, and
gets every later X^(p^d) as a linear combination of those rows (von zur
Gathen & Gerhard, "Modern Computer Algebra", 14.2).  The gcds and exact
divisions run on plain lists through one long-division loop, `_reduce`,
which reduces mod p once per division.  A batch of degrees shares one
gcd, and refining it stops, with no further gcd, as soon as the degree
of what is left admits only one multiset of factor degrees.

Two block structures let DDF run on a smaller base polynomial
(`notes/decisions.md`, "Frobenius types through block quotients"):
f = q(X^2) with f(0) != 0, and f = B^m P(A/B) with Shanks' simplest-cubic
map A/B = (X^3 - 3X + 1)/(X^2 - X).  `_cover` finds them once per
polynomial and proves them exactly.  At p = 1 mod k (k = 2 or 3 roots in
a block) the roots over a root b of the base are, up to a Moebius map
over F_p, the k-th roots of a Kummer element E(b), so each factor of
degree d of the base gives k factors of degree d of f or one of degree
kd, as E(b) is a k-th power in F_(p^d) or not.  A lone factor decides
that by the Kummer character of its norm, with no gcd; only several
factors of one degree need E^((p^d - 1)/k) mod the base.  Other primes,
and other polynomials, take the plain DDF of f.

`frobenius_type` reads a rational polynomial at a prime through its
integer form, `num` over `den`, and builds no `PolyFp`: the monic
residues are num_k / num_n mod p, and squarefreeness comes from disc f
mod p (cached per polynomial), not from gcd(f, f').  Stickelberger's
theorem checks every type: the degrees sum to deg f, and at odd p the
parity is the Legendre symbol (disc f / p).  At p = 2 the gcd still runs
and is checked against disc f mod 2.  A failed check raises
ArithmeticError, so a kernel fault cannot pass as evidence.
`frobenius_sign` at odd p is that symbol, by Euler's criterion, with no
DDF.  `_stickelberger` holds the goodness rule and the expected sign
for both.  `ddf_cycle_type`, on a polynomial over F_p, keeps the gcd.
The public functions test p for primality; `_type` and `_sign` behind
them do not, for callers that draw p from `primes()`.

The prime stream is deterministic (consecutive primes from 2 upward), so
scans reproduce exactly without a seed.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from operator import mul

from .perm import CycleType
from .polyq import SHANKS_A, SHANKS_B, PolyQ, compose, discriminant

# Deterministic Miller-Rabin: the first k prime bases decide every
# n < _PSI[k - 1], where _PSI[k - 1] is the least strong pseudoprime to
# all of them (OEIS A014233; Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017).  The 13 bases decide every
# n < 3.3 * 10^24, far beyond any modulus used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        3317044064679887385961981)
# degrees whose w - X share one gcd with f* in distinct-degree factorization
_DDF_BATCH = 4


def is_prime(n: int) -> bool:
    """Whether n is prime, for n < 3317044064679887385961981 (the least
    strong pseudoprime to the 13 bases); larger n raise ValueError."""
    if n >= _PSI[-1]:
        raise ValueError(f"{n} is too large for a deterministic primality test")
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
    for a, psi in zip(_MR_BASES, _PSI):
        x = pow(a, d, n)
        if x not in (1, n - 1):
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:  # the bases so far decide n
            return True
    return True


def primes():
    """Consecutive primes from 2 upward, without end."""
    yield 2
    yield from filter(is_prime, count(3, 2))


@dataclass(frozen=True)
class PolyFp:
    """A polynomial over F_p; residues ascending, leading residue nonzero."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_trim([c % self.p for c in self.coeffs])))

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


def _reduce(r: list[int], b: list[int], p: int, quotient: list[int] | None = None) -> list[int]:
    """r mod b, trimmed, with residues below p; r may hold any ints and is
    used up, b is trimmed and nonzero with residues below p.

    The one long-division loop: each step pops the top coefficient of r
    and subtracts its multiple of b from the coefficients below it,
    without taking them mod p; the remainder is reduced once, at the end.
    The quotient's coefficients, highest first, are appended to
    `quotient` when given."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    below = range(db)
    while len(r) > db:
        factor = r.pop() * inv % p
        if quotient is not None:
            quotient.append(factor)
        if factor:
            k = len(r) - db
            for i in below:
                r[k + i] -= factor * b[i]
    return _trim([c % p for c in r])


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q * b + r and deg r < deg b, for trimmed b whose
    residues are below p; a may hold any ints."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q: list[int] = []
    r = _reduce(list(a), b, p, q)
    q.reverse()
    return _trim(q), r


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    return _divmod(a, b, p)[1]


def _divexact(a: list[int], b: list[int], p: int) -> list[int]:
    q, r = _divmod(a, b, p)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b, both trimmed with residues below p.

    Euclid on two working copies, which `_reduce` uses up."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _reduce(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _evaluate(a: list[int], x: int, p: int) -> int:
    """a(x) mod p, by Horner's rule."""
    value = 0
    for c in reversed(a):
        value = (value * x + c) % p
    return value


def _deriv(a: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


# -- packed residues mod f ----------------------------------------------------


class _Residues:
    """Arithmetic in F_p[X]/(f), for monic f of degree n >= 1, on residues
    packed into one int by Kronecker substitution.

    A residue is a list of n coefficients below p, ascending; packed, its
    coefficient k sits in slot k, `width` bytes wide.  The product of two
    packed residues is one bignum multiply whose slot k holds the sum of
    the a_i * b_j with i + j = k.  `fold` reduces such a product mod f
    with the packed rows X^(n+k) mod f, k < n: each high slot, taken mod
    p, scales its row, and the scaled rows are added to the low n slots.
    A slot then holds a sum of at most 2n products below p^2, and is wide
    enough for that, so no slot carries into the next.

    The rows are built once per (f, p).  X^(n+k+1) mod f is X^(n+k) mod f
    times X: its slots shifted up by one, plus its top coefficient times
    X^n mod f.  When that top coefficient is 0 the row is the previous
    packed row shifted by one slot, with no pass mod p and no pack; for a
    sparse f, such as a trinomial or q(X^2), most rows are such shifts.
    The last row, X^(2n-1), serves `x_power`, whose squares are shifted by
    one slot to multiply by X.
    """

    def __init__(self, f: list[int], p: int):
        n = len(f) - 1
        width = -(-(2 * n * (p - 1) ** 2).bit_length() // 8)
        if width <= 8:
            # round up to 1, 2, 4 or 8 bytes, which struct packs in C
            width = 1 << (width - 1).bit_length()
            self.codec = struct.Struct(f"<{n}{'BHIQ'[width.bit_length() - 1]}")
        else:
            self.codec = None
        self.p, self.n, self.width = p, n, width
        self.slot = 8 * width  # bits in one slot
        self.shift = self.slot * n  # bits in n slots
        self.low = (1 << self.shift) - 1
        # X^n, ..., X^(2n-1) mod f: the high slots of a product of residues,
        # and of a square shifted by one slot
        row = x_n = [-c % p for c in f[:-1]]
        packed = self.pack(row)
        self.rows = [packed]
        for _ in range(n - 1):
            top = row[-1]
            if top:
                row = [(top * c + r) % p for c, r in zip(x_n, [0] + row[:-1])]
                packed = self.pack(row)
            else:
                row = [0] + row[:-1]
                packed <<= self.slot
            self.rows.append(packed)

    def pack(self, a: list[int]) -> int:
        if self.codec is not None:
            return int.from_bytes(self.codec.pack(*a), "little")
        return int.from_bytes(b"".join(c.to_bytes(self.width, "little") for c in a), "little")

    def unpack_mod(self, v: int) -> list[int]:
        """The n slots of v, each taken mod p."""
        raw = v.to_bytes(self.n * self.width, "little")
        if self.codec is not None:
            slots = self.codec.unpack(raw)
        else:
            w = self.width
            slots = [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]
        p = self.p
        return [s % p for s in slots]

    def fold(self, c: int) -> list[int]:
        """The residue mod f of c, a product of two packed residues or
        such a square shifted by one slot: its n high slots folded back
        onto the low ones."""
        high = self.unpack_mod(c >> self.shift)
        return self.unpack_mod(sum(map(mul, high, self.rows), c & self.low))

    def mulmod(self, a: list[int], b: list[int]) -> list[int]:
        """a * b mod f: one bignum multiply, then the high slots folded back."""
        return self.fold(self.pack(a) * self.pack(b))

    def power(self, a: list[int], e: int) -> list[int]:
        """a^e by left-to-right square-and-multiply, for e >= 1; each
        operand is packed once, and a square multiplies one pack by itself."""
        base = v = self.pack(a)
        r = a
        for bit in bin(e)[3:]:
            r = self.fold(v * v)
            if bit == "1":
                r = self.fold(self.pack(r) * base)
            v = self.pack(r)
        return r

    def x_power(self, e: int) -> list[int]:
        """X^e mod f, for e >= 0, by left-to-right squaring.

        The longest leading run of e's bits whose value k stays below n
        gives the monomial X^k, packed as one shifted 1, with no work.
        Each further bit squares, and a 1 bit multiplies the square by X
        as a one-slot shift before its one fold, so X^e costs one fold per
        bit past that prefix: about 6 for p near 1,000 and n = 24, against
        about 15 for square-and-multiply."""
        n, slot = self.n, self.slot
        rest = e.bit_length()  # the bits of e not yet applied
        while rest and e >> (rest - 1) < n:
            rest -= 1
        r = [0] * n
        r[e >> rest] = 1
        v = 1 << (e >> rest) * slot  # X^(e >> rest), packed
        for i in reversed(range(rest)):
            c = v * v
            if e >> i & 1:
                c <<= slot
            r = self.fold(c)
            if i:
                v = self.pack(r)
        return r

    def frobenius(self, xp: list[int]) -> list[int]:
        """The packed rows X^(ip) mod f, i < n, of the Frobenius matrix Q,
        from xp = X^p mod f; n >= 2.  Each row is packed once, and serves
        both as a row and as the factor that gives the next one."""
        row = packed_xp = self.pack(xp)
        rows = [1, packed_xp]  # X^0 packed is the int 1
        while len(rows) < self.n:
            row = self.pack(self.fold(row * packed_xp))
            rows.append(row)
        return rows

    def apply(self, w: list[int], q: list[int]) -> list[int]:
        """w^p = w(X^p) = sum of w_i X^(ip), given the rows q of Q."""
        return self.unpack_mod(sum(map(mul, w, q)))


# -- public operations --------------------------------------------------------


def _mod_p(c: Fraction, p: int) -> int | None:
    """The residue of c (disc f) mod p; None when p divides its denominator."""
    if c.denominator % p == 0:
        return None
    return c.numerator % p * pow(c.denominator, -1, p) % p


def _require_prime(p: int) -> None:
    """The one primality test of the public entry points; the private
    helpers behind them trust callers that draw p from `primes()`."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _reducible(f: PolyQ, p: int) -> bool:
    """Whether f mod p keeps f's degree: p divides neither `den`, so no
    reduced denominator, nor the leading numerator."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    return f.den % p != 0 and f.num[-1] % p != 0


def _monic(f: PolyQ, p: int) -> list[int]:
    """The residues mod p of f / lc(f) = num / num_n, for reducible f."""
    inv = pow(f.num[-1], -1, p)
    return [c * inv % p for c in f.num]


def reduce_mod_p(f: PolyQ, p: int):
    """Coefficientwise reduction with denominator inversion mod p.

    Returns None ("bad prime") when p divides any coefficient
    denominator or the leading numerator, so degree would drop.
    Raises when p is not prime.
    """
    _require_prime(p)
    if not _reducible(f, p):
        return None
    inv = pow(f.den, -1, p)
    return PolyFp(p, tuple(c * inv for c in f.num))


def powmod(base: PolyFp, e: int, modpoly: PolyFp) -> PolyFp:
    """base^e mod modpoly by square-and-multiply; e may be huge.

    modpoly need not be monic: the remainder mod f is the remainder mod
    monic(f)."""
    if base.p != modpoly.p:
        raise ValueError("modulus mismatch")
    if modpoly.degree < 1:
        raise ValueError("modulus polynomial must have degree >= 1")
    if e < 0:
        raise ValueError("negative exponent")
    p, f = base.p, list(modpoly.monic().coeffs)
    if e == 0:
        return PolyFp(p, (1,))
    a = _rem(list(base.coeffs), f, p)
    a += [0] * (len(f) - 1 - len(a))
    return PolyFp(p, tuple(_Residues(f, p).power(a, e)))


@functools.lru_cache(maxsize=1024)
def _settle(k: int, lo: int, hi: int) -> tuple[int, ...] | None:
    """The only multiset of parts in lo..hi that sums to k, largest part
    first, or None when there are none or several.

    Coin-change counting: after the parts lo..part, sums[s] holds the
    multisets of those parts that sum to s, at most two of them, which is
    enough to tell one from several."""
    sums: list[list[tuple[int, ...]]] = [[()]] + [[] for _ in range(k)]
    for part in range(lo, hi + 1):
        for s in range(part, k + 1):
            sums[s] = (sums[s] + [m + (part,) for m in sums[s - part]])[:2]
    return sums[k][0][::-1] if len(sums[k]) == 1 else None


def _ddf(f: list[int], p: int, k: int = 1, kummer: tuple[tuple[int, int], ...] = ()) -> CycleType:
    """Irreducible-factor degrees of f, monic and squarefree of degree
    n >= 1 over F_p: the DDF body that ddf_cycle_type and frobenius_type
    share.  With k > 1 and `kummer`, the degrees of a C_k cover of f
    instead (below); k = 1 is the plain DDF.

    Let f* be what is left of f once its factors of degree < d are
    removed; its factors of degree d are those of gcd(X^(p^d) - X, f*),
    and once 2d exceeds deg f*, f* is irreducible (or 1).  X^p mod f is
    computed once, by `_Residues.x_power`: a monomial for the leading
    bits of p, then one fold per further bit.  The rows
    X^(ip) mod f, i < n, of the Frobenius matrix Q then take
    w = X^(p^(d-1)) to w^p = w(X^p) as a linear combination of packed
    rows, with no further powering.  Powers stay reduced mod f itself,
    which f* divides, so the gcds with f* are unchanged.

    Degrees are tried _DDF_BATCH at a time: one gcd g of f* with the
    product of the w - X tells whether any of them has factors, and only
    then does each w - X get its own gcd with g, in increasing d.
    Factors of degree dividing an earlier d of the batch are gone from g
    by then, so each factor counts at its own degree.  Settle rule: when
    the refinement reaches degree e, every factor left in g has a degree
    in e..d, d the batch's last degree.  If exactly one multiset of such
    degrees sums to deg g, those are the degrees of g's factors, recorded
    without further gcds.  With deg g < 2e that multiset is {deg g}, one
    irreducible factor; with deg g = 0 it is empty.  Two multisets with
    the same sum, such as {6, 6} and {5, 7}, have the same parity too, so
    Stickelberger's check could not tell them apart: the rule must see
    that the multiset is unique.

    Covers (`notes/decisions.md`, "Frobenius types through block
    quotients").  For k > 1, f is the base of a polynomial F whose roots
    lie in blocks of k: those over a root b of f are, up to a Moebius
    map defined over F_p, the k-th roots of E(b), with
    E = prod (Y - a)^m over the pairs (a, m) of `kummer`, p = 1 mod k and
    no E(b) zero.  A factor phi of f of degree d, b one of its roots,
    gives F k factors of degree d when E(b) is a k-th power in F_(p^d)
    ("untwisted"), and one factor of degree kd otherwise ("twisted").
    E(b) is a k-th power iff v_d = E^((p^d - 1)/k) is 1 mod phi.  A lone
    factor tests its norm instead, with no gcd: v_d mod phi is
    N(E(b))^((p - 1)/k), and N(b - a) = (-1)^d phi(a).  Several factors
    of one degree take gcd(v_d - 1, their product), the untwisted ones;
    v_d is made only then, from v_1 = E^((p - 1)/k) mod f by
    v_(d+1) = v_1 * v_d(X^p), with the same rows of Q.  So with k > 1 the
    settle rule may end a batch only on at most one factor.

    f is squarefree, so its factors are distinct, and multiplicity in
    the returned type is the count of factors of that degree.
    """
    residues = _Residues(f, p)
    fstar = f
    parts: list[int] = []
    w = q = None
    twists: list[list[int]] = []  # v_1, v_2, ... of a cover, made as needed

    def lift(e: int, factors: list[int], count: int) -> None:
        """Record the `count` factors of degree e whose product is `factors`."""
        if k == 1:
            parts.extend([e] * count)
            return
        if count == 1:
            norm = 1
            for a, m in kummer:
                at_a = _evaluate(factors, a, p)
                norm = norm * pow(-at_a if e & 1 else at_a, m, p) % p
            untwisted = int(pow(norm, (p - 1) // k, p) == 1)
        else:
            if not twists:  # v_1 = E^((p - 1)/k); several factors, so n >= 2
                n = len(f) - 1
                element = [1] + [0] * (n - 1)
                for a, m in kummer:
                    for _ in range(m):
                        element = residues.mulmod(element, [-a % p, 1] + [0] * (n - 2))
                twists.append(residues.power(element, (p - 1) // k))
            while len(twists) < e:
                twists.append(residues.mulmod(twists[0], residues.apply(twists[-1], q)))
            v = twists[e - 1].copy()
            v[0] = (v[0] - 1) % p
            untwisted = (len(_gcd(_trim(v), factors, p)) - 1) // e
        parts.extend([e] * (k * untwisted) + [k * e] * (count - untwisted))

    d = 0
    while 2 * (d + 1) <= len(fstar) - 1:
        batch = []  # (d, w - X) for the next d, as long as 2d <= deg f*
        last = min(d + _DDF_BATCH, (len(fstar) - 1) // 2)
        while d < last:
            d += 1
            if w is None:
                w = residues.x_power(p)
            else:
                if q is None:
                    q = residues.frobenius(w)  # w is still X^p here
                w = residues.apply(w, q)
            delta = w.copy()
            delta[1] = (delta[1] - 1) % p
            batch.append((d, delta))
        product = batch[0][1]
        for _, delta in batch[1:]:
            product = residues.mulmod(product, delta)
        g = _gcd(_trim(product), fstar, p)
        for e, delta in batch:
            settled = _settle(len(g) - 1, e, d)
            if settled is not None and (k == 1 or len(settled) < 2):
                # the degrees of g's factors are known; with a cover, g is
                # one factor or 1
                if settled:
                    if k == 1:
                        parts.extend(settled)
                    else:
                        lift(settled[0], g, 1)
                    fstar = _divexact(fstar, g, p)
                break
            factors = _gcd(_trim(delta), g, p)
            if len(factors) > 1:
                lift(e, factors, (len(factors) - 1) // e)
                g = _divexact(g, factors, p)
                fstar = _divexact(fstar, factors, p)
    if len(fstar) > 1:
        lift(len(fstar) - 1, fstar, 1)
    return CycleType(tuple(parts))


def ddf_cycle_type(f: PolyFp):
    """Multiset of irreducible-factor degrees of f mod p; None when f is
    not squarefree.

    Squarefreeness is decided by gcd(f, f'); the degrees then come from
    the DDF body `_ddf`, batched and with its settle rule.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree == 0:
        raise ValueError("constant polynomial")
    p = f.p
    fstar = list(f.monic().coeffs)
    if len(_gcd(fstar, _deriv(fstar, p), p)) != 1:
        return None
    return _ddf(fstar, p)


def _stickelberger(f: PolyQ, p: int):
    """The sign Stickelberger's theorem demands of a Frobenius element of
    f at p, or None when p is bad (undefined or ramified reduction): the
    goodness rule and the sign that `frobenius_type` and `frobenius_sign`
    share, so the two cannot disagree on either.

    Where the reduction is defined, p divides no denominator of disc f,
    and f mod p is squarefree iff p does not divide disc f; so no
    gcd(f, f') runs at odd p, and the sign is the Legendre symbol
    (disc f / p) by Euler's criterion.  At p = 2 no such symbol applies
    and the sign is 0; the gcd decides squarefreeness there, and a
    verdict that disagrees with disc f mod 2 is a kernel fault that
    raises ArithmeticError.
    """
    if not _reducible(f, p):
        return None
    if f.degree == 0:
        raise ValueError("constant polynomial")
    disc = _mod_p(discriminant(f), p)
    if p == 2:
        fstar = _monic(f, p)
        if (len(_gcd(fstar, _deriv(fstar, p), p)) == 1) != bool(disc):
            raise ArithmeticError(f"degree-{f.degree} polynomial at p=2: the "
                                  f"squarefree gcd disagrees with disc f mod 2")
        return 0 if disc else None
    if not disc:
        return None
    return 1 if pow(disc, (p - 1) // 2, p) == 1 else -1


@functools.lru_cache(maxsize=32)
def _cover(f: PolyQ):
    """(P, k) when f's roots fall into blocks of k over the roots of P by
    an exact structure of f, else None; computed once per polynomial
    among the last 32, in each process.

    Even case, k = 2: f = q(X^2) with f(0) != 0 has no odd coefficient,
    and its roots come in pairs +-x over the roots of q.  Shanks case,
    k = 3: f = B^m P(A/B), with A/B Shanks' map and deg f = 3m, has its
    roots in orbits of x -> 1/(1 - x), three over each root of P.  B is 0
    at 0 and 1, where A is 1 and -1, so f(0) = lc f and
    f(1) = (-1)^m lc f, a cheap filter.  A^j B^(m - j) is monic of degree
    2m + j, so the coefficients of X^(2m + j), j = m..0, give P's by a
    triangular solve; compose(P, A, B) == f is then checked exactly.
    """
    n, num = f.degree, f.num
    if n >= 2 and n % 2 == 0 and num[0] and not any(num[1::2]):
        return PolyQ(f.coeffs[::2]), 2
    m = n // 3
    if m and n % 3 == 0 and num[0] == num[-1] and sum(num) == (-1) ** m * num[-1]:
        a_powers, b_powers = [PolyQ.one()], [PolyQ.one()]
        for _ in range(m):
            a_powers.append(a_powers[-1] * SHANKS_A)
            b_powers.append(b_powers[-1] * SHANKS_B)
        rest, base = f, [0] * (m + 1)
        for j in reversed(range(m + 1)):
            if len(rest.coeffs) > 2 * m + j:
                base[j] = rest.coeffs[2 * m + j]
                rest -= (a_powers[j] * b_powers[m - j]).scale(base[j])
        base = PolyQ.from_coeffs(base)
        if compose(base, SHANKS_A, SHANKS_B) == f:
            return base, 3
    return None


def _block_type(f: PolyQ, p: int):
    """The cycle type of f mod p read off its cover's base, by `_ddf`
    with the twists; None where f has no cover or p fails a precondition:
    p = 1 mod k, the base reducible at p, and no root of the base where
    the Kummer element E vanishes.

    The even case takes E = Y at every odd p.  The Shanks case takes
    E = (Y - 3w)(Y - 3w')^2 at p = 1 mod 3, w and w' = 1 - w the roots of
    X^2 - X + 1: w = -z for the first z = a^((p - 1)/3) other than 1,
    a = 2, 3, ...  So p = 2, and p = 3 in the Shanks case, are left to
    the plain DDF.
    """
    cover = _cover(f)
    if cover is None:
        return None
    base, k = cover
    if (p - 1) % k or not _reducible(base, p):
        return None
    if k == 2:
        kummer = ((0, 1),)
    else:
        z = next(z for z in (pow(a, (p - 1) // 3, p) for a in count(2)) if z != 1)
        kummer = ((-3 * z % p, 1), (3 * (1 + z) % p, 2))
    base = _monic(base, p)
    if any(_evaluate(base, a, p) == 0 for a, _ in kummer):
        return None
    return _ddf(base, p, k, kummer)


def _type(f: PolyQ, p: int):
    """`frobenius_type` for a p known to be prime."""
    sign = _stickelberger(f, p)
    if sign is None:
        return None
    n = f.degree
    t = _block_type(f, p)
    if t is None:
        t = _ddf(_monic(f, p), p)
    if t.degree != n or (sign and t.parity != sign):
        raise ArithmeticError(f"degree-{n} polynomial at p={p}: Frobenius type {t} "
                              f"contradicts Stickelberger's theorem")
    return t


def frobenius_type(f: PolyQ, p: int):
    """Cycle type of f mod p, or None when p is bad (undefined or
    ramified reduction), as `_stickelberger` decides; a composite p
    raises ValueError.

    The degrees come from the DDF body `_ddf`: on f itself, as in
    ddf_cycle_type, or, where `_cover` finds f = q(X^2) or
    f = B^m P(A/B), on the base with one twist test per factor
    (`_block_type`).  Every type is then checked against Stickelberger's
    theorem: its degrees sum to deg f, and at odd p its parity equals the
    Legendre symbol (disc f / p).  A failed check is a kernel fault and
    raises ArithmeticError.  For q(X^2) the parity of the type is that of
    its twisted blocks, so a wrong twist fails the check.  For
    B^m P(A/B), a twisted block 3d and three untwisted blocks d, d, d
    have one sign, so the check cannot see a wrong twist there; the
    tests compare the two paths at every scan prime of rubik_f for that.
    """
    _require_prime(p)
    return _type(f, p)


def _sign(f: PolyQ, p: int):
    """`frobenius_sign` for a p known to be prime, as the linkages draw
    it from `primes()`."""
    if p == 2:
        t = _type(f, p)
        return None if t is None else t.parity
    return _stickelberger(f, p)


def frobenius_sign(f: PolyQ, p: int):
    """The sign (+1 or -1) of a Frobenius element of f at p, or None
    exactly where `frobenius_type` returns None; a composite p raises
    ValueError.

    By Stickelberger's theorem the sign at an odd good prime is the
    Legendre symbol (disc f / p), read off disc f mod p by Euler's
    criterion with no factorization.  At p = 2 no such symbol applies,
    and the sign is the parity of the checked type.
    """
    _require_prime(p)
    return _sign(f, p)
