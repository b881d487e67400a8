"""Exact permutations on the finite point set {1..n}, n <= 256.

Composition convention, used everywhere in this package:

    (p * q)(i) == p(q(i))

that is, ``q`` acts first.  This is fixed here once and covered by a
dedicated test; all other modules import it implicitly by using ``*``.

Points are 1-based in every public interface (matching the sticker
labels 1..144 of the cube models).  The internal image table is
0-based and is the only representation: a 256-byte ``bytes`` object
whose entries past the degree are the identity (``IDENT256``).  Byte
operations implemented in C then do the work: ``q.translate(p)`` is the
table of p o q, ``bytes.maketrans(p, IDENT256)`` is the table of p's
inverse, and equality with ``IDENT256`` is the identity test.
``Permutation.raw`` gives the exact-length table, ``bytes`` of length n.
The group engine (``bsgs``) passes padded tables only as the argument
of ``translate``; what it translates is exact-length (``raw``), so each
composition there copies n bytes, not 256.

``Permutation.cycles`` is the one walk along a permutation's cycles:
the cycle type, sign, order and canonical cycle string are all read off
its output.  ``orbits`` and ``block_system`` share one union-find.
"""

from __future__ import annotations

from functools import total_ordering
from math import lcm

MAX_DEGREE = 256
IDENT256 = bytes(range(MAX_DEGREE))


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds {MAX_DEGREE}")


@total_ordering
class CycleType:
    """Multiset of cycle lengths, fixed points included as 1s.

    This is the shared observable for group elements and for Frobenius
    classes read off from factor degrees mod p.  Immutable; `parts` is
    sorted in decreasing order, and equality, hashing and ordering are
    those of `parts`.  A plain class, not a dataclass, so that `order`
    and `gens` start without importing `dataclasses`.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if any(part < 1 for part in parts):
            raise ValueError("cycle type parts must be positive")
        object.__setattr__(self, "parts", tuple(sorted(parts, reverse=True)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pool workers return cycle types; rebuild through the constructor
        return CycleType, (self.parts,)

    def __repr__(self) -> str:
        return f"CycleType(parts={self.parts!r})"

    def __eq__(self, other):
        if other.__class__ is not CycleType:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        # the hash of the dataclass this replaced, so set orders stay put
        return hash((self.parts,))

    def __lt__(self, other):
        if other.__class__ is not CycleType:
            return NotImplemented
        return self.parts < other.parts

    @property
    def degree(self) -> int:
        return sum(self.parts)

    @property
    def parity(self) -> int:
        """+1 for even permutations of this type, -1 for odd."""
        return -1 if (self.degree - len(self.parts)) % 2 else 1

    def __str__(self) -> str:
        seen: dict[int, int] = {}
        for part in self.parts:
            seen[part] = seen.get(part, 0) + 1
        return " ".join(
            f"{k}^{v}" if v > 1 else str(k) for k, v in sorted(seen.items(), reverse=True)
        )


class Permutation:
    """An immutable bijection of {1..n}."""

    __slots__ = ("_img", "_degree")

    def __init__(self, images):
        """Build from the image table: images[i] is the image of point i+1 (1-based values)."""
        img = [x - 1 for x in images]
        n = len(img)
        _check_degree(n)
        if set(img) != set(range(n)):
            raise ValueError("image table is not a bijection of {1..%d}" % n)
        self._img = bytes(img) + IDENT256[n:]
        self._degree = n

    # -- internal fast path: trusted padded tables -------------------------

    @classmethod
    def _wrap(cls, img: bytes, degree: int) -> "Permutation":
        self = object.__new__(cls)
        self._img = img
        self._degree = degree
        return self

    @property
    def raw(self) -> bytes:
        """0-based image table of length n."""
        return self._img[:self._degree]

    # -- construction -----------------------------------------------------

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Product of the given disjoint cycles (1-based points)."""
        _check_degree(degree)
        img = bytearray(IDENT256)
        seen = set()
        for cyc in cycles:
            for a in cyc:
                if not 1 <= a <= degree:
                    raise ValueError(f"point {a} out of range 1..{degree}")
                if a in seen:
                    raise ValueError(f"point {a} repeated")
                seen.add(a)
            for i, a in enumerate(cyc):
                img[a - 1] = cyc[(i + 1) % len(cyc)] - 1
        return cls._wrap(bytes(img), degree)

    # -- basic protocol -----------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    def __call__(self, point: int) -> int:
        if not 1 <= point <= self._degree:
            raise ValueError(f"point {point} out of range")
        return self._img[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if self._degree != other._degree:
            raise ValueError("degree mismatch")
        return Permutation._wrap(other._img.translate(self._img), self._degree)

    def inverse(self) -> "Permutation":
        return Permutation._wrap(bytes.maketrans(self._img, IDENT256), self._degree)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Permutation) and self._img == other._img
                and self._degree == other._degree)

    def __hash__(self) -> int:
        return hash(self._img)

    def __repr__(self) -> str:
        return f"Permutation({self.degree}: {print_cycles(self) or 'id'})"

    # -- structure ----------------------------------------------------------

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 1-based, each rotated to start at its least
        point, sorted by that least point."""
        img = self._img
        seen = [False] * self._degree
        out = []
        for start in range(self._degree):
            if seen[start] or img[start] == start:
                seen[start] = True
                continue
            cyc = []
            a = start
            while not seen[a]:
                seen[a] = True
                cyc.append(a + 1)
                a = img[a]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> CycleType:
        """Cycle lengths of cycles(), plus a 1 for each fixed point."""
        cycles = self.cycles()
        fixed = self._degree - sum(map(len, cycles))
        return CycleType(tuple(map(len, cycles)) + (1,) * fixed)

    def sign(self) -> int:
        """(-1)^(number of transpositions); equals the parity of the cycle type."""
        return self.cycle_type().parity

    def order(self) -> int:
        return lcm(*self.cycle_type().parts)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-tolerant cycle notation like "(40 88 9 96)(28 76 21 84)".

    Points not mentioned are fixed; the empty string is the identity.
    Raises ValueError for points out of range, repeated points, or
    malformed parentheses.
    """
    cycles = []
    current = None
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            if current is not None:
                raise ValueError("nested '(' in cycle notation")
            current = []
        elif token == ")":
            if current is None:
                raise ValueError("unmatched ')' in cycle notation")
            if current:
                cycles.append(tuple(current))
            current = None
        else:
            if current is None:
                raise ValueError(f"point {token!r} outside any cycle")
            try:
                current.append(int(token))
            except ValueError:
                raise ValueError(f"malformed point {token!r}") from None
    if current is not None:
        raise ValueError("unterminated '(' in cycle notation")
    return Permutation.from_cycles(cycles, degree)


def print_cycles(p: Permutation) -> str:
    """Canonical cycle string: cycles sorted by least element, each cycle
    starting at its least element, fixed points omitted.  Identity prints
    as the empty string."""
    return "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in p.cycles())


def _find(parent, a):
    """Root of a in the union-find forest `parent`, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def orbits(gens, degree: int | None = None) -> list[frozenset[int]]:
    """Finest partition of {1..N} closed under all generators,
    as frozensets sorted by least element."""
    gens = list(gens)
    if degree is None:
        if not gens:
            raise ValueError("degree required when the generator list is empty")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("degree mismatch")
    parent = list(range(degree))
    for g in gens:
        for i, x in enumerate(g.raw):
            ra, rb = _find(parent, i), _find(parent, x)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(degree):
        groups.setdefault(_find(parent, i), []).append(i + 1)
    return sorted((frozenset(v) for v in groups.values()), key=min)


def block_system(gens, points, seed_pair) -> list[frozenset[int]] | None:
    """Smallest invariant partition of `points` with `seed_pair` in one block.

    `points` must be closed under every generator (usually an orbit).
    Returns None when the closure collapses to a single block covering
    all of `points` (for a transitive action this means primitivity was
    not broken by the seed).
    """
    pts = frozenset(points)
    a0, b0 = seed_pair
    if a0 not in pts or b0 not in pts:
        raise ValueError("seed points outside the given point set")
    gens = list(gens)
    for g in gens:
        if any(g(a) not in pts for a in pts):
            raise ValueError("generators do not preserve the point set")
    parent = {a: a for a in pts}
    stack = [(a0, b0)]
    while stack:
        a, b = stack.pop()
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        parent[ra] = rb
        for g in gens:
            stack.append((g(a), g(b)))
    blocks: dict[int, list[int]] = {}
    for a in pts:
        blocks.setdefault(_find(parent, a), []).append(a)
    if len(blocks) == 1:
        return None
    return sorted((frozenset(v) for v in blocks.values()), key=min)
