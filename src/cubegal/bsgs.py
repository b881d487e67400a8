"""Base and strong generating sets for permutation groups.

Construction is deterministic Schreier-Sims (Seress, "Permutation Group
Algorithms", ch. 4; Holt, Eick & O'Brien, "Handbook of Computational
Group Theory", 4.4).  The inputs are sifted first; then each sweep goes
down the levels and sifts every Schreier generator of level i through
the levels below it, adjoining each nontrivial residue to the levels
from 0 to the one it stuck at.  So level i's generators fix the base
points before b_i, and the generator sets are nested: each level's set
holds every deeper level's.  A sweep keeps no record of what it sifted:
the cube groups' bounded builds end inside their first sweep, and a
build that sweeps again sifts every Schreier generator afresh.

Every transversal element is a product of sift residues of group
elements, and the products u_1 u_2 ... u_k of one transversal element
per level are pairwise distinct, so the product L of the basic orbit
sizes is a lower bound on |G|.  The build stops in one of two ways:

- a sweep adds nothing.  With nested levels that is the Schreier-Sims
  criterion at every level, so the stabilizer of b_i in <S_i> is <S_i+1>
  all the way down, |G| = L, and the membership test is exact;
- the caller gave an upper bound U on |G| that it proved by other means
  (`cubes.order_bound` does so for the cube groups), and L reaches it.
  Then L <= |G| <= U = L, so |G| = L and membership is exact, with no
  further sweep.  A chain whose L exceeds U shows that U was false, and
  the build raises ArithmeticError.

The same criterion is re-checked from outside, on bounded and unbounded
chains, by `tests/test_bsgs.py`.

All orders are exact arbitrary-precision integers.  The chain works on
0-based image tables in ``bytes``, and each byte string has one role
and one length:

- tables: the generators and the inverse transversal elements are
  256-byte tables padded with the identity (see `perm`); apart from
  reading point images off them, they are only ever the argument of
  ``translate``;
- data: the transversal elements, sift inputs and residues, and the
  Schreier generators are exactly ``degree`` bytes, and are only ever
  translated, so a composition copies ``degree`` bytes, not 256.

``d.translate(t)`` is the data of t o d, ``bytes.maketrans(d, ident)``
is the table of d's inverse, and equality with ``ident`` (the identity
data, ``IDENT256[:degree]``) tests for the identity.  A residue is
padded once, when `_add_strong` adjoins it.
"""

from __future__ import annotations

from .perm import IDENT256, Permutation


class _Level:
    """One level of the chain: base point, generator tables, transversal
    data and inverse transversal tables; `ident` is the identity data."""

    __slots__ = ("point", "gens", "trans", "invtrans")

    def __init__(self, point: int, ident: bytes):
        self.point = point
        self.gens: list[bytes] = []
        self.trans: dict[int, bytes] = {point: ident}
        self.invtrans: dict[int, bytes] = {point: IDENT256}


class PermutationGroup:
    """A generated permutation group with a base and strong generating
    set, checked as the module docstring states: order and membership
    test.  `bound`, when given, is a proved upper bound on the order."""

    def __init__(self, generators, bound: int | None = None):
        gens = list(generators)
        if not gens:
            raise ValueError("empty generator list")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("degree mismatch among generators")
        self.degree = degree
        self.generators: list[Permutation] = gens
        self._ident = IDENT256[:degree]
        self._levels: list[_Level] = []
        # the product of the basic orbit sizes, kept up to date as
        # `_add_strong` grows the orbits; the order once built
        self._order = 1
        self._build(bound)
        if bound is not None and self._order > bound:
            raise ArithmeticError("the chain holds more elements than the proved upper bound")
        for g in self.generators:
            if not self.contains(g):
                raise AssertionError("strong generating set rejects an input generator")

    # -- public surface ---------------------------------------------------

    def order(self) -> int:
        return self._order

    @property
    def base(self) -> list[int]:
        return [lvl.point + 1 for lvl in self._levels]

    @property
    def basic_orbit_sizes(self) -> list[int]:
        return [len(lvl.trans) for lvl in self._levels]

    @property
    def strong_generators(self) -> list[Permutation]:
        seen: dict[bytes, None] = {}
        for lvl in self._levels:
            for g in lvl.gens:
                seen.setdefault(g)
        return [Permutation._wrap(g, self.degree) for g in seen]

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise ValueError("degree mismatch")
        residue, _ = self._sift(p.raw)
        return residue == self._ident

    # -- chain internals ----------------------------------------------------

    def _sift(self, p: bytes, start: int = 0):
        """Reduce the data p (``degree`` bytes) through levels start.. of
        the chain; returns (residue, level it stuck at), the residue as
        data of the same length.

        A residue equal to the identity data means membership; a
        permutation moving a point outside some basic orbit sticks at
        that level.
        """
        levels = self._levels
        for idx in range(start, len(levels)):
            lvl = levels[idx]
            beta = p[lvl.point]
            if beta == lvl.point:
                continue
            inv = lvl.invtrans.get(beta)
            if inv is None:
                return p, idx
            p = p.translate(inv)
        return p, len(levels)

    def _extend_orbit(self, lvl: _Level, new: bytes | None = None):
        """Close lvl's basic orbit and transversals under lvl.gens,
        breadth first.

        When the orbit is already closed under every generator but the
        last one, `new`, the first round applies only `new` to it: the
        other generators would find nothing, so the transversals come out
        the same and in the same order.  That round first maps the whole
        orbit through `new` with one ``translate``; when every image is
        already in the orbit, it reaches no new point and the orbit stays
        closed, so the call returns at once.
        """
        trans = lvl.trans
        if new is not None and trans.keys() >= set(bytes(trans).translate(new)):
            return
        invtrans = lvl.invtrans
        ident = trans[lvl.point]
        frontier = list(trans)
        gens = lvl.gens
        round_gens = gens if new is None else (new,)
        while frontier:
            fresh = []
            for beta in frontier:
                u = trans[beta]
                for s in round_gens:
                    gamma = s[beta]
                    if gamma not in trans:
                        w = u.translate(s)
                        trans[gamma] = w
                        invtrans[gamma] = bytes.maketrans(w, ident)
                        fresh.append(gamma)
            frontier = fresh
            round_gens = gens

    def _add_strong(self, g: bytes, stick: int):
        """Adjoin the sift residue g, padded to a table here, to levels
        0..stick.

        g fixes every base point before `stick`, so it belongs to each of
        those stabilizers, and the generator sets stay nested: each level's
        set holds every deeper level's.  When g moves no existing base
        point a new level is opened at its first moved point
        (first-moved-point base heuristic).
        """
        g += IDENT256[self.degree:]
        if stick == len(self._levels):
            point = next(i for i, x in enumerate(g) if x != i)
            self._levels.append(_Level(point, self._ident))
        for i in range(stick + 1):
            lvl = self._levels[i]
            lvl.gens.append(g)
            before = len(lvl.trans)
            self._extend_orbit(lvl, g)
            if len(lvl.trans) != before:
                self._order = self._order // before * len(lvl.trans)

    def _schreier_generators(self):
        """Each level's Schreier generators, top down, as (data, level
        below): u s u'^-1 for each orbit point beta with transversal
        element u, and each of the level's generators s, where u' is the
        transversal element of s(beta).  Those equal to the identity by
        construction are skipped.  A level's orbit points are read when
        its turn comes, and its generators at each point, so what a
        residue adds to a level already swept, and the points it adds to
        the level being swept, wait for the next sweep."""
        levels = self._levels
        i = 0
        while i < len(levels):
            lvl = levels[i]
            i += 1
            trans, invtrans = lvl.trans, lvl.invtrans
            for beta, u in list(trans.items()):
                for s in list(lvl.gens):
                    gamma = s[beta]
                    w = u.translate(s)
                    if w != trans[gamma]:
                        yield w.translate(invtrans[gamma]), i

    def _adjoin(self, items, bound: int | None) -> bool:
        """Sift each (data, start level) item and adjoin every nontrivial
        residue; returns whether the chain grew.  Stops once the orbit
        product meets the bound."""
        grew = False
        for g, start in items:
            residue, stick = self._sift(g, start)
            if residue != self._ident:
                self._add_strong(residue, stick)
                grew = True
                if self._reached(bound):
                    break
        return grew

    def _reached(self, bound: int | None) -> bool:
        """Whether the orbit product has met the upper bound: the order is
        then proved (or, past it, the bound is refuted)."""
        return bound is not None and self._order >= bound

    def _build(self, bound: int | None):
        """Sift the inputs, then sweep every level's Schreier generators
        through the levels below it until a sweep adds nothing or the
        orbit product meets the bound."""
        grew = self._adjoin(((g.raw, 0) for g in self.generators), bound)
        while grew and not self._reached(bound):
            grew = self._adjoin(self._schreier_generators(), bound)
