"""Base and strong generating sets for permutation groups.

Construction is randomized Schreier-Sims on `ProductReplacementSampler`
elements.  Every transversal element is a product of sift residues of
group elements, and the products u_1 u_2 ... u_k of one transversal
element per level are pairwise distinct, so the product L of the basic
orbit sizes is a lower bound on |G|.  What a build proves depends on
whether the caller gives an upper bound U on |G| that it has proved by
other means (`cubes.order_bound` does so for the cube groups):

- with a bound, the random phase stops as soon as L reaches U.  Then
  L <= |G| <= U = L, so |G| = L, every element of G is one of those
  products, and the membership test is exact; no verification pass
  runs.  A chain whose L exceeds U shows that U was false, and the
  build raises ArithmeticError;
- without a bound, or with one that the random phase does not reach
  before `_CLEAN_SIFTS` consecutive sifts add nothing, the chain is
  pruned and a deterministic verification pass with repair runs.  At
  each level i, with generator set S_i and base point b_i, the pass
  sifts every Schreier generator of S_i with respect to b_i through the
  levels below, which proves that the stabilizer of b_i in <S_i> lies
  in the chain below.  The levels are not nested: `_prune` rebuilds
  each level from one orbit walk of its own, so a deeper level may hold
  generators that level i lacks, and the pass is not the full
  Schreier-Sims criterion.  What it leaves proved: a membership test
  that answers yes (the element is a product of transversal words), and
  the order as a lower bound.

The full criterion, over the union of the generators at levels >= i, is
checked for the three cube chains (and a second seed for R3 and R4) by
`tests/test_bsgs.py`.

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
padded once, when `_add_strong` adjoins it; input generators and
sampler elements are cut to ``degree`` once, when they are sifted.
"""

from __future__ import annotations

import random

from .perm import IDENT256, Permutation

DEFAULT_SEED = 1
_PR_SLOTS = 10
_PR_BURNIN = 60
_CLEAN_SIFTS = 20


class _Level:
    """One level of the chain: base point, generator tables, transversal
    data and inverse transversal tables; `ident` is the identity data."""

    __slots__ = ("point", "gens", "trans", "invtrans")

    def __init__(self, point: int, ident: bytes, gens=()):
        self.point = point
        self.gens: list[bytes] = list(gens)
        self.trans: dict[int, bytes] = {point: ident}
        self.invtrans: dict[int, bytes] = {point: IDENT256}


class ProductReplacementSampler:
    """Seedable random-element stream over a fixed generating set.

    Ten accumulator slots and sixty burn-in steps; the parameters favor
    reproducibility over theoretical mixing guarantees.
    """

    def __init__(self, generators, seed: int):
        gens = list(generators)
        if not gens:
            raise ValueError("empty generator list")
        self._slots = [gens[i % len(gens)]._img for i in range(_PR_SLOTS)]
        self._rng = random.Random(seed)
        for _ in range(_PR_BURNIN):
            self._step()

    def _step(self) -> bytes:
        rng = self._rng
        k = len(self._slots)
        i = rng.randrange(k)
        j = rng.randrange(k - 1)
        if j >= i:
            j += 1
        a, b = self._slots[i], self._slots[j]
        if rng.random() < 0.5:
            b = bytes.maketrans(b, IDENT256)
        self._slots[i] = b.translate(a) if rng.random() < 0.5 else a.translate(b)
        return self._slots[i]


class PermutationGroup:
    """A generated permutation group with a base and strong generating
    set, checked as the module docstring states: order and membership
    test.  `bound`, when given, is a proved upper bound on the order."""

    def __init__(self, generators, seed: int = DEFAULT_SEED, bound: int | None = None):
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
        self._build(seed, bound)
        self._order = self._orbit_product()
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

    def _extend_orbit(self, lvl: _Level, new: bytes | None = None) -> list[bytes]:
        """Close lvl's basic orbit and transversals under lvl.gens,
        breadth first; returns the generators that first reached a new
        point, in first-use order.

        When the orbit is already closed under every generator but the
        last one, `new`, the first round applies only `new` to it: the
        other generators would find nothing, so the transversals come out
        the same and in the same order.
        """
        trans = lvl.trans
        invtrans = lvl.invtrans
        ident = trans[lvl.point]
        frontier = list(trans)
        gens = lvl.gens
        round_gens = gens if new is None else (new,)
        used: dict[bytes, None] = {}
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
                        used.setdefault(s)
            frontier = fresh
            round_gens = gens
        return list(used)

    def _add_strong(self, g: bytes, stick: int):
        """Adjoin the sift residue g, padded to a table here, to levels
        0..stick.

        g fixes every base point before `stick`, so it belongs to each of
        those stabilizers.  The level sets stay nested only until `_prune`
        rebuilds each level on its own.  When g moves no existing base
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
            self._extend_orbit(lvl, g)

    def _adjoin(self, gens) -> bool:
        """Sift each of the data gens and adjoin every nontrivial residue;
        returns whether the chain grew."""
        grew = False
        for g in gens:
            residue, stick = self._sift(g)
            if residue != self._ident:
                self._add_strong(residue, stick)
                grew = True
        return grew

    def _orbit_product(self) -> int:
        product = 1
        for lvl in self._levels:
            product *= len(lvl.trans)
        return product

    def _reached(self, bound: int | None) -> bool:
        """Whether the orbit product has met the upper bound: the order is
        then proved (or, past it, the bound is refuted)."""
        return bound is not None and self._orbit_product() >= bound

    def _build(self, seed: int, bound: int | None):
        inputs = list(dict.fromkeys(g for g in self.generators if not g.is_identity()))
        if not inputs:
            return  # trivial group: empty chain, order 1
        raw_gens = [g.raw for g in inputs]
        while self._adjoin(raw_gens):
            pass
        if self._reached(bound):
            return
        sampler = ProductReplacementSampler(inputs, seed)
        clean = 0
        while clean < _CLEAN_SIFTS:
            if not self._adjoin((sampler._step()[:self.degree],)):
                clean += 1
            elif self._reached(bound):
                return
            else:
                clean = 0
        self._prune({g._img for g in inputs})
        # verify, then make sure the checked group is still the group the
        # inputs generate (pruning could in principle drop span-essential
        # generators); every re-insertion grows a basic orbit, so this loop
        # terminates
        self._verify()
        while self._adjoin(raw_gens):
            self._verify()

    def _prune(self, protected: set[bytes]):
        """Drop strong generators that never extend their level's orbit.

        One orbit walk per level from scratch records which generators
        first reached each orbit point; the rest are redundant for the
        orbit (though not necessarily for the stabilizer below - the
        verification pass re-adjoins what its check finds missing).  The
        walk's transversals are kept: each tree edge is labelled by the
        generator that first reached its point, so every transversal word
        is one in the kept generators.  Input generators are never dropped
        from the top level: the chain's group must stay theirs.
        """
        for depth, lvl in enumerate(self._levels):
            pruned = _Level(lvl.point, self._ident, lvl.gens)
            pruned.gens = kept = self._extend_orbit(pruned)
            if depth == 0:
                for g in lvl.gens:
                    if g in protected and g not in kept:
                        kept.append(g)
            self._levels[depth] = pruned

    def _check_level(self, i: int):
        """Sift every Schreier generator of level i's own generators
        through the chain below (deeper levels' generators are not used).

        Returns None when all reduce to the identity, else the first
        failing residue and the level index where it stuck.
        """
        lvl = self._levels[i]
        for beta, u in lvl.trans.items():
            for s in lvl.gens:
                gamma = s[beta]
                w = u.translate(s)
                if w == lvl.trans[gamma]:
                    continue
                residue, stick = self._sift(w.translate(lvl.invtrans[gamma]), i + 1)
                if stick < len(self._levels) or residue != self._ident:
                    return residue, stick
        return None

    def _verify(self):
        """Deterministic Schreier-Sims verification with repair.

        Levels are checked deepest-first.  A repair adjoins the residue
        (levels 0..stick) and strictly enlarges the product of the basic
        orbit sizes, which is bounded by |G|, so the loop terminates.
        Levels deeper than the repair point are untouched by it and stay
        checked; re-checking resumes at the repair level.
        """
        i = len(self._levels) - 1
        while i >= 0:
            failure = self._check_level(i)
            if failure is None:
                i -= 1
                continue
            residue, stick = failure
            self._add_strong(residue, stick)
            i = stick
