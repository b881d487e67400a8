"""Base and strong generating sets for permutation groups.

Construction is randomized Schreier-Sims (product-replacement sampling)
followed by a deterministic verification pass that sifts every Schreier
generator at every level of the stabilizer chain, repairing any gap it
finds.  A finished chain therefore satisfies Schreier's lemma at every
level by direct computation, so the published order and the membership
test are certificates, not Monte Carlo claims.

All orders are exact arbitrary-precision integers.  The chain works on
the permutations' own 0-based image tables, 256-byte ``bytes`` padded
with the identity (see `perm`), so nothing is converted per call:
``q.translate(p)`` composes p o q, ``bytes.maketrans(p, IDENT256)``
inverts p, and equality with ``IDENT256`` tests for the identity.
"""

from __future__ import annotations

import random

from .perm import IDENT256, Permutation

DEFAULT_SEED = 1
_PR_SLOTS = 10
_PR_BURNIN = 60
_CLEAN_SIFTS = 20


class _Level:
    __slots__ = ("point", "gens", "trans", "invtrans")

    def __init__(self, point: int, gens=()):
        self.point = point
        self.gens: list[bytes] = list(gens)
        self.trans: dict[int, bytes] = {point: IDENT256}
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
        self._degree = gens[0].degree
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

    def next(self) -> Permutation:
        return Permutation._wrap(self._step(), self._degree)


class PermutationGroup:
    """A generated permutation group with a verified base and strong
    generating set: exact order, membership test, reproducible random
    elements."""

    def __init__(self, generators, seed: int = DEFAULT_SEED):
        gens = list(generators)
        if not gens:
            raise ValueError("empty generator list")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("degree mismatch among generators")
        self.degree = degree
        self.generators: list[Permutation] = gens
        self._levels: list[_Level] = []
        self._build(seed)
        self._order = 1
        for lvl in self._levels:
            self._order *= len(lvl.trans)
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
        residue, _ = self._sift(p._img)
        return residue == IDENT256

    def random_element(self, seed: int) -> Permutation:
        """One group element; equal seeds return equal elements."""
        return self.sampler(seed).next()

    def sampler(self, seed: int) -> ProductReplacementSampler:
        return ProductReplacementSampler(self.generators, seed)

    # -- chain internals ----------------------------------------------------

    def _sift(self, p: bytes, start: int = 0):
        """Reduce p through levels start.. of the chain; returns (residue,
        level it stuck at).

        A residue equal to the identity means membership; a permutation
        moving a point outside some basic orbit sticks at that level.
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
                        invtrans[gamma] = bytes.maketrans(w, IDENT256)
                        fresh.append(gamma)
                        used.setdefault(s)
            frontier = fresh
            round_gens = gens
        return list(used)

    def _add_strong(self, g: bytes, stick: int):
        """Adjoin the sift residue g to levels 0..stick.

        g fixes every base point before `stick`, so it belongs to each of
        those stabilizers; keeping the level sets nested this way is what
        makes the verification induction sound.  When g moves no existing
        base point a new level is opened at its first moved point
        (first-moved-point base heuristic).
        """
        if stick == len(self._levels):
            point = next(i for i, x in enumerate(g) if x != i)
            self._levels.append(_Level(point))
        for i in range(stick + 1):
            lvl = self._levels[i]
            lvl.gens.append(g)
            self._extend_orbit(lvl, g)

    def _adjoin(self, gens) -> bool:
        """Sift each of gens and adjoin every nontrivial residue; returns
        whether the chain grew."""
        grew = False
        for g in gens:
            residue, stick = self._sift(g)
            if residue != IDENT256:
                self._add_strong(residue, stick)
                grew = True
        return grew

    def _build(self, seed: int):
        inputs = list(dict.fromkeys(g for g in self.generators if not g.is_identity()))
        if not inputs:
            return  # trivial group: empty chain, order 1
        raw_gens = [g._img for g in inputs]
        while self._adjoin(raw_gens):
            pass
        sampler = ProductReplacementSampler(inputs, seed)
        clean = 0
        while clean < _CLEAN_SIFTS:
            clean = 0 if self._adjoin((sampler._step(),)) else clean + 1
        self._prune(set(raw_gens))
        # verify, then make sure the certified group is still the group the
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
        verification pass restores anything still needed).  Transversals
        are rebuilt from the kept generators so every transversal word
        stays inside the kept span.  The original input generators are
        never dropped from the top level: the certified group must remain
        the group they generate.
        """
        for depth, lvl in enumerate(self._levels):
            kept = self._extend_orbit(_Level(lvl.point, lvl.gens))
            if depth == 0:
                for g in lvl.gens:
                    if g in protected and g not in kept:
                        kept.append(g)
            pruned = _Level(lvl.point, kept)
            self._extend_orbit(pruned)
            if pruned.trans.keys() != lvl.trans.keys():
                raise AssertionError("pruned generators no longer span the basic orbit")
            self._levels[depth] = pruned

    def _check_level(self, i: int):
        """Sift every Schreier generator of level i through the chain below.

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
                if stick < len(self._levels) or residue != IDENT256:
                    return residue, stick
        return None

    def _verify(self):
        """Deterministic Schreier-Sims verification with repair.

        Levels are certified deepest-first.  A repair adjoins the residue
        (levels 0..stick) and strictly enlarges the product of the basic
        orbit sizes, which is bounded by |G|, so the loop terminates.
        Levels deeper than the repair point are untouched by it and stay
        certified; re-checking resumes at the repair level.
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


def normal_closure(group: PermutationGroup, seeds, max_generators: int = 256,
                   seed: int = DEFAULT_SEED) -> PermutationGroup | None:
    """Smallest subgroup of `group` containing `seeds` and normal in it.

    Returns None ("inconclusive") when the generator count exceeds
    `max_generators`; never returns a wrong group.
    """
    closure_gens: list[Permutation] = []
    seen: set[Permutation] = set()
    for s in seeds:
        if s.degree != group.degree:
            raise ValueError("degree mismatch")
        if not s.is_identity() and s not in seen:
            closure_gens.append(s)
            seen.add(s)
    if not closure_gens:
        return PermutationGroup([Permutation.identity(group.degree)], seed=seed)
    handle = PermutationGroup(closure_gens, seed=seed)
    while True:
        new: list[Permutation] = []
        for g in group.generators:
            ginv = g.inverse()
            for s in closure_gens:
                conj = ginv * s * g
                if conj not in seen and not handle.contains(conj):
                    new.append(conj)
                    seen.add(conj)
        if not new:
            return handle
        closure_gens.extend(new)
        if len(closure_gens) > max_generators:
            return None
        handle = PermutationGroup(closure_gens, seed=seed)
