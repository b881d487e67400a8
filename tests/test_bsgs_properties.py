"""Property tests of sift against sympy's membership test.

Subgroups of S_n, n <= 10, are generated by cycles on random supports,
so intransitive, imprimitive and primitive groups all occur.  For every
drawn permutation p, sift returns a residue r and the level it stuck
at; p * r^-1 must factor as one transversal element per level above
that, and p is a member exactly when r is the identity.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
combinatorics = pytest.importorskip("sympy.combinatorics")
from hypothesis import given, settings, strategies as st

from cubegal.bsgs import PermutationGroup
from cubegal.perm import Permutation
from reference import identity, is_identity

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=150,
                         deadline=None)


@st.composite
def subgroup_and_candidates(draw):
    n = draw(st.integers(2, 10))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True))
        gens.append(Permutation.from_cycles([tuple(support)], n))
    member = identity(n)
    for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=8)):
        member = member * gens[i]
    anything = Permutation(draw(st.permutations(range(1, n + 1))))
    return gens, (member, anything)


def _transversal_factors(group, w, levels):
    """Peel w = u_0 * u_1 * ... from the left, one transversal element of
    each of the first `levels` levels; returns the factors and what is left."""
    n = group.degree
    factors = []
    for lvl in group._levels[:levels]:
        beta = w.raw[lvl.point]
        u = Permutation([x + 1 for x in lvl.trans[beta]])
        factors.append(u)
        w = u.inverse() * w
    return factors, w


@DETERMINISTIC
@given(subgroup_and_candidates())
def test_sift_residue_and_transversal_word_give_back_the_input(case):
    gens, candidates = case
    group = PermutationGroup(gens)
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.raw)) for g in gens])
    n = group.degree
    levels = group._levels
    for p in candidates:
        data, stick = group._sift(p.raw)
        assert len(data) == n
        residue = Permutation([x + 1 for x in data])
        # the residue fixes every base point it was sifted past ...
        assert all(residue.raw[lvl.point] == lvl.point for lvl in levels[:stick])
        # ... and, when it stuck, moves that level's point outside the basic orbit
        if stick < len(levels):
            assert residue.raw[levels[stick].point] not in levels[stick].trans
        word = p * residue.inverse()
        factors, rest = _transversal_factors(group, word, stick)
        assert is_identity(rest)
        product = identity(n)
        for u in factors:
            product = product * u
        assert product * residue == p
        member = theirs.contains(combinatorics.Permutation(list(p.raw)))
        assert is_identity(residue) == member == group.contains(p)
    assert group.contains(candidates[0])  # a word in the generators
