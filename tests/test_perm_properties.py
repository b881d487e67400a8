"""Property tests of the permutation kernels against plain-loop and
sympy oracles."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cubegal.perm import Permutation, orbits, parse_cycles, print_cycles
from reference import identity

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=200)


def permutations_of_one_degree(count, max_degree=30):
    """`count` image lists (1-based) of one common degree 1..max_degree."""
    return st.integers(1, max_degree).flatmap(lambda n: st.tuples(
        *[st.permutations(range(1, n + 1)) for _ in range(count)]))


@DETERMINISTIC
@given(permutations_of_one_degree(2))
def test_product_applies_the_right_factor_first(images):
    a, b = images
    p, q = Permutation(a), Permutation(b)
    n = len(a)
    plain = [a[b[i] - 1] for i in range(n)]  # p(q(i)) on the image lists
    assert [(p * q)(i) for i in range(1, n + 1)] == plain


@DETERMINISTIC
@given(permutations_of_one_degree(3))
def test_product_is_associative(images):
    p, q, r = (Permutation(x) for x in images)
    assert (p * q) * r == p * (q * r)


@DETERMINISTIC
@given(permutations_of_one_degree(1))
def test_inverse_undoes_the_permutation(images):
    (a,) = images
    p = Permutation(a)
    plain = [0] * len(a)
    for i, x in enumerate(a, start=1):
        plain[x - 1] = i
    assert p.inverse() == Permutation(plain)
    e = identity(len(a))
    assert p * p.inverse() == e == p.inverse() * p


@pytest.fixture(scope="module")
def combinatorics():
    """sympy's permutations, the oracle for the cycle walk and orbits;
    imported once, outside the examples' deadline."""
    return pytest.importorskip("sympy.combinatorics")


@DETERMINISTIC
@given(permutations_of_one_degree(1, max_degree=60))
def test_cycle_type_order_and_sign_match_sympy(combinatorics, images):
    (a,) = images
    p = Permutation(a)
    oracle = combinatorics.Permutation([x - 1 for x in a])
    parts = sorted((length for length, count in oracle.cycle_structure.items()
                    for _ in range(count)), reverse=True)
    assert p.cycle_type().parts == tuple(parts)  # fixed points included
    assert p.order() == oracle.order()
    assert p.sign() == oracle.signature()


@DETERMINISTIC
@given(permutations_of_one_degree(1, max_degree=60))
def test_print_cycles_is_canonical_and_round_trips(images):
    (a,) = images
    p = Permutation(a)
    text = print_cycles(p)
    cycles = [tuple(map(int, chunk.split())) for chunk in text[1:-1].split(")(")] if text else []
    assert all(cyc[0] == min(cyc) and len(cyc) > 1 for cyc in cycles)
    assert [cyc[0] for cyc in cycles] == sorted(cyc[0] for cyc in cycles)
    assert parse_cycles(text, len(a)) == p


@DETERMINISTIC
@given(permutations_of_one_degree(3, max_degree=60))
def test_orbits_match_sympy(combinatorics, images):
    gens = [Permutation(a) for a in images]
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation([x - 1 for x in a]) for a in images])
    expected = sorted((frozenset(x + 1 for x in orbit) for orbit in oracle.orbits()), key=min)
    assert orbits(gens) == expected
