"""Property tests of the permutation kernels against plain-loop oracles."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cubegal.perm import Permutation

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=200)


def permutations_of_one_degree(count):
    """`count` image lists (1-based) of one common degree 1..30."""
    return st.integers(1, 30).flatmap(lambda n: st.tuples(
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
    identity = Permutation.identity(len(a))
    assert p * p.inverse() == identity == p.inverse() * p
