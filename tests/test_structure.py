import random
from math import factorial

import pytest

from cubegal.bsgs import PermutationGroup
from cubegal.cubes import cube_model, piece_coordinates
from cubegal.perm import Permutation, parse_cycles
from cubegal.structure import (R3_ORDER, R4_ORDER, R5_ORDER, fiber_order,
                               r3_predicted_order, r4_predicted_order,
                               r5_predicted_order, restricted_wreath_order)
from reference import (WreathElement, abelianization_order, commutes_with_all,
                       enumerate_restricted, identity, is_identity, random_elements,
                       superflip_abstract)


# ((x, sigma_c), (y, sigma_e)), twists indexed by target position as in the wreath law
def decode(model, p):
    sc, xs = piece_coordinates(model, p, "corners")
    se, ys = piece_coordinates(model, p, "central_edges")
    return WreathElement(3, xs, sc), WreathElement(2, ys, se)


def random_wreath(rng, n, m):
    images = list(range(1, m + 1))
    rng.shuffle(images)
    return WreathElement(n, tuple(rng.randrange(n) for _ in range(m)),
                         Permutation(images))


def test_wreath_multiplication_associative():
    rng = random.Random(6)
    for _ in range(40):
        a = random_wreath(rng, 3, 6)
        b = random_wreath(rng, 3, 6)
        c = random_wreath(rng, 3, 6)
        assert (a * b) * c == a * (b * c)


def test_wreath_inverse():
    rng = random.Random(8)
    ident = WreathElement.identity(3, 5)
    for _ in range(40):
        a = random_wreath(rng, 3, 5)
        assert a * a.inverse() == ident
        assert a.inverse() * a == ident


def test_wreath_action_is_homomorphism():
    rng = random.Random(10)
    for _ in range(40):
        a = random_wreath(rng, 2, 5)
        b = random_wreath(rng, 2, 5)
        assert (a * b).to_permutation() == a.to_permutation() * b.to_permutation()


def test_restricted_membership_flag():
    assert WreathElement(3, (1, 2, 0), identity(3)).in_restricted
    assert not WreathElement(3, (1, 0, 0), identity(3)).in_restricted


def test_restricted_wreath_order_formula():
    assert restricted_wreath_order(3, 8) == 3 ** 7 * factorial(8) == 88179840
    assert restricted_wreath_order(2, 12) == 2 ** 11 * factorial(12)
    assert restricted_wreath_order(2, 2) == 4
    with pytest.raises(ValueError):
        restricted_wreath_order(1, 5)


def test_restricted_order_matches_enumeration():
    # every case with n^m * m! <= 10^5
    for n, m in ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (3, 5)):
        elements = enumerate_restricted(n, m)
        assert len(elements) == restricted_wreath_order(n, m), (n, m)
        assert len({w.to_permutation() for w in elements}) == len(elements)


def test_enumerated_elements_satisfy_constraint():
    for w in enumerate_restricted(2, 3):
        assert w.twist_sum == 0


def test_fiber_order():
    assert fiber_order(2, 2) == 2  # S2 x_sign S2
    assert fiber_order(restricted_wreath_order(3, 8),
                       restricted_wreath_order(2, 12)) == R3_ORDER


def test_predicted_orders_match_frozen_digits():
    assert r3_predicted_order() == R3_ORDER
    assert r4_predicted_order() == R4_ORDER
    assert r4_predicted_order() == 3 ** 7 * factorial(8) * factorial(24) ** 2 // 2
    assert r5_predicted_order() == R5_ORDER
    assert r5_predicted_order() == R3_ORDER * factorial(24) ** 3 // 4
    assert r5_predicted_order() % r4_predicted_order() == 0


def test_superflip_abstract_properties():
    corner, edge = superflip_abstract()
    assert corner == WreathElement.identity(3, 8)
    assert is_identity(edge.perm)
    assert edge.twists == (1,) * 12
    assert edge.twist_sum == 0  # twelve flips, inside the restricted subgroup
    ident = (WreathElement.identity(3, 8), WreathElement.identity(2, 12))
    squared = (corner * corner, edge * edge)
    assert squared == ident
    assert (corner, edge) != ident


def test_superflip_central_against_decoded_generators():
    m3 = cube_model(3)
    gens = [decode(m3, g) for g in m3.generators.values()]
    assert len(gens) == 6
    assert commutes_with_all(superflip_abstract(), gens)


def test_decoded_generators_respect_fiber_conditions():
    m3 = cube_model(3)
    for corner, edge in (decode(m3, g) for g in m3.generators.values()):
        assert corner.in_restricted
        assert edge.in_restricted
        assert corner.perm.sign() == edge.perm.sign()


def test_decoding_is_a_homomorphism():
    m3 = cube_model(3)
    sampler = random_elements(m3.generators.values(), 21)
    for _ in range(10):
        p, q = next(sampler), next(sampler)
        pc, pe = decode(m3, p)
        qc, qe = decode(m3, q)
        rc, re = decode(m3, p * q)
        assert rc == pc * qc
        assert re == pe * qe


def test_abelianization_s24():
    g = PermutationGroup([parse_cycles("(1 2)", 24),
                          Permutation(list(range(2, 25)) + [1])])
    assert abelianization_order(g) == 2


def test_abelianization_a5_is_trivial():
    g = PermutationGroup([parse_cycles("(1 2 3)", 5), parse_cycles("(1 2 3 4 5)", 5)])
    assert abelianization_order(g) == 1


def test_abelianization_r3():
    assert abelianization_order(cube_model(3).group()) == 2


def test_abelianization_cap_inconclusive():
    g = PermutationGroup([parse_cycles("(1 2)", 24),
                          Permutation(list(range(2, 25)) + [1])])
    assert abelianization_order(g, max_generators=1) is None
