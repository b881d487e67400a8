import pickle
import random

import pytest

from cubegal.perm import (CycleType, Permutation, block_system, orbits,
                          parse_cycles, print_cycles)
from cubegal.cubes import GENERATOR_TABLES
from reference import identity, is_identity


def test_parse_single_cycle():
    p = parse_cycles("(1 2 3)", 3)
    assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]


def test_parse_empty_is_identity():
    p = parse_cycles("", 5)
    assert is_identity(p)
    assert p.degree == 5


def test_parse_whitespace_tolerant():
    a = parse_cycles("( 1 2 ) (4 5)", 5)
    b = parse_cycles("(1 2)(4 5)", 5)
    assert a == b


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_cycles("(1 2 9)", 5)  # out of range
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 5)  # repeated point
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 5)  # unterminated
    with pytest.raises(ValueError):
        parse_cycles("1 2)", 5)  # point outside any cycle
    with pytest.raises(ValueError):
        parse_cycles("(1 (2 3))", 5)  # nested


def test_composition_convention():
    # (p * q)(i) = p(q(i)): q acts first
    p = parse_cycles("(1 2)", 3)
    q = parse_cycles("(2 3)", 3)
    pq = p * q
    assert pq(3) == p(q(3)) == 1
    assert pq(1) == 2
    assert (p * q) == Permutation([p(q(i)) for i in (1, 2, 3)])


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        parse_cycles("(1 2)", 2) * parse_cycles("(1 2)", 3)


def test_degree_above_256_is_rejected():
    images = list(range(1, 258))
    with pytest.raises(ValueError):
        Permutation(images)
    with pytest.raises(ValueError):
        identity(257)
    with pytest.raises(ValueError):
        Permutation.from_cycles([(1, 257)], 257)
    assert Permutation(images[:256]).degree == 256


def test_raw_is_the_exact_length_table():
    for p in (parse_cycles("(1 3 2)", 3), identity(7),
              Permutation.from_cycles([(2, 5)], 5), parse_cycles("(1 256)", 256)):
        assert type(p.raw) is bytes
        assert len(p.raw) == p.degree
        assert [x + 1 for x in p.raw] == [p(i) for i in range(1, p.degree + 1)]


def test_equal_tables_of_different_degrees_differ():
    small, large = identity(3), identity(4)
    assert small != large
    assert parse_cycles("(1 2)", 3) != parse_cycles("(1 2)", 4)
    with pytest.raises(ValueError):
        small * large
    assert small == Permutation([1, 2, 3]) and hash(small) == hash(Permutation([1, 2, 3]))


def test_involution_and_identity_composition():
    t = parse_cycles("(1 2)", 4)
    assert is_identity(t * t)
    e = identity(4)
    p = parse_cycles("(1 3 4)", 4)
    assert p * e == p and e * p == p


def test_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        images = list(range(1, 13))
        rng.shuffle(images)
        p = Permutation(images)
        assert is_identity(p * p.inverse())
        assert is_identity(p.inverse() * p)


def test_r1_has_order_four():
    r1 = parse_cycles(GENERATOR_TABLES["r1"], 144)
    assert not is_identity(r1 * r1)
    assert is_identity(r1 * r1 * r1 * r1)
    assert r1.order() == 4


def test_r1_cycle_type():
    r1 = parse_cycles(GENERATOR_TABLES["r1"], 144)
    assert r1.cycle_type() == CycleType((4,) * 11 + (1,) * 100)


def test_r2_sign_direct_computation():
    # five 4-cycles: parity (-1)^(5*3) = -1
    r2 = parse_cycles(GENERATOR_TABLES["r2"], 144)
    assert r2.cycle_type().parts.count(4) == 5
    assert r2.sign() == -1


def test_sign_basics():
    assert identity(7).sign() == 1
    four_cycle = parse_cycles("(10 20 30 40)", 144)
    assert four_cycle.sign() == -1


def test_sign_multiplicative_random():
    rng = random.Random(5)
    for _ in range(50):
        a = list(range(1, 15))
        b = list(range(1, 15))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Permutation(a), Permutation(b)
        assert (p * q).sign() == p.sign() * q.sign()


def test_parity_from_cycle_type_matches_sign():
    rng = random.Random(17)
    for _ in range(50):
        images = list(range(1, 21))
        rng.shuffle(images)
        p = Permutation(images)
        assert p.cycle_type().parity == p.sign()


def test_cycle_type_examples():
    assert identity(24).cycle_type() == CycleType((1,) * 24)
    p = parse_cycles("(1 2 3)(4 5)", 6)
    assert p.cycle_type().parts == (3, 2, 1)
    assert p.sign() == -1  # 3-cycle even, transposition odd


def test_cycle_type_invariants():
    t = CycleType((4, 4, 1))
    assert t.degree == 9
    assert t.parity == 1  # two odd 4-cycles
    with pytest.raises(ValueError):
        CycleType((0, 2))


def test_cycle_type_compares_hashes_and_prints_by_its_sorted_parts():
    t = CycleType((1, 4, 2, 4))
    assert t.parts == (4, 4, 2, 1)
    assert t == CycleType((4, 4, 2, 1)) and hash(t) == hash(CycleType((2, 1, 4, 4)))
    assert t != CycleType((4, 4, 3)) and t != (4, 4, 2, 1)
    small, large = CycleType((3, 3)), CycleType((4, 1, 1))
    assert small < large and small <= large and large > small and large >= small
    assert small <= CycleType((3, 3)) and small >= CycleType((3, 3))
    assert not small < CycleType((3, 3)) and not small > CycleType((3, 3))
    assert sorted([t, large, small]) == [small, large, t]
    with pytest.raises(TypeError):
        small < (3, 3)
    assert repr(t) == "CycleType(parts=(4, 4, 2, 1))"
    assert str(t) == "4^2 2 1"
    for bad in ((0, 2), (3, -1)):
        with pytest.raises(ValueError):
            CycleType(bad)


def test_cycle_type_is_immutable_and_pickles():
    # pool workers send cycle types back to the parent process
    t = CycleType((2, 3))
    with pytest.raises(AttributeError):
        t.parts = (5,)
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(AttributeError):
        del t.parts
    assert t.parts == (3, 2)
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t) and copy.parts == (3, 2)


def test_print_parse_round_trip_generators():
    for text in GENERATOR_TABLES.values():
        p = parse_cycles(text, 144)
        assert parse_cycles(print_cycles(p), 144) == p


def test_print_cycles_canonical_form():
    p = parse_cycles("(40 88 9 96)", 144)
    assert print_cycles(p) == "(9 96 40 88)"  # rotated to least point
    assert print_cycles(identity(6)) == ""


def test_orbits_identity_and_small():
    singletons = orbits([identity(5)])
    assert singletons == [frozenset({i}) for i in range(1, 6)]
    one = orbits([parse_cycles("(1 2)", 3), parse_cycles("(2 3)", 3)])
    assert one == [frozenset({1, 2, 3})]


def test_orbits_empty_needs_degree():
    with pytest.raises(ValueError):
        orbits([])
    assert orbits([], degree=3) == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_orbits_of_generator_tables():
    # six orbits of size 24: the 48 wing stickers split into two chiral
    # 24-point orbits (wings cannot flip); the five piece classes are
    # unions of these orbits
    gens = [parse_cycles(t, 144) for t in GENERATOR_TABLES.values()]
    sizes = sorted(len(o) for o in orbits(gens))
    assert sizes == [24] * 6


def test_block_system_cyclic_imprimitivity():
    c4 = parse_cycles("(1 2 3 4)", 4)
    blocks = block_system([c4], {1, 2, 3, 4}, (1, 3))
    assert sorted(sorted(b) for b in blocks) == [[1, 3], [2, 4]]


def test_block_system_primitive_returns_none():
    gens = [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)]
    for seed in ((1, 2), (1, 3), (2, 3)):
        assert block_system(gens, {1, 2, 3}, seed) is None


def test_block_system_seed_validation():
    c4 = parse_cycles("(1 2 3 4)", 5)
    with pytest.raises(ValueError):
        block_system([c4], {1, 2, 3, 4}, (1, 5))


def test_block_system_r5_corners():
    gens = [parse_cycles(t, 144) for t in GENERATOR_TABLES.values()]
    corner_orbit = next(o for o in orbits(gens) if 1 in o)
    assert len(corner_orbit) == 24
    # stickers 4 and 5 sit on one physical corner (front/right of the top layer)
    blocks = block_system(gens, corner_orbit, (4, 5))
    assert len(blocks) == 8
    assert all(len(b) == 3 for b in blocks)


def test_blocks_refine_orbits():
    gens = [parse_cycles(t, 144) for t in GENERATOR_TABLES.values()]
    corner_orbit = next(o for o in orbits(gens) if 1 in o)
    blocks = block_system(gens, corner_orbit, (4, 5))
    for b in blocks:
        assert b <= corner_orbit
