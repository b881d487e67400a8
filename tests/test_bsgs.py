import random
from math import factorial, lcm

import pytest

from cubegal.bsgs import PermutationGroup
from cubegal.perm import IDENT256, Permutation, parse_cycles
from reference import (ProductReplacementSampler, copy_model, identity, is_identity,
                       normal_closure, random_elements, with_cycle)


def s_n_generators(n):
    return [parse_cycles("(1 2)", n),
            Permutation(list(range(2, n + 1)) + [1])]


def test_order_transposition():
    g = PermutationGroup([parse_cycles("(1 2)", 2)])
    assert g.order() == 2


def test_order_s3():
    g = PermutationGroup([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
    assert g.order() == 6


def test_order_s24():
    g = PermutationGroup(s_n_generators(24))
    assert g.order() == factorial(24)


def test_order_a5():
    g = PermutationGroup([parse_cycles("(1 2 3)", 5), parse_cycles("(1 2 3 4 5)", 5)])
    assert g.order() == 60


def test_orbit_extension_by_a_new_generator_matches_a_full_walk():
    # _add_strong applies only the new generator in the first round, since
    # the orbit is closed under the old ones; the transversals must come
    # out exactly as a walk under every generator would give them
    from cubegal.bsgs import _Level
    rng = random.Random(3)
    group = PermutationGroup(s_n_generators(4))
    for _ in range(60):
        n = rng.randrange(3, 13)
        support = rng.sample(range(n), rng.randrange(2, n + 1))
        old = [_random_on(rng, n, support) for _ in range(rng.randrange(0, 3))]
        new = _random_on(rng, n, range(n))
        walked = [_Level(support[0], IDENT256[:n]) for _ in range(2)]
        for lvl in walked:
            lvl.gens.extend(old)
            group._extend_orbit(lvl)
            lvl.gens.append(new)
        group._extend_orbit(walked[0], new)
        group._extend_orbit(walked[1])
        assert list(walked[0].trans.items()) == list(walked[1].trans.items())
        assert list(walked[0].invtrans.items()) == list(walked[1].invtrans.items())


def _random_on(rng, n, support):
    """A padded image table moving only points of support at random."""
    points = list(support)
    img = list(range(n))
    for a, b in zip(points, rng.sample(points, len(points))):
        img[a] = b
    return Permutation([x + 1 for x in img])._img


def test_order_equals_product_of_basic_orbits():
    # the order is the orbit product kept up to date as orbits grow: with
    # no bound, a bound met, and a bound never met
    for bound in (None, factorial(8), 2 * factorial(8)):
        g = PermutationGroup(s_n_generators(8), bound=bound)
        prod = 1
        for size in g.basic_orbit_sizes:
            prod *= size
        assert prod == g.order() == factorial(8)


def _chain_cases():
    from cubegal.cubes import cube_model
    for n in (3, 4, 5):
        yield pytest.param(lambda n=n: cube_model(n).group(), id=str(n))
    # unbounded builds: they stop only when a sweep adds nothing
    yield pytest.param(lambda: PermutationGroup(s_n_generators(8)), id="S8")
    yield pytest.param(lambda: PermutationGroup([parse_cycles("(1 2 3)", 5),
                                                 parse_cycles("(1 2 3 4 5)", 5)]), id="A5")
    # R3 with a lone corner twist, which `cubes.order_bound` rejects
    yield pytest.param(lambda: with_cycle(cube_model(3), "r", cube_model(3).blocks["corners"][0])
                       .group(), id="twisted-3")


@pytest.mark.parametrize("build", _chain_cases())
def test_cube_chains_meet_the_nested_schreier_criterion(build):
    # The bounded cube chains stop at their structural bound and the
    # unbounded ones when a sweep adds nothing; this checks both against
    # the criterion itself, from outside the build.  The levels must be
    # nested: each level's generator set T_i holds every deeper level's.
    # Each generator in T_i fixes the earlier base points and maps the
    # basic orbit into itself, and every Schreier generator u_d t u_(dt)^-1
    # sifts to the identity through the levels below.  Bottom up, <T_i> is
    # then the product of the transversals from level i on, so the order
    # is proved.
    group = build()
    ident = IDENT256[:group.degree]
    levels = group._levels
    sifts, failures = 0, []
    for i, lvl in enumerate(levels):
        gens = lvl.gens
        assert all(set(deeper.gens) <= set(gens) for deeper in levels[i + 1:]), f"level {i}"
        earlier = [above.point for above in levels[:i]]
        assert all(g[b] == b for g in gens for b in earlier), f"level {i}"
        for delta, u in lvl.trans.items():
            for t in gens:
                gamma = t[delta]
                if gamma not in lvl.trans:
                    failures.append((i, "orbit", delta))
                    continue
                w = u.translate(t)
                if w == lvl.trans[gamma]:
                    continue
                sifts += 1
                residue, stick = group._sift(w.translate(lvl.invtrans[gamma]), i + 1)
                if stick < len(levels) or residue != ident:
                    failures.append((i, "sift", delta))
    assert failures == []
    assert sifts > 0


def test_a_bound_below_the_order_raises():
    with pytest.raises(ArithmeticError):
        PermutationGroup(s_n_generators(5), bound=100)


@pytest.mark.parametrize("seed", [1, 4242, 2718])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_cube_groups_are_proved_by_their_bound_alone(n, seed):
    # the orbit product meets cubes.order_bound, and membership is exact
    # both ways.  `group` accepts a seed and ignores it; here the seed
    # picks the member words
    from cubegal.cubes import cube_model
    from cubegal.structure import R3_ORDER, R4_ORDER, R5_ORDER
    model = copy_model(cube_model(n))
    group = model.group(seed)
    assert group.order() == {3: R3_ORDER, 4: R4_ORDER, 5: R5_ORDER}[n]
    gens = list(model.generators.values())
    rng = random.Random(seed)
    for _ in range(50):
        word = identity(model.degree)
        for _ in range(rng.randrange(1, 30)):
            word = word * rng.choice(gens)
        assert group.contains(word)
    # micro.py's non-member: point 1 swapped with the first point outside
    # its generator orbit
    orbit, frontier = {0}, [0]
    while frontier:
        frontier = [g.raw[x] for x in frontier for g in gens if g.raw[x] not in orbit]
        orbit.update(frontier)
    outside = next(i for i in range(model.degree) if i not in orbit)
    assert not group.contains(parse_cycles(f"(1 {outside + 1})", model.degree))


def _representation_cases():
    from cubegal.cubes import cube_model
    for n in (3, 4, 5):
        yield pytest.param(lambda n=n: cube_model(n).group(), id=f"cube{n}")
    yield pytest.param(lambda: PermutationGroup([parse_cycles("(1 2)", 2)]), id="degree2")
    # data and tables have the same length at degree 256
    yield pytest.param(lambda: PermutationGroup([parse_cycles("(1 256)", 256),
                                                 parse_cycles("(1 2 3 4 5 6 7 8)", 256)]),
                       id="degree256")


@pytest.mark.parametrize("build", _representation_cases())
def test_chain_data_is_exact_length_and_tables_are_padded(build):
    # transversal elements and sift residues are data of `degree` bytes;
    # generators and inverse transversal elements are 256-byte tables that
    # are the identity past the degree
    group = build()
    n = group.degree
    ident = IDENT256[:n]
    assert group._levels
    for lvl in group._levels:
        for g in lvl.gens:
            assert len(g) == 256 and g[n:] == IDENT256[n:]
        assert lvl.trans.keys() == lvl.invtrans.keys()
        for gamma, u in lvl.trans.items():
            inv = lvl.invtrans[gamma]
            assert len(u) == n and u[lvl.point] == gamma
            assert len(inv) == 256 and inv[n:] == IDENT256[n:]
            assert u.translate(inv) == ident
    sampler = random_elements(group.generators, 5)
    probes = [g.raw for g in group.generators] + [next(sampler).raw for _ in range(5)]
    probes.append(Permutation([2, 1] + list(range(3, n + 1))).raw)
    for p in probes:
        for start in (0, len(group._levels) - 1):
            residue, _ = group._sift(p, start)
            assert len(residue) == n
    assert group.contains(group.generators[0])


def test_empty_generators_rejected():
    with pytest.raises(ValueError):
        PermutationGroup([])


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        PermutationGroup([parse_cycles("(1 2)", 3), parse_cycles("(1 2)", 4)])


def test_trivial_group():
    g = PermutationGroup([identity(6)])
    assert g.order() == 1
    assert g.contains(identity(6))
    assert not g.contains(parse_cycles("(1 2)", 6))
    assert is_identity(next(random_elements(g.generators, 3)))


def test_contains_identity_and_generators():
    gens = s_n_generators(10)
    g = PermutationGroup(gens)
    assert g.contains(identity(10))
    for x in gens:
        assert g.contains(x)


def test_contains_full_symmetric():
    g = PermutationGroup(s_n_generators(9))
    rng = random.Random(3)
    for _ in range(20):
        images = list(range(1, 10))
        rng.shuffle(images)
        assert g.contains(Permutation(images))


def test_contains_respects_subgroup():
    # A5 rejects odd permutations
    g = PermutationGroup([parse_cycles("(1 2 3)", 5), parse_cycles("(1 2 3 4 5)", 5)])
    assert not g.contains(parse_cycles("(1 2)", 5))
    assert g.contains(parse_cycles("(1 2)(3 4)", 5))


def test_contains_degree_mismatch():
    g = PermutationGroup(s_n_generators(5))
    with pytest.raises(ValueError):
        g.contains(identity(6))


def test_contains_closed_under_products_random():
    g = PermutationGroup([parse_cycles("(1 2 3)", 7), parse_cycles("(3 4 5 6 7)", 7)])
    sampler = random_elements(g.generators, 99)
    for _ in range(30):
        a = next(sampler)
        b = next(sampler)
        assert g.contains(a * b)
        assert g.contains(a.inverse())


def test_cyclic_group_order_matches_element_order():
    rng = random.Random(23)
    for _ in range(10):
        images = list(range(1, 16))
        rng.shuffle(images)
        p = Permutation(images)
        g = PermutationGroup([p])
        assert g.order() == p.order() == lcm(*p.cycle_type().parts)


def test_random_element_deterministic():
    g = PermutationGroup(s_n_generators(12))
    assert (next(random_elements(g.generators, 42))
            == next(random_elements(g.generators, 42)))
    stream_a = [next(random_elements(g.generators, 7)) for _ in range(3)]
    stream_b = [next(random_elements(g.generators, 7)) for _ in range(3)]
    assert stream_a == stream_b


def test_random_elements_are_members():
    g = PermutationGroup([parse_cycles("(1 2 3)", 6), parse_cycles("(4 5 6)", 6),
                          parse_cycles("(1 4)(2 5)(3 6)", 6)])
    sampler = random_elements(g.generators, 1)
    for _ in range(50):
        assert g.contains(next(sampler))


def test_even_fraction_of_s24_samples():
    from cubegal.evidence import EVEN_FRACTION_WINDOW
    g = PermutationGroup(s_n_generators(24))
    sampler = random_elements(g.generators, 2024)
    even = sum(1 for _ in range(10_000) if next(sampler).sign() == 1)
    low, high = EVEN_FRACTION_WINDOW
    assert low <= even / 10_000 <= high


def test_sampler_requires_generators():
    with pytest.raises(ValueError):
        ProductReplacementSampler([], seed=1)


def test_base_points_are_moved():
    g = PermutationGroup(s_n_generators(6))
    for b, size in zip(g.base, g.basic_orbit_sizes):
        assert 1 <= b <= 6
        assert size >= 2


def test_strong_generators_are_members():
    g = PermutationGroup(s_n_generators(8))
    for s in g.strong_generators:
        assert g.contains(s)


def test_two_builds_from_the_same_generators_give_the_same_chain():
    gens = [parse_cycles("(1 2 3 4)", 8), parse_cycles("(1 5)(2 6)(3 7)(4 8)", 8)]
    a, b = PermutationGroup(gens), PermutationGroup(gens)
    assert a.base == b.base
    assert a.strong_generators == b.strong_generators
    assert ([list(lvl.trans.items()) for lvl in a._levels]
            == [list(lvl.trans.items()) for lvl in b._levels])


def test_an_unbounded_r3_build_gives_the_order_and_chain_of_the_bounded_one():
    # With no bound the build sweeps until a sweep adds nothing; it still
    # ends at the order the structural bound proves, with the same chain
    from cubegal.cubes import cube_model
    from cubegal.structure import R3_ORDER
    model = cube_model(3)
    g = PermutationGroup(list(model.generators.values()))
    assert g.order() == R3_ORDER
    assert (len(g.base), len(g.strong_generators), sum(g.basic_orbit_sizes)) == (18, 28, 257)
    bounded = model.group()
    assert (g.base, g.strong_generators) == (bounded.base, bounded.strong_generators)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bounded_cube_builds_end_in_their_first_sweep(n, monkeypatch):
    # the orbit product meets `cubes.order_bound` while the first sweep's
    # Schreier generators are sifted, so no sweep ever follows one: a
    # record of what a sweep sifted to the identity would never be read
    from cubegal.cubes import cube_model, order_bound
    from cubegal.structure import R3_ORDER, R4_ORDER, R5_ORDER
    sweep = PermutationGroup._schreier_generators
    sweeps = []

    def counted(self):
        sweeps.append(self)
        return sweep(self)
    monkeypatch.setattr(PermutationGroup, "_schreier_generators", counted)
    model = cube_model(n)
    g = PermutationGroup(list(model.generators.values()), bound=order_bound(model))
    assert len(sweeps) == 1
    assert g.order() == {3: R3_ORDER, 4: R4_ORDER, 5: R5_ORDER}[n]


def test_normal_closure_of_even_part():
    # closure of a 3-cycle inside S5 is A5
    g = PermutationGroup(s_n_generators(5))
    h = normal_closure(g, [parse_cycles("(1 2 3)", 5)])
    assert h is not None
    assert h.order() == 60


def test_normal_closure_trivial_seeds():
    g = PermutationGroup(s_n_generators(4))
    h = normal_closure(g, [identity(4)])
    assert h is not None
    assert h.order() == 1


def test_normal_closure_cap_returns_none():
    g = PermutationGroup(s_n_generators(10))
    assert normal_closure(g, [parse_cycles("(1 2 3)", 10)], max_generators=1) is None


# -- sympy.combinatorics as an independent oracle ---------------------------

def _small_support_generator(rng, n):
    """A cycle of length 2..4; a few of these rarely span a transitive group."""
    return Permutation.from_cycles([rng.sample(range(1, n + 1), rng.randint(2, min(4, n)))], n)


def _block_generator(rng, n, b):
    """A cycle inside one block of {1..n} cut into blocks of size b, or a
    bijection swapping a block with the next: either preserves the blocks."""
    i = rng.randrange(n // b)
    block = range(i * b + 1, i * b + b + 1)
    if rng.random() < 0.5:
        return Permutation.from_cycles([list(block)[:rng.randint(2, b)]], n)
    j = (i + 1) % (n // b)
    shift = rng.randrange(b)
    return Permutation.from_cycles(
        [(a, j * b + 1 + (k + shift) % b) for k, a in enumerate(block)], n)


def _random_subgroups(seed, count):
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(3, 12)
        sizes = [b for b in (2, 3, 4, 6) if n % b == 0 and b < n]
        if trial % 2 and sizes:
            b = rng.choice(sizes)
            gens = [_block_generator(rng, n, b) for _ in range(rng.randint(2, 4))]
        else:
            gens = [_small_support_generator(rng, n) for _ in range(rng.randint(1, 3))]
        yield rng, n, gens


def test_order_and_contains_match_sympy_on_random_subgroups():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    kinds = set()
    for rng, n, gens in _random_subgroups(2024, 80):
        ours = PermutationGroup(gens)
        theirs = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.raw)) for g in gens])
        assert ours.order() == theirs.order(), gens
        word = identity(n)
        for _ in range(5):
            word = word * rng.choice(gens)
            assert ours.contains(word)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            p = Permutation(images)
            assert ours.contains(p) == theirs.contains(
                combinatorics.Permutation(list(p.raw))), (gens, p)
        if not theirs.is_transitive():
            kinds.add("intransitive")
        else:
            kinds.add("primitive" if theirs.is_primitive() else "imprimitive")
    assert kinds == {"intransitive", "imprimitive", "primitive"}


def test_r3_order_and_contains_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    from cubegal.cubes import cube_model
    model = cube_model(3)
    gens = list(model.generators.values())
    ours = model.group()
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.raw)) for g in gens])
    assert ours.order() == theirs.order() == 43252003274489856000
    sampler = random_elements(ours.generators, 5)
    a, b = next(sampler), next(sampler)
    swap = Permutation.from_cycles([gens[0].cycles()[0][:2]], 48)
    for p in (a, a * b, swap, a * swap):
        assert ours.contains(p) == theirs.contains(combinatorics.Permutation(list(p.raw)))
    assert not ours.contains(swap)
