import copy
import random

import pytest

from cubegal import cubes
from cubegal.cubes import GENERATOR_TABLES, cube_model, load_net, order_bound
from cubegal.perm import Permutation, parse_cycles
from cubegal.structure import (R3_ORDER, R4_ORDER, R5_ORDER, r3_predicted_order,
                               r4_predicted_order, r5_predicted_order)
from reference import (ConfigTuple, copy_model, decode_config, encode_config, identity,
                       induced_cubie_perm, is_identity, orbits, orientation_sum,
                       random_elements, sign_assignment, sign_image, sign_vector,
                       superflip_permutation, validity_check, with_cycle)


def _swap_in_cycle(tables, faces):
    tables["r1"] = tables["r1"].replace("(40 88 9 96)", "(40 9 88 96)", 1)


def _reverse_cycle(tables, faces):
    tables["r1"] = tables["r1"].replace("(40 88 9 96)", "(96 9 88 40)", 1)


def _exchange_slices(tables, faces):
    tables["r2"], tables["l2"] = tables["l2"], tables["r2"]


def _swap_net_labels(tables, faces):
    # labels 1 and 2; u1, the first table to move either, names the fault
    row = faces["F"][0]
    row[0], row[1] = row[1], row[0]


def _point_out_of_range(tables, faces):
    tables["b2"] = tables["b2"].replace("(54 81 43 64)", "(54 81 43 145)", 1)


def _label_on_a_center(tables, faces):
    faces["F"][2][2], faces["F"][0][0] = faces["F"][0][0], None


@pytest.mark.parametrize("mutate, error", [
    (_swap_in_cycle, "move r1 is not"), (_reverse_cycle, "move r1 is not"),
    (_exchange_slices, "move r2 is not"), (_swap_net_labels, "move u1 is not"),
    (_point_out_of_range, "move b2: point 145 out of range"),
    (_label_on_a_center, "a net label lies off the stickers")],
    ids=["swap-in-cycle", "reverse-cycle", "exchange-r2-l2", "swap-net-labels",
         "point-out-of-range", "label-on-a-center"])
def test_tables_must_be_the_quarter_turns_of_the_net(monkeypatch, mutate, error):
    # what the tables mean is pinned here, their spelling by the golden
    # gens output; every mutant keeps the labels 1..144 in the net
    tables, net = dict(GENERATOR_TABLES), copy.deepcopy(load_net())
    mutate(tables, net["faces"])
    assert (tables, net) != (GENERATOR_TABLES, load_net())
    monkeypatch.setattr(cubes, "GENERATOR_TABLES", tables)
    monkeypatch.setattr(cubes, "load_net", lambda: net)
    with pytest.raises(ValueError, match=f"^{error}"):
        cubes._build_r5()


def test_net_is_versioned_and_complete():
    net = load_net()
    assert net["version"] == 1
    labels = [x for grid in net["faces"].values() for row in grid for x in row
              if x is not None]
    assert sorted(labels) == list(range(1, 145))


def test_generator_count_and_degree():
    m5 = cube_model(5)
    assert len(m5.generators) == 12
    assert all(g.degree == 144 for g in m5.generators.values())
    assert m5.generators["r1"](40) == 88  # first entry of the first table


def test_r5_classes_and_blocks():
    m5 = cube_model(5)
    assert {k: len(v) for k, v in m5.classes.items()} == {
        "corners": 24, "central_edges": 24, "wings": 48,
        "plus_centers": 24, "x_centers": 24}
    assert len(m5.blocks["corners"]) == 8
    assert all(len(b) == 3 for b in m5.blocks["corners"])
    assert len(m5.blocks["central_edges"]) == 12
    assert len(m5.blocks["wings"]) == 24
    assert all(len(b) == 2 for b in m5.blocks["wings"])
    assert all(len(b) == 1 for b in m5.blocks["plus_centers"])


def test_classes_are_unions_of_orbits():
    m5 = cube_model(5)
    gen_list = list(m5.generators.values())
    for orbit in orbits(gen_list, 144):
        assert any(orbit <= pts for pts in m5.classes.values())


def test_every_generator_preserves_every_class():
    m5 = cube_model(5)
    for g in m5.generators.values():
        for pts in m5.classes.values():
            assert {g(a) for a in pts} == set(pts)


def test_wing_blocks_span_both_chiral_orbits():
    m5 = cube_model(5)
    gen_list = list(m5.generators.values())
    wing_orbits = [o for o in orbits(gen_list, 144) if o <= m5.classes["wings"]]
    assert len(wing_orbits) == 2
    for a, b in m5.blocks["wings"]:
        sides = {next(i for i, o in enumerate(wing_orbits) if s in o) for s in (a, b)}
        assert sides == {0, 1}


def test_r4_restriction():
    m4 = cube_model(4)
    assert m4.degree == 96
    assert {k: len(v) for k, v in m4.classes.items()} == {
        "corners": 24, "wings": 48, "x_centers": 24}
    # four orbits of 24 (wings chiral-split), three classes
    sizes = sorted(len(o) for o in orbits(list(m4.generators.values()), 96))
    assert sizes == [24, 24, 24, 24]


def test_r4_restricted_r2_text():
    m4 = cube_model(4)
    assert m4.source_text["r2"] == \
        "(39 87 10 95)(27 75 22 83)(15 63 34 71)(3 51 46 59)"
    assert parse_cycles(m4.source_text["r2"], 96) == m4.generators["r2"]


def test_r4_generators_are_the_r5_moves_on_labels_up_to_96():
    # the R4 moves are parsed from filtered text; pointwise they must be the
    # R5 moves, which keep the labels 1..96 invariant
    m4, m5 = cube_model(4), cube_model(5)
    assert m4.generators.keys() == m5.generators.keys()
    for name, g in m4.generators.items():
        assert [g(s) for s in range(1, 97)] == [m5.generators[name](s) for s in range(1, 97)]


def test_r4_filter_rejects_a_cycle_across_the_label_limit():
    assert cubes._filter_cycles_text("(1 2)(97 98)(3 96)", 96) == "(1 2)(3 96)"
    with pytest.raises(ValueError, match="not invariant"):
        cubes._filter_cycles_text("(1 2)(96 97)", 96)


def test_r5_source_text_is_verbatim():
    m5 = cube_model(5)
    assert m5.source_text == GENERATOR_TABLES


def test_cube3_model_structure():
    m3 = cube_model(3)
    assert m3.degree == 48
    assert sorted(m3.generators) == ["b", "d", "f", "l", "r", "u"]
    assert all(g.order() == 4 for g in m3.generators.values())
    sizes = sorted(len(o) for o in orbits(list(m3.generators.values()), 48))
    assert sizes == [24, 24]


def test_cube_model_dispatch():
    assert cube_model(3).size == 3
    assert cube_model(5).degree == 144
    with pytest.raises(ValueError):
        cube_model(6)


def test_induced_corner_perm_of_r1():
    m5 = cube_model(5)
    corner = induced_cubie_perm(m5, m5.generators["r1"], "corners")
    assert corner.cycle_type().parts == (4, 1, 1, 1, 1)
    assert corner.sign() == -1


def test_induced_corner_perm_of_r2_is_identity():
    m5 = cube_model(5)
    assert is_identity(induced_cubie_perm(m5, m5.generators["r2"], "corners"))


def test_induced_identity():
    m5 = cube_model(5)
    ident = identity(144)
    for name in m5.class_order:
        assert is_identity(induced_cubie_perm(m5, ident, name))


def test_induced_rejects_block_breaker():
    m5 = cube_model(5)
    a, b = m5.blocks["corners"][0][0], m5.blocks["corners"][1][0]
    breaker = parse_cycles(f"({a} {b})", 144)
    with pytest.raises(ValueError):
        induced_cubie_perm(m5, breaker, "corners")
    # a reflection of one corner's stickers keeps the block but no piece
    # can be turned that way
    assert (85, 1, 56) in m5.blocks["corners"]
    with pytest.raises(ValueError):
        induced_cubie_perm(m5, parse_cycles("(85 1)", 144), "corners")


def test_sign_vectors_of_generators():
    m5 = cube_model(5)
    outer = (-1, -1, 1, -1, -1)
    inner = (1, 1, -1, -1, 1)
    for name, g in m5.generators.items():
        expected = outer if name.endswith("1") else inner
        assert sign_vector(m5, g) == expected, name


def test_sign_character_image_has_order_four():
    assert len(sign_image(cube_model(5))) == 4


def test_sign_vector_closure_on_random_elements():
    m5 = cube_model(5)
    span = sign_image(m5)
    sampler = random_elements(m5.generators.values(), 5)
    for _ in range(1000):
        assert sign_vector(m5, next(sampler)) in span


def test_r4_corner_sign_equals_center_sign():
    m4 = cube_model(4)
    order = m4.class_order
    ci, xi = order.index("corners"), order.index("x_centers")
    for name, g in m4.generators.items():
        v = sign_vector(m4, g)
        assert v[ci] == v[xi], name


def test_orientation_sums_vanish_on_generators():
    m5 = cube_model(5)
    for name, g in m5.generators.items():
        assert orientation_sum(m5, g, "corners") == 0, name
        assert orientation_sum(m5, g, "central_edges") == 0, name


def test_orientation_sums_vanish_on_random_elements():
    m5 = cube_model(5)
    sampler = random_elements(m5.generators.values(), 11)
    for _ in range(1000):
        p = next(sampler)
        assert orientation_sum(m5, p, "corners") == 0
        assert orientation_sum(m5, p, "central_edges") == 0


def test_orientation_identity_and_validation():
    m5 = cube_model(5)
    assert orientation_sum(m5, identity(144), "corners") == 0
    with pytest.raises(ValueError):
        orientation_sum(m5, m5.generators["r1"], "wings")


def test_sign_assignment_resolution():
    report = sign_assignment(5)
    assert report["candidates"] == ["x_centers"]
    assert report["resolved"] == {"tau": "x_centers", "rho_c": "plus_centers",
                                  "rho_e": "wings"}


def test_initial_config_valid_and_identity():
    m5 = cube_model(5)
    cfg = ConfigTuple.initial()
    valid, conditions = validity_check(m5, cfg)
    assert valid and all(conditions.values())
    assert is_identity(encode_config(m5, cfg))


def test_single_corner_twist_invalid():
    m5 = cube_model(5)
    cfg = ConfigTuple(x=(1, 0, 0, 0, 0, 0, 0, 0), sigma_c=identity(8),
                      y=(0,) * 12, sigma_e=identity(12),
                      tau=identity(24), rho_c=identity(24),
                      rho_e=identity(24))
    valid, conditions = validity_check(m5, cfg, cross_check=True)
    assert not valid
    assert not conditions["corner_twist_sum_zero"]
    assert conditions["membership_cross_check"] is False


def test_generator_decodes_to_valid_config():
    m5 = cube_model(5)
    cfg = decode_config(m5, m5.generators["r1"])
    valid, conditions = validity_check(m5, cfg, cross_check=True)
    assert valid
    assert conditions["membership_cross_check"] is True
    assert encode_config(m5, cfg) == m5.generators["r1"]


def test_decode_encode_round_trip_random():
    m5 = cube_model(5)
    sampler = random_elements(m5.generators.values(), 3)
    for _ in range(25):
        p = next(sampler)
        cfg = decode_config(m5, p)
        assert encode_config(m5, cfg) == p
        valid, _ = validity_check(m5, cfg)
        assert valid


def test_validity_matches_membership_on_random_tuples():
    m5 = cube_model(5)
    rng = random.Random(1234)

    def random_perm(n):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        return Permutation(images)

    agreements = 0
    for _ in range(20):
        cfg = ConfigTuple(
            x=tuple(rng.randrange(3) for _ in range(8)),
            sigma_c=random_perm(8),
            y=tuple(rng.randrange(2) for _ in range(12)),
            sigma_e=random_perm(12),
            tau=random_perm(24), rho_c=random_perm(24), rho_e=random_perm(24),
        )
        valid, conditions = validity_check(m5, cfg, cross_check=True)
        assert conditions["membership_cross_check"] == valid
        agreements += 1
    assert agreements == 20


def test_superflip_in_r3():
    m3 = cube_model(3)
    sf = superflip_permutation(m3)
    assert sf.order() == 2
    assert all(sf * g == g * sf for g in m3.generators.values())
    assert m3.group().contains(sf)
    # flips stickers only within edge blocks
    assert all(sf(a) == b and sf(b) == a for a, b in m3.blocks["central_edges"])
    assert all(sf(s) == s for s in m3.classes["corners"])


def test_superflip_only_in_r3():
    with pytest.raises(ValueError):
        superflip_permutation(cube_model(5))


def test_corner_sticker_transposition_not_a_member():
    # swapping two stickers breaks the corner-block structure
    m5 = cube_model(5)
    group = m5.group()
    within_block = parse_cycles("(4 5)", 144)
    assert not group.contains(within_block)
    a = sorted(m5.classes["corners"])[0]
    b = sorted(m5.classes["corners"])[2]
    across_blocks = parse_cycles(f"({a} {b})", 144)
    assert not group.contains(across_blocks)


# -- the structural upper bound on the group order ----------------------------


@pytest.mark.parametrize("n,exact,predicted", [(3, R3_ORDER, r3_predicted_order),
                                               (4, R4_ORDER, r4_predicted_order),
                                               (5, R5_ORDER, r5_predicted_order)])
def test_order_bound_equals_the_exact_and_predicted_orders(n, exact, predicted):
    assert order_bound(cube_model(n)) == exact == predicted()


def _tampered_models():
    yield pytest.param(lambda: with_cycle(cube_model(3), "r",
                                           cube_model(3).blocks["corners"][0]),
                       id="corner-twist")
    yield pytest.param(lambda: with_cycle(cube_model(3), "r",
                                           cube_model(3).blocks["central_edges"][0]),
                       id="edge-flip")
    yield pytest.param(lambda: with_cycle(cube_model(4), "r1",
                                           cube_model(4).blocks["wings"][0]),
                       id="wing-swap")
    yield pytest.param(lambda: copy_model(cube_model(4), blocks={
        k: v for k, v in cube_model(4).blocks.items() if k != "x_centers"}),
        id="dropped-class")


@pytest.mark.parametrize("tampered", _tampered_models())
def test_order_bound_rejects_a_tampered_model(tampered):
    # a lone corner twist, a lone edge flip and a turned wing each break a
    # per-generator check; a dropped class leaves stickers uncovered
    assert order_bound(tampered()) is None


def test_a_model_without_a_bound_gets_its_order_from_the_unbounded_build():
    twisted = with_cycle(cube_model(3), "r", cube_model(3).blocks["corners"][0])
    # the lone twist frees the corner twist sum: the whole of C3 wr S8
    assert twisted.group().order() == 3 * R3_ORDER
