"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (or per sub-criterion where a criterion
bundles several independent claims).

Two sub-checks are implemented exactly as stated and are expected to
fail, because their own stated oracles refute them: the "disc f == disc g"
square-class comparison and the parity linkage for the quadrinomial pair
(the quadrinomial's discriminant is a perfect square; the linked sign
character lives on its degree-12 resolvent, for which the companion
checks here pass).  The failing assertions carry the full analysis.
"""

import random
import time
from fractions import Fraction

from cubegal.cubes import cube_model
from cubegal.evidence import (certify_symmetric, parity_linkage,
                              predict_wreath_types, scan, triple_parity_linkage,
                              types_within)
from cubegal.perm import CycleType
from cubegal.polyq import PolyQ, discriminant, trinomial_disc, trinomial_poly
from cubegal.sqclass import is_square, square_class_equal
from cubegal.structure import (R3_ORDER, R4_ORDER, R5_ORDER, r4_predicted_order,
                               r5_predicted_order, restricted_wreath_order)
from cubegal.theorems import (TARGET_CLASS, derive_parameters, professor_h2,
                              professor_h3, revenge_g, revenge_g_coefficient,
                              revenge_h, rubik_f, rubik_g, rubik_g_resolvent,
                              professor_h1_stated_coefficient)
from reference import (abelianization_order, enumerate_restricted, orientation_sum,
                       sign_image, superflip_permutation)

JOBS = 2  # worker pool width available in this environment


def _report(criterion, ok, detail, started):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail} "
          f"({time.perf_counter() - started:.1f}s)")
    return ok


def test_criterion_1_group_orders_exact():
    started = time.perf_counter()
    orders = {
        5: cube_model(5).group().order(),
        4: cube_model(4).group().order(),
        3: cube_model(3).group().order(),
    }
    ok = (orders[5] == R5_ORDER and orders[4] == R4_ORDER and orders[3] == R3_ORDER)
    _report("criterion 1 (group orders)", ok,
            f"R5={orders[5]}, R4={orders[4]}, R3={orders[3]}", started)
    assert orders[5] == R5_ORDER
    assert orders[4] == R4_ORDER
    assert orders[3] == R3_ORDER
    assert time.perf_counter() - started < 30, "order computations exceeded 30 s"


def test_criterion_2_structural_identities():
    import math
    started = time.perf_counter()
    n5 = R3_ORDER * math.factorial(24) ** 3 // 4
    n4 = 3 ** 7 * math.factorial(8) * math.factorial(24) ** 2 // 2
    ok = n5 == R5_ORDER and n4 == R4_ORDER
    _report("criterion 2 (structural identities)", ok,
            "N3*(24!)^3/4 = N5 and 3^7*8!*(24!)^2/2 = N4", started)
    assert n5 == R5_ORDER == r5_predicted_order()
    assert n4 == R4_ORDER == r4_predicted_order()


def test_criterion_3_parameter_identities():
    started = time.perf_counter()
    params = derive_parameters()
    c7 = params.target_class
    ok = (23 * c7 + 1 == 32 * params.q_const == 16 * params.z
          and 23 * params.z - 1 == 3 ** 5 * 7 * params.p2
          and is_square(23 * params.v2 + 1))
    _report("criterion 3 (parameter identities)", ok,
            "23*7c+1 = 32Q = 16z; 23z-1 = 3^5*7*p2; 23*v2+1 a perfect square",
            started)
    assert 23 * c7 + 1 == 32 * params.q_const == 16 * params.z
    assert 23 * params.z - 1 == 3 ** 5 * 7 * params.p2
    assert is_square(23 * params.v2 + 1)


def test_criterion_4_coefficient_reproduction():
    started = time.perf_counter()
    params = derive_parameters()
    t_ok = -params.t == revenge_g_coefficient() \
        == Fraction(2 ** 67 * 3 ** 24, 23 ** 23 * params.q_const)
    u2_ok = params.u2 == Fraction(2 ** 75 * 3 ** 14 * params.q_const,
                                  7 ** 2 * 23 ** 22 * params.p2 ** 2)
    u3_ok = params.u3 == Fraction(2 ** 72 * 3 ** 24 * TARGET_CLASS, 23 ** 22)
    # dual check: both first-factor candidates computed, both reported
    derived_hits = square_class_equal(trinomial_disc(params.u1), TARGET_CLASS)
    literal_hits = square_class_equal(
        trinomial_disc(-professor_h1_stated_coefficient()), TARGET_CLASS)
    dual = (f"derived u1 satisfies the target class: {derived_hits}; "
            f"literal coefficient satisfies it: {literal_hits} (reported as-is)")
    ok = t_ok and u2_ok and u3_ok and derived_hits
    _report("criterion 4 (coefficient reproduction)", ok, dual, started)
    assert t_ok and u2_ok and u3_ok
    assert derived_hits
    assert not literal_hits  # the stated value differs by a factor of 24


def test_criterion_5_square_classes():
    started = time.perf_counter()
    params = derive_parameters()
    checks = {
        "disc h(u=1) exact": trinomial_disc(1) == -(23 ** 23 + 24 ** 24),
        "disc h2*h3 in 7c": square_class_equal(
            trinomial_disc(params.u2) * trinomial_disc(params.u3), TARGET_CLASS),
        "derived u1 in 7c": square_class_equal(
            trinomial_disc(params.u1), TARGET_CLASS),
        "disc f in 7c": square_class_equal(discriminant(rubik_f()), TARGET_CLASS),
    }
    ok = all(checks.values())
    elapsed = time.perf_counter() - started
    _report("criterion 5 (square classes, trinomial targets)", ok,
            "; ".join(f"{k}: {v}" for k, v in checks.items()), started)
    assert all(checks.values()), checks
    assert elapsed < 10, "exact degree-24 square-class checks exceeded 10 s"


def test_criterion_5_disc_pair_as_stated():
    """The literal criterion text: disc f == disc g mod squares for the
    quadrinomial pair.  Expected to FAIL; see the assertion message."""
    started = time.perf_counter()
    f, g, q = rubik_f(), rubik_g(), rubik_g_resolvent()
    literal = square_class_equal(discriminant(f), discriminant(g))
    resolvent = square_class_equal(discriminant(f), discriminant(q))
    _report("criterion 5 (disc f == disc g, literal pair)", literal,
            f"literal comparison: {literal}; resolvent comparison: {resolvent}",
            started)
    assert literal, (
        "disc f == disc g (as stated) is false: disc g is a perfect rational "
        f"square (is_square = {is_square(discriminant(g))}) because the "
        "quadrinomial's coefficient is itself a square and every element of "
        "the edge group is even on the 24 roots; the sign linkage lives on "
        "the degree-12 resolvent q with g(X) = q(X^2), and disc f == disc q "
        f"holds ({resolvent}) with both in the class 7c. "
        "See notes/decisions.md for the full analysis."
    )


def test_criterion_6_frobenius_type_containment():
    started = time.perf_counter()
    prof_f = scan(rubik_f(), 500, jobs=JOBS, poly_id="f")
    prof_g = scan(rubik_g(), 500, jobs=JOBS, poly_id="g")
    outside_f = types_within(prof_f, predict_wreath_types(3, 8))
    outside_g = types_within(prof_g, predict_wreath_types(2, 12))
    irreducible_f = prof_f.observed_types.get(CycleType((24,)), 0)
    ok = not outside_f and not outside_g and irreducible_f == 0
    _report("criterion 6 (type containment over 500 primes)", ok,
            f"f outside: {len(outside_f)}; g outside: {len(outside_g)}; "
            f"irreducible reductions of f: {irreducible_f}", started)
    assert prof_f.primes_scanned == 500 and prof_g.primes_scanned == 500
    assert outside_f == [] and outside_g == []
    assert irreducible_f == 0


def test_criterion_6_triple_parity_linkage():
    started = time.perf_counter()
    rep = triple_parity_linkage(rubik_f(), professor_h2(), professor_h3(), 200)
    ok = rep.ok and rep.primes_checked == 200
    _report("criterion 6 (triple parity linkage, 200 primes)", ok,
            f"{len(rep.violations)} violations over {rep.primes_checked} primes",
            started)
    assert rep.primes_checked == 200
    assert rep.violations == []


def test_criterion_6_parity_linkage_fg_as_stated():
    """The literal criterion text: parity_linkage(f, g) has zero
    violations.  Expected to FAIL; see the assertion message."""
    started = time.perf_counter()
    literal = parity_linkage(rubik_f(), rubik_g(), 500)
    resolvent = parity_linkage(rubik_f(), rubik_g_resolvent(), 500)
    _report("criterion 6 (parity linkage f-g, literal pair)", literal.ok,
            f"literal violations: {len(literal.violations)}/500; "
            f"resolvent violations: {len(resolvent.violations)}/500", started)
    assert resolvent.ok, "the resolvent linkage itself must hold"
    assert literal.ok, (
        f"parity_linkage(f, g) (as stated) has {len(literal.violations)} "
        "violations out of 500: the g-side Frobenius parity is constantly +1 "
        "(disc g is a perfect square), while f's parity follows the Legendre "
        "symbol of 7c, so disagreement occurs at roughly half the primes. "
        "The linked character of the edge group lives on the degree-12 "
        f"resolvent, where the same test shows {len(resolvent.violations)} "
        "violations over 500 primes. See notes/decisions.md."
    )


def test_criterion_7_symmetric_certification():
    started = time.perf_counter()
    params = derive_parameters()
    targets = {
        "h": revenge_h(),
        "h1_derived": trinomial_poly(params.u1),
        "h2": professor_h2(),
        "h3": professor_h3(),
    }
    results = {}
    for name, poly in targets.items():
        cert = certify_symmetric(poly, 2000)
        results[name] = cert is not None and cert.revalidate(poly)
    ok = all(results.values())
    _report("criterion 7 (symmetric certification within 2000 primes)", ok,
            "; ".join(f"{k}: {'certified' if v else 'inconclusive'}"
                      for k, v in results.items()), started)
    assert all(results.values()), results


def test_criterion_8_cube_invariants():
    started = time.perf_counter()
    m5 = cube_model(5)
    twist_ok = all(orientation_sum(m5, g, "corners") == 0
                   and orientation_sum(m5, g, "central_edges") == 0
                   for g in m5.generators.values())
    span = sign_image(m5)
    m3 = cube_model(3)
    sf = superflip_permutation(m3)
    superflip_ok = (sf.order() == 2
                    and all(sf * g == g * sf for g in m3.generators.values())
                    and m3.group().contains(sf))
    ab = abelianization_order(m3.group())
    ok = twist_ok and len(span) == 4 and superflip_ok and ab == 2
    _report("criterion 8 (cube invariants)", ok,
            f"orientation sums zero: {twist_ok}; sign image order: {len(span)}; "
            f"superflip central of order 2: {superflip_ok}; "
            f"abelianization order: {ab}", started)
    assert twist_ok
    assert len(span) == 4
    assert superflip_ok
    assert ab == 2


def test_criterion_9_oracle_equivalences():
    started = time.perf_counter()
    rng = random.Random(2024)
    trinomial_ok = all(
        trinomial_disc(u) == discriminant(trinomial_poly(u))
        for u in (Fraction(rng.randrange(-60, 60) or 1, rng.randrange(1, 40))
                  for _ in range(50)))

    wreath_ok = True
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 4)):
        observed = {w.to_permutation().cycle_type()
                    for w in enumerate_restricted(n, m)}
        if observed != predict_wreath_types(n, m):
            wreath_ok = False
        if len(enumerate_restricted(n, m)) != restricted_wreath_order(n, m):
            wreath_ok = False

    from cubegal.polymod import PolyFp, ddf_cycle_type
    from reference import oracle_factor_degrees
    checked = 0
    ddf_ok = True
    while checked < 100:
        p = rng.choice([2, 3])
        d = rng.randrange(1, 11)
        f = PolyFp(p, tuple([rng.randrange(p) for _ in range(d)]
                            + [rng.randrange(1, p)]))
        if f.degree < 1:
            continue
        got = ddf_cycle_type(f)
        if got is None:
            continue
        checked += 1
        if got.parts != oracle_factor_degrees(list(f.monic().coeffs), p):
            ddf_ok = False
    ok = trinomial_ok and wreath_ok and ddf_ok
    _report("criterion 9 (oracle equivalences)", ok,
            f"trinomial disc x50: {trinomial_ok}; wreath enumeration x4: "
            f"{wreath_ok}; ddf vs exhaustive x100: {ddf_ok}", started)
    assert trinomial_ok
    assert wreath_ok
    assert ddf_ok
