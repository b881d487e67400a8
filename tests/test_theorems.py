from fractions import Fraction
from itertools import islice
from math import prod

import pytest

from cubegal.evidence import parity_linkage
from cubegal.polymod import primes
from cubegal.polyq import PolyQ, compose, discriminant, trinomial_disc, trinomial_poly
from cubegal.report import summarize
from cubegal.sqclass import is_square, square_class_equal
from cubegal.theorems import (C_COFACTOR, P2_CONST, Q_CONST, TARGET_CLASS,
                              Z_PARAM, SuiteOptions, derive_parameters,
                              displayed_disc_g, professor_h1_stated,
                              professor_h1_stated_coefficient, professor_h2,
                              professor_h3, revenge_g, revenge_g_coefficient,
                              revenge_h, rubik_f, rubik_g, rubik_g_resolvent,
                              t_of, verify_theorem)
from cubegal.theorems import _run, _violations
from reference import evaluate


def test_constants():
    assert TARGET_CLASS == 7 * C_COFACTOR == 10061923336916391234966329
    assert Q_CONST == 31 * 281 * 1201 * 70529 * 9801219477271
    assert 23 * TARGET_CLASS + 1 == 32 * Q_CONST == 16 * Z_PARAM
    assert Z_PARAM == 2 * Q_CONST
    assert 23 * Z_PARAM - 1 == 3 ** 5 * 7 * P2_CONST


def test_parameter_derivation():
    params = derive_parameters()
    assert params.t == params.u1 == t_of(1)
    assert params.t == Fraction(-(2 ** 67) * 3 ** 24, 23 ** 23 * Q_CONST)
    assert params.w == Fraction(2, 23 * Z_PARAM - 1)
    assert params.v2 == Z_PARAM * params.w ** 2
    assert 23 * params.v2 + 1 == Fraction(23 * Z_PARAM + 1, 23 * Z_PARAM - 1) ** 2
    assert is_square(23 * params.v2 + 1)
    assert params.u2 == Fraction(2 ** 75 * 3 ** 14 * Q_CONST,
                                 7 ** 2 * 23 ** 22 * P2_CONST ** 2)
    assert params.u3 == Fraction(2 ** 72 * 3 ** 24 * TARGET_CLASS, 23 ** 22)


def test_revenge_coefficient_reproduction():
    assert -t_of(1) == revenge_g_coefficient()
    g = revenge_g()
    assert g.degree == 24
    assert g.coeffs[0] == g.coeffs[1] == revenge_g_coefficient()


def test_displayed_disc_matches_formula():
    for s in (1, Fraction(3, 5), Fraction(-7, 2)):
        assert trinomial_disc(t_of(s)) == displayed_disc_g(s)


def test_disc_classes():
    params = derive_parameters()
    assert trinomial_disc(1) == -(23 ** 23 + 24 ** 24)
    assert square_class_equal(trinomial_disc(params.u1), TARGET_CLASS)
    assert square_class_equal(trinomial_disc(params.u2) * trinomial_disc(params.u3),
                              TARGET_CLASS)
    assert square_class_equal(discriminant(rubik_f()), TARGET_CLASS)


def test_h1_literal_differs_by_factor_24():
    derived = -derive_parameters().u1
    stated = professor_h1_stated_coefficient()
    assert derived == 24 * stated
    assert not square_class_equal(
        trinomial_disc(-stated), TARGET_CLASS)
    assert professor_h1_stated().coeffs[0] == stated


def test_rubik_f_is_the_stated_polynomial():
    # the 25 stated coefficients, ascending, against the construction B^8 P8(A/B)
    stated = (1, -24, 252, -1504, 5502, -12096, 12880, 6819, -45384, 63686,
              -10107, -114681, 234997, -266679, 199671, -97918, 26628, -627,
              -1484, -168, 252, 8, -24, 0, 1)
    assert rubik_f() == PolyQ.from_coeffs(stated)


def test_rubik_f_is_invariant_under_the_order_3_substitution():
    # tau(x) = 1/(1 - x) leaves A/B fixed, so (1 - X)^24 f(tau X) = f
    f = rubik_f()
    assert compose(f, PolyQ.one(), PolyQ.from_coeffs([1, -1])) == f


def test_rubik_g_is_the_stated_polynomial():
    c = Fraction(3852443469645611961262219752967766016,
                 384257037754753807138505851908147025)
    stated = PolyQ.from_coeffs([c, 0, c] + [0] * 21 + [1])  # X^24 + cX^2 + c
    assert rubik_g() == stated
    assert rubik_g_resolvent() == PolyQ.from_coeffs([c, c] + [0] * 10 + [1])


def test_rubik_g_resolvent_relation():
    g, q = rubik_g(), rubik_g_resolvent()
    assert q.degree == 12
    for x in (0, 1, -2, Fraction(1, 3)):
        assert evaluate(g, x) == evaluate(q, Fraction(x) ** 2)
    # disc g is a perfect square; the resolvent carries the class 7c
    assert is_square(discriminant(g))
    assert square_class_equal(discriminant(q), TARGET_CLASS)
    assert square_class_equal(discriminant(rubik_f()), discriminant(q))


def test_revenge_pair_shares_class():
    assert square_class_equal(discriminant(rubik_f()), discriminant(revenge_g()))


def test_trinomial_factors_are_the_advertised_family():
    params = derive_parameters()
    assert revenge_h() == trinomial_poly(1)
    assert professor_h2() == trinomial_poly(params.u2)
    assert professor_h3() == trinomial_poly(params.u3)


def test_verify_theorem_unknown():
    with pytest.raises(ValueError):
        verify_theorem("megaminx")


def small_opts():
    return SuiteOptions(scan_budget=40, certify_budget=400, jobs=1)


def test_rubik_suite_small_budget():
    checks = verify_theorem("rubik", small_opts())
    by_id = {c.check_id: c for c in checks}
    counts = summarize(checks)
    assert counts["fail"] == 0
    assert by_id["rubik.disc_class_f_equals_g_resolvent"].status == "pass"
    assert by_id["rubik.disc_class_f_equals_g_literal"].status == "inconclusive"
    assert by_id["rubik.parity_linkage_f_resolvent"].status == "pass"
    assert by_id["rubik.parity_linkage_fg_literal"].status == "inconclusive"
    assert by_id["rubik.types_f_in_wreath_3_8"].status == "pass"
    assert all(c.citation for c in checks)
    assert all(c.ms >= 0 for c in checks)


def test_revenge_suite_small_budget():
    checks = verify_theorem("revenge", small_opts())
    by_id = {c.check_id: c for c in checks}
    assert summarize(checks)["fail"] == 0
    assert by_id["revenge.g_coefficient_reproduction"].status == "pass"
    assert by_id["revenge.disc_class_f_equals_g"].status == "pass"
    assert by_id["revenge.parity_linkage_fg"].status == "pass"
    assert by_id["revenge.fiber_order_n4"].status == "pass"
    assert by_id["revenge.certify_h_symmetric"].status == "pass"


def test_professor_suite_small_budget():
    checks = verify_theorem("professor", small_opts())
    by_id = {c.check_id: c for c in checks}
    assert summarize(checks)["fail"] == 0
    assert by_id["professor.parameter_identities"].status == "pass"
    assert by_id["professor.h1_derived_class_7c"].status == "pass"
    assert by_id["professor.h1_literal_class_7c"].status == "inconclusive"
    assert by_id["professor.disc_h2_h3_class_7c"].status == "pass"
    assert by_id["professor.certify_h2_symmetric"].status == "pass"
    assert by_id["professor.certify_h3_symmetric"].status == "pass"
    assert by_id["professor.triple_parity_linkage_f_h2_h3"].status == "pass"


def test_suites_are_idempotent():
    first = verify_theorem("rubik", small_opts())
    second = verify_theorem("rubik", small_opts())
    assert [(c.check_id, c.status, c.expected, c.actual) for c in first] == \
           [(c.check_id, c.status, c.expected, c.actual) for c in second]


# the octic of test_evidence.py: X^8 - X - 1/D, D the product of the
# first 20 primes, so each of them is bad
_BAD_SMALL_PRIMES_OCTIC = PolyQ.from_coeffs([Fraction(-1, prod(islice(primes(), 20))), -1,
                                             0, 0, 0, 0, 0, 0, 1])


def test_linkage_over_no_prime_is_inconclusive():
    # budget 2 allows 20 primes to be examined, all bad for the octic
    checks = []
    report = _run(checks, "x.linkage", "", "0 violations",
                  lambda: _violations(parity_linkage(rubik_f(), _BAD_SMALL_PRIMES_OCTIC, 2)))
    assert report.status == "inconclusive"
    assert report.actual == "0 violations over 0 primes"
