import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import prod

import pytest

from cubegal.evidence import (LinkageReport, certify_symmetric, parity_linkage,
                              predict_wreath_types, scan, triple_parity_linkage,
                              types_within)
from cubegal.perm import CycleType
from cubegal.polymod import primes
from cubegal.polyq import PolyQ, discriminant, trinomial_poly
from cubegal.theorems import (revenge_h, rubik_f, rubik_g, rubik_g_resolvent)
from reference import enumerate_restricted, evaluate
from test_polymod import PSI_12, PSI_13


def test_predict_validation():
    with pytest.raises(ValueError):
        predict_wreath_types(4, 3)


def test_predict_n3_m1_only_trivial():
    assert predict_wreath_types(3, 1) == frozenset({CycleType((1, 1, 1))})


def test_predict_small_cases_against_enumeration():
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 4)):
        predicted = predict_wreath_types(n, m)
        observed = {w.to_permutation().cycle_type() for w in enumerate_restricted(n, m)}
        assert observed == predicted, (n, m)


def test_predict_excludes_lone_twist():
    types38 = predict_wreath_types(3, 8)
    assert CycleType((24,)) not in types38  # a lone 8-cycle cannot carry twist
    assert CycleType((8, 8, 8)) in types38


def test_predict_n2_types_are_all_even():
    # the flip-sum constraint forces an even number of twisted cycles,
    # so every element of (C2 wr S12)^0 is even on the 24 points - this
    # is why the quadrinomial's discriminant is a perfect square
    assert all(t.parity == 1 for t in predict_wreath_types(2, 12))


def test_scan_quadratic():
    profile = scan(PolyQ.from_coeffs([1, 0, 1]), 3)
    assert profile.primes_scanned == 3
    assert set(profile.observed_types) <= {CycleType((2,)), CycleType((1, 1))}


def test_scan_records_bad_primes():
    profile = scan(PolyQ.from_coeffs([Fraction(1, 3), 0, 0, 1]), 10)
    assert 3 in profile.bad_primes


def test_scan_profile_invariants():
    profile = scan(trinomial_poly(1), 60)
    assert sum(profile.observed_types.values()) == profile.primes_scanned == 60
    assert len(profile.parity_history) == 60
    types = list(profile.types_by_prime.values())
    assert [t.parity for t in types] == profile.parity_history
    assert all(t.degree == 24 for t in types)


def test_scan_insufficient_good_primes():
    # (X+1)^2 is ramified at every prime, so no good prime ever appears
    with pytest.raises(ValueError):
        scan(PolyQ.from_coeffs([1, 2, 1]), 10)


def test_s24_scan_has_many_distinct_types():
    from cubegal.evidence import MIN_DISTINCT_TYPES_S24
    profile = scan(revenge_h(), 500, poly_id="h")
    assert profile.distinct_types() >= MIN_DISTINCT_TYPES_S24


def test_types_within_wreath_sets():
    prof_f = scan(rubik_f(), 120, poly_id="f")
    assert types_within(prof_f, predict_wreath_types(3, 8)) == []
    assert prof_f.observed_types.get(CycleType((24,)), 0) == 0
    prof_g = scan(rubik_g(), 120, poly_id="g")
    assert types_within(prof_g, predict_wreath_types(2, 12)) == []


def test_square_disc_forces_even_parities():
    # degree-6 polynomial with a perfect-square discriminant:
    # disc(h1 h2) = disc h1 disc h2 res^2 with h2 a shift of h1
    h1 = PolyQ.from_coeffs([-1, -1, 0, 1])          # X^3 - X - 1
    h2 = PolyQ.from_coeffs([-1, 2, -3, 1])           # h1(X - 1)
    assert evaluate(h2, 2) == evaluate(h1, 1)
    f = h1 * h2
    from cubegal.sqclass import is_square
    assert is_square(discriminant(f))
    profile = scan(f, 80, poly_id="square-disc-sextic")
    assert all(s == 1 for s in profile.parity_history)


def test_certify_symmetric_for_h():
    cert = certify_symmetric(revenge_h(), 2000)
    assert cert is not None
    assert cert.revalidate(revenge_h())


def test_certificate_witnesses_have_stated_types():
    from cubegal.polymod import frobenius_type
    h = revenge_h()
    cert = certify_symmetric(h, 2000)
    assert frobenius_type(h, cert.transitive_prime).parts == (24,)
    assert frobenius_type(h, cert.primitive_prime).parts == (23, 1)
    t = frobenius_type(h, cert.jordan_prime)
    q = cert.jordan_cycle
    assert t.parts.count(q) == 1
    assert all(part == q or part % q for part in t.parts)


def test_jordan_witness_takes_primes_above_47():
    from cubegal.evidence import _jordan_witness
    t = CycleType((53,) + (1,) * 7)
    assert _jordan_witness(t, 60) == 53
    assert _jordan_witness(t, 60, q=53) == 53
    assert _jordan_witness(t, 55) is None  # 53 > n - 3


def test_certify_inconclusive_for_wreath_structured_poly():
    # no irreducible reduction exists, so the transitivity witness never
    # appears; keep the budget small to bound the search
    assert certify_symmetric(rubik_f(), 60) is None


def test_certify_square_disc_short_circuits():
    # degree-8 polynomial with square discriminant: a quartic times its
    # own shift, disc(q * q(X-1)) = disc(q)^2 * res^2
    from cubegal.polyq import resultant
    from cubegal.sqclass import is_square
    q = PolyQ.from_coeffs([-1, -1, 0, 0, 1])        # X^4 - X - 1
    shifted = PolyQ.from_coeffs([1, -5, 6, -4, 1])  # q(X - 1)
    assert all(evaluate(shifted, x) == evaluate(q, x - 1) for x in range(-3, 4))
    assert resultant(q, shifted) != 0
    f = q * shifted
    assert f.degree == 8
    assert is_square(discriminant(f))
    assert certify_symmetric(f, 50) is None


def test_certify_revalidation_rejects_tampering():
    h = revenge_h()
    cert = certify_symmetric(h, 2000)
    from dataclasses import replace
    tampered = replace(cert, transitive_prime=cert.primitive_prime)
    assert not tampered.revalidate(h)
    # explicit Jordan witnesses must meet the search's own conditions: at
    # p = 31 the type is 23.1, but 23 > n - 3; at p = 5 it is 9.8.7, and 9
    # is not prime
    assert not replace(cert, jordan_prime=31, jordan_cycle=23).revalidate(h)
    assert not replace(cert, jordan_prime=5, jordan_cycle=9).revalidate(h)
    # a witness that is not a prime is no witness, and revalidation says so:
    # psi12, the least strong pseudoprime to the bases 2..37, included, and
    # psi13, past what the deterministic primality test decides
    for field in ("transitive_prime", "primitive_prime", "jordan_prime"):
        for not_prime in (9, 1, -5, PSI_12, PSI_13):
            assert not replace(cert, **{field: not_prime}).revalidate(h), (field, not_prime)
    # a witness that is not an int is no witness either, and never a traceback
    for field, value in (("transitive_prime", str(cert.transitive_prime)),
                         ("jordan_prime", None), ("jordan_cycle", str(cert.jordan_cycle))):
        assert not replace(cert, **{field: value}).revalidate(h), (field, value)


def test_parity_linkage_reflexive():
    f = rubik_f()
    report = parity_linkage(f, f, 40)
    assert report.ok
    assert report.primes_checked == 40


def test_parity_linkage_resolvent_pair():
    report = parity_linkage(rubik_f(), rubik_g_resolvent(), 120)
    assert report.ok


def test_parity_linkage_detects_class_mismatch():
    # disc f sits in the class 7c; disc(X^24 - X - 1) does not, so some
    # prime witnesses the difference
    from cubegal.polymod import frobenius_type
    report = parity_linkage(rubik_f(), revenge_h(), 120)
    assert not report.ok
    p, sf, sh = report.violations[0]
    assert sf != sh and {sf, sh} == {1, -1}
    # the signs are the parities of the full types at that prime
    assert (frobenius_type(rubik_f(), p).parity, frobenius_type(revenge_h(), p).parity) == (sf, sh)


def test_triple_parity_linkage_structure():
    f = rubik_f()
    # (f, f, square-disc companion): parity(f) = parity(f) * (+1)
    h1 = PolyQ.from_coeffs([-1, -1, 0, 1])
    shifted = PolyQ.from_coeffs([-1, 2, -3, 1])
    square_disc = h1 * shifted
    report = triple_parity_linkage(f, f, square_disc, 50)
    assert report.ok


def test_triple_parity_linkage_detects_mismatch():
    from cubegal.theorems import professor_h2
    report = triple_parity_linkage(rubik_f(), professor_h2(), revenge_h(), 60)
    assert not report.ok


def test_linkages_factor_nothing_at_odd_primes(monkeypatch):
    # a linkage reads each sign from disc f mod p by Euler's criterion; only
    # p = 2, where no Legendre symbol applies, needs the factor degrees
    from cubegal import polymod
    from cubegal.theorems import professor_h2, professor_h3
    ddf, factored = polymod._ddf, []

    def only_at_two(f, p):
        factored.append(p)
        return ddf(f, p)
    monkeypatch.setattr(polymod, "_ddf", only_at_two)
    assert parity_linkage(rubik_f(), rubik_g_resolvent(), 120).ok
    assert triple_parity_linkage(revenge_h(), professor_h2(), professor_h3(), 60).primes_checked == 60
    assert set(factored) <= {2}


def test_linkage_requires_separable():
    double_root = PolyQ.from_coeffs([1, 2, 1])
    with pytest.raises(ValueError):
        parity_linkage(double_root, rubik_f(), 10)


# -- the shared prime stream ---------------------------------------------------


def _evidence_of_all_four(jobs):
    cubic = PolyQ.from_coeffs([Fraction(1, 3), 0, 0, 1])    # disc -3, bad at 3
    other = PolyQ.from_coeffs([-1, -1, 0, 1])               # disc -23
    third = PolyQ.from_coeffs([-2, 0, 0, 1])                # disc -108
    return (
        scan(cubic, 150, jobs=jobs, poly_id="cubic"),
        certify_symmetric(trinomial_poly(1), 400),
        parity_linkage(cubic, other, 150),
        triple_parity_linkage(cubic, other, third, 150),
    )


@pytest.fixture
def pools(monkeypatch):
    """(started, stopped): the worker pools the evidence layer starts and
    shuts down during the test, in order."""
    from cubegal import evidence
    started, stopped = [], []

    class Pool(evidence.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(self)
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            stopped.append(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(evidence, "ProcessPoolExecutor", Pool)
    return started, stopped


def test_stream_jobs_1_and_2_agree(pools):
    serial = _evidence_of_all_four(1)
    profile, cert, pair, triple = serial
    assert 3 in profile.bad_primes and len(profile.types_by_prime) == 150
    assert cert is not None  # found well inside the budget: an early exit
    assert pair.violations and triple.violations
    assert all(len(v) == 3 for v in pair.violations)
    assert all(len(v) == 4 for v in triple.violations)

    started, stopped = pools
    assert not started
    parallel = _evidence_of_all_four(2)
    assert parallel == serial
    # only the scan starts a pool, shut down before it returns; the
    # certificate computes its types in process, and the linkages read signs
    assert len(started) == 1
    assert stopped == started
    cubic, other = PolyQ.from_coeffs([Fraction(1, 3), 0, 0, 1]), PolyQ.from_coeffs([-1, -1, 0, 1])
    assert parity_linkage(cubic, other, 150) == pair
    assert len(started) == 1


def test_pool_has_no_more_workers_than_a_batch_has_tasks(monkeypatch):
    from cubegal import evidence
    sizes = []

    class Pool:
        """Records its size and maps in this process, so no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, keys, chunksize):
            return map(fn, keys)

    monkeypatch.setattr(evidence, "ProcessPoolExecutor", Pool)
    cubic = PolyQ.from_coeffs([Fraction(1, 3), 0, 0, 1])
    for jobs in (10 ** 6, 2):
        scan(cubic, 10, jobs=jobs)
    # a 64-prime batch of one polynomial is 8 map tasks of 8 keys
    assert sizes == [8, 2]


def test_each_scan_starts_and_stops_its_own_pool(pools):
    # no type outlives a call, so a repeated scan computes every type again,
    # through a pool of its own, and gets the same profile
    started, stopped = pools
    f = trinomial_poly(1)
    first = scan(f, 40, jobs=2)
    assert len(started) == 1 and stopped == started
    assert scan(f, 40, jobs=2) == first == scan(f, 40)
    assert len(started) == 2 and stopped == started


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs):
    cubic = PolyQ.from_coeffs([Fraction(1, 3), 0, 0, 1])
    with pytest.raises(ValueError):
        scan(cubic, 10, jobs=jobs)


# -- the stop rule: budget good primes, or 10x the budget examined ------------


# X^8 - X - 1/D with D the product of the first 20 primes: every one of
# them divides a denominator, so each is bad; disc is nonzero, nonsquare
_BAD_SMALL_PRIMES_OCTIC = PolyQ.from_coeffs([Fraction(-1, prod(islice(primes(), 20))), -1,
                                             0, 0, 0, 0, 0, 0, 1])


@pytest.fixture
def drawn(monkeypatch):
    """The primes the evidence layer draws, counted as they are drawn."""
    from cubegal import evidence
    out: list[int] = []
    stream = evidence.primes

    def counted(*args, **kwargs):
        for p in stream(*args, **kwargs):
            out.append(p)
            yield p
    monkeypatch.setattr(evidence, "primes", counted)
    return out


def _good_for_all(polys, p):
    from cubegal.polymod import frobenius_type
    return all(frobenius_type(f, p) is not None for f in polys)


def test_scan_draws_exactly_the_primes_it_examines(drawn):
    cubic = PolyQ.from_coeffs([Fraction(1, 3), 0, 0, 1])
    profile = scan(cubic, 30)
    assert drawn == sorted([*profile.types_by_prime, *profile.bad_primes])
    assert drawn[-1] in profile.types_by_prime


@pytest.mark.parametrize("budget", [1, 25])
def test_linkages_draw_exactly_the_primes_they_examine(drawn, budget):
    cubic = PolyQ.from_coeffs([Fraction(1, 3), 0, 0, 1])
    other = PolyQ.from_coeffs([-1, -1, 0, 1])
    third = PolyQ.from_coeffs([-2, 0, 0, 1])
    for polys, check in (((cubic, other), parity_linkage),
                         ((cubic, other, third), triple_parity_linkage)):
        drawn.clear()
        report = check(*polys, budget)
        assert report.primes_checked == budget
        assert sum(_good_for_all(polys, p) for p in drawn) == budget
        assert _good_for_all(polys, drawn[-1])  # nothing drawn past the last one


def test_stream_gives_up_after_ten_times_the_budget(drawn):
    from cubegal.evidence import _SEARCH_FACTOR
    with pytest.raises(ValueError, match="only 0 good primes"):
        scan(PolyQ.from_coeffs([1, 2, 1]), 10)
    assert len(drawn) == _SEARCH_FACTOR * 10
    drawn.clear()
    report = parity_linkage(rubik_f(), _BAD_SMALL_PRIMES_OCTIC, 2)
    assert report.primes_checked == 0 and len(drawn) == _SEARCH_FACTOR * 2


def test_certify_draws_at_most_ten_times_the_budget(drawn):
    from cubegal.evidence import _SEARCH_FACTOR
    f = _BAD_SMALL_PRIMES_OCTIC
    assert discriminant(f) != 0
    assert certify_symmetric(f, 2) is None
    assert len(drawn) == _SEARCH_FACTOR * 2  # the first 20 primes, all bad
    drawn.clear()
    cert = certify_symmetric(revenge_h(), 2000)
    witnesses = (cert.transitive_prime, cert.primitive_prime, cert.jordan_prime)
    assert drawn[-1] == max(witnesses)  # stops at the last witness


def _evidence_at_the_edges(jobs):
    """Budgets that end inside a 64-prime batch, and searches that hit the
    10x limit, through every consumer of the stream."""
    cubic = PolyQ.from_coeffs([Fraction(1, 3), 0, 0, 1])
    other = PolyQ.from_coeffs([-1, -1, 0, 1])
    third = PolyQ.from_coeffs([-2, 0, 0, 1])
    out = [
        scan(cubic, 100, jobs=jobs),
        parity_linkage(cubic, other, 70),
        triple_parity_linkage(cubic, other, third, 90),
        certify_symmetric(_BAD_SMALL_PRIMES_OCTIC, 2),
        parity_linkage(cubic, _BAD_SMALL_PRIMES_OCTIC, 2),
    ]
    try:
        scan(PolyQ.from_coeffs([1, 2, 1]), 10, jobs=jobs)
    except ValueError as exc:
        out.append(str(exc))
    return out


def test_stop_rule_same_at_jobs_1_and_2():
    serial = _evidence_at_the_edges(1)
    assert serial[-1] == "only 0 good primes within 10x budget"
    assert serial[3] is None and serial[4].primes_checked == 0
    assert _evidence_at_the_edges(2) == serial
