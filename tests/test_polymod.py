import itertools
import math
import random
from fractions import Fraction

import pytest

from cubegal import polymod, theorems
from cubegal.perm import CycleType
from cubegal.polymod import (PolyFp, _Residues, _settle, ddf_cycle_type, frobenius_sign,
                             frobenius_type, is_prime, powmod, primes, reduce_mod_p)
from cubegal.polyq import SHANKS_A, SHANKS_B, PolyQ, compose, discriminant, trinomial_poly
from cubegal.theorems import professor_h2
from reference import (legendre, oracle_factor_degrees, poly_deriv, poly_gcd, reference_ddf,
                       reference_reduction, schoolbook_mul, schoolbook_row)

# the named polynomials of the theorem suites, h1 both as derived and as stated
NAMED_POLYNOMIALS = {
    "rubik_f": theorems.rubik_f,
    "rubik_g": theorems.rubik_g,
    "rubik_g_resolvent": theorems.rubik_g_resolvent,
    "revenge_g": theorems.revenge_g,
    "revenge_h": theorems.revenge_h,
    "professor_h1_derived": lambda: trinomial_poly(theorems.derive_parameters().u1),
    "professor_h1_stated": theorems.professor_h1_stated,
    "professor_h2": theorems.professor_h2,
    "professor_h3": theorems.professor_h3,
}
SHANKS_CUBIC = PolyQ.from_coeffs([1, -3, 0, 1])
# disc 0: (X^3 - 3X + 1)^2 is bad at every prime
NON_SEPARABLE = {"shanks_cubic_squared": lambda: SHANKS_CUBIC * SHANKS_CUBIC}


def test_is_prime():
    assert [n for n in range(2, 40) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not is_prime(1)
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 32 + 1)


# psi_k, the least strong pseudoprime to each of the first k prime bases
# (OEIS A014233), k = 1..13, each with its factorization
PSI = (
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
    (3317044064679887385961981, (1287836182261, 2575672364521)),
)
PSI_12, PSI_13 = PSI[11][0], PSI[12][0]


def strong_probable_prime(n, a):
    """The Miller-Rabin test of odd n > 2 to the base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1 for i in range(1, r))


def test_is_prime_agrees_with_a_sieve():
    n = 2 * 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n, i)))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


@pytest.mark.parametrize("k", range(1, 13))
def test_is_prime_refuses_the_least_strong_pseudoprimes(k):
    # psi_k passes the test to its first k bases, so only base k + 1 or a
    # later one can show it composite
    psi, factors = PSI[k - 1]
    bases = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    assert math.prod(factors) == psi
    assert all(strong_probable_prime(psi, a) for a in bases[:k])
    assert not is_prime(psi)
    assert all(is_prime(f) for f in factors)


def test_is_prime_raises_past_its_witness_set():
    # psi13 passes all 13 bases; nothing at or above it is decided
    assert all(strong_probable_prime(PSI_13, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
    for n in (PSI_13, PSI_13 + 1, 2 ** 100):
        with pytest.raises(ValueError):
            is_prime(n)
    assert not is_prime(PSI_13 - 1)  # decided: even


def test_prime_stream_deterministic():
    first = list(itertools.islice(primes(), 12))
    assert first == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_reduce_integer_coefficients():
    h = trinomial_poly(1)
    reduced = reduce_mod_p(h, 5)
    assert reduced.p == 5
    assert reduced.coeffs[0] == 4 and reduced.coeffs[1] == 4
    assert reduced.degree == 24


def test_reduce_bad_prime_denominator():
    f = PolyQ.from_coeffs([Fraction(1, 23 ** 23), 0, 1])
    assert reduce_mod_p(f, 23) is None
    assert reduce_mod_p(f, 5) is not None


def test_reduce_bad_prime_leading():
    f = PolyQ.from_coeffs([1, 1, 7])
    assert reduce_mod_p(f, 7) is None


def test_reduce_requires_prime():
    with pytest.raises(ValueError):
        reduce_mod_p(trinomial_poly(1), 6)


def test_h2_bad_at_seven():
    # the second professor factor has 7^2 in its coefficient denominator
    h2 = professor_h2()
    assert any(c.denominator % 49 == 0 for c in h2.coeffs)
    assert reduce_mod_p(h2, 7) is None


def test_ddf_examples():
    assert ddf_cycle_type(PolyFp(2, (1, 1, 1))) == CycleType((2,))
    assert ddf_cycle_type(PolyFp(2, (1, 0, 1))) is None  # (X+1)^2
    h2 = reduce_mod_p(trinomial_poly(1), 2)
    # frozen from the exhaustive trial-division oracle below
    assert ddf_cycle_type(h2) == CycleType((21, 3))
    assert oracle_factor_degrees(list(h2.monic().coeffs), 2) == (21, 3)


def test_ddf_zero_and_constant_rejected():
    with pytest.raises(ValueError):
        ddf_cycle_type(PolyFp(3, ()))
    with pytest.raises(ValueError):
        ddf_cycle_type(PolyFp(3, (2,)))


def test_ddf_against_exhaustive_factorization():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        p = rng.choice([2, 3])
        d = rng.randrange(1, 11)
        coeffs = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        f = PolyFp(p, tuple(coeffs))
        if f.degree < 1:
            continue
        got = ddf_cycle_type(f)
        if got is None:
            continue
        checked += 1
        assert got.parts == oracle_factor_degrees(list(f.monic().coeffs), p)


def test_ddf_parts_sum_to_degree():
    rng = random.Random(9)
    for _ in range(50):
        p = rng.choice([5, 7, 11])
        coeffs = [rng.randrange(p) for _ in range(10)] + [1]
        t = ddf_cycle_type(PolyFp(p, tuple(coeffs)))
        if t is not None:
            assert t.degree == 10


def test_powmod_examples():
    m = reduce_mod_p(trinomial_poly(1), 5)
    x = PolyFp(5, (0, 1))
    assert powmod(x, 1, m) == x
    # X^3 mod X^2+1 over F_3 is -X = 2X
    assert powmod(PolyFp(3, (0, 1)), 3, PolyFp(3, (1, 0, 1))) == PolyFp(3, (0, 2))
    # iterated Frobenius equals one big power
    w1 = powmod(x, 5, m)
    w2 = powmod(w1, 5, m)
    assert w2 == powmod(x, 25, m)


def test_powmod_validation():
    with pytest.raises(ValueError):
        powmod(PolyFp(5, (0, 1)), 2, PolyFp(7, (1, 0, 1)))
    with pytest.raises(ValueError):
        powmod(PolyFp(5, (0, 1)), -1, PolyFp(5, (1, 0, 1)))
    with pytest.raises(ValueError):
        powmod(PolyFp(5, (0, 1)), 2, PolyFp(5, (3,)))


def test_parity_law_against_legendre():
    # Stickelberger/Pellet: type parity = Legendre(disc, p) at odd good primes
    f = trinomial_poly(Fraction(3, 7))
    d = discriminant(f)
    checked = 0
    for p in itertools.islice(primes(), 1, None):
        if checked >= 100:
            break
        t = frobenius_type(f, p)
        if t is None or d.numerator % p == 0:
            continue
        checked += 1
        assert t.parity == legendre(d, p), p
    assert checked == 100


def test_bad_primes_divide_disc_or_denominator():
    for u in (Fraction(1), Fraction(3, 7), Fraction(-5, 12)):
        f = trinomial_poly(u)
        d = discriminant(f)
        for p in itertools.islice(primes(), 40):
            bad = frobenius_type(f, p) is None
            divides = (u.denominator % p == 0 or d.numerator % p == 0
                       or d.denominator % p == 0)
            assert bad == divides, (u, p)


def test_good_prime_type_sums_to_24():
    f = trinomial_poly(1)
    for p in itertools.islice(primes(), 30):
        t = frobenius_type(f, p)
        if t is not None:
            assert t.degree == 24


@pytest.mark.parametrize("name", sorted(NAMED_POLYNOMIALS) + sorted(NON_SEPARABLE))
def test_ddf_matches_reference_on_named_polynomials(name):
    # frobenius_type decides squarefreeness from disc f, ddf_cycle_type by
    # gcd(f, f'); both must agree at every prime, p = 2 and None included
    f = {**NAMED_POLYNOMIALS, **NON_SEPARABLE}[name]()
    good = 0
    for p in itertools.islice(primes(), 150):
        reduced = reduce_mod_p(f, p)
        expected = None if reduced is None else ddf_cycle_type(reduced)
        assert frobenius_type(f, p) == expected, (name, p)
        if reduced is None:
            continue
        assert expected == reference_ddf(reduced.coeffs, p), (name, p)
        good += expected is not None
    if name in NON_SEPARABLE:
        assert discriminant(f) == 0 and good == 0
    else:
        assert good > 100


# the polynomials the parity linkages read signs of, and a cubic whose
# denominator makes 3 a bad prime
SIGNED_POLYNOMIALS = {
    "rubik_f": theorems.rubik_f,
    "rubik_g_resolvent": theorems.rubik_g_resolvent,
    "revenge_g": theorems.revenge_g,
    "revenge_h": theorems.revenge_h,
    "professor_h1_derived": NAMED_POLYNOMIALS["professor_h1_derived"],
    "professor_h2": theorems.professor_h2,
    "professor_h3": theorems.professor_h3,
    "cubic_bad_at_3": lambda: PolyQ.from_coeffs([Fraction(1, 3), 0, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(SIGNED_POLYNOMIALS))
def test_frobenius_sign_is_the_parity_of_the_type(name):
    # bad exactly where the type is, and otherwise its parity, p = 2 included
    f = SIGNED_POLYNOMIALS[name]()
    bad = []
    for p in itertools.islice(primes(), 200):
        t = frobenius_type(f, p)
        assert frobenius_sign(f, p) == (None if t is None else t.parity), (name, p)
        if t is None:
            bad.append(p)
    if name == "cubic_bad_at_3":
        assert 3 in bad


# p = 3 divides only a non-leading denominator; 7 the leading numerator
# and no denominator; 3 and 2 two denominators, as 1/p and 1/p^2 (and 3
# and 7 the leading numerator 21 over 4); then p divides disc f = 81, 49,
# -23, 20 and 5, the last with 2 dividing the denominator
REDUCTION_CASES = [PolyQ.from_coeffs(cs) for cs in (
    [1, "2/3", 0, 1], [1, 1, 0, 7], ["1/3", 1, "2/9", 1], ["1/2", 3, "21/4"],
    [1, -3, 0, 1], [7, -7, 0, 1], [1, -1, 0, 1], [-5, 0, 1], ["-5/4", 0, 1])]


def test_reductions_agree_with_the_fraction_oracle():
    # goodness from f's integer form must be the per-Fraction rule: the
    # reduction is defined and of full degree, and squarefree by gcd(f, f')
    rng = random.Random(11)
    pool = REDUCTION_CASES + [f() for f in NAMED_POLYNOMIALS.values()]
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                  for _ in range(rng.randint(2, 5))]
        coeffs[-1] = coeffs[-1] or Fraction(1)
        pool.append(PolyQ.from_coeffs(coeffs))
    for f in pool:
        for p in itertools.takewhile(lambda p: p < 200, primes()):
            residues = reference_reduction(f, p)
            got = reduce_mod_p(f, p)
            assert (None if got is None else got.coeffs) == residues, (f, p)
            good = residues is not None
            if good:
                good = len(poly_gcd(residues, poly_deriv(residues, p), p)) == 1
            assert (frobenius_type(f, p) is not None) is good, (f, p)
            assert (frobenius_sign(f, p) is not None) is good, (f, p)


def test_frobenius_builds_no_reduced_polynomial(monkeypatch):
    # types and signs read the integer form, not a PolyFp, p = 2 included
    def refuse(*args):
        raise AssertionError("a PolyFp was built")
    monkeypatch.setattr(polymod, "PolyFp", refuse)
    for f in (theorems.rubik_f(), theorems.rubik_g(), professor_h2()):
        for p in itertools.islice(primes(), 200):
            t = frobenius_type(f, p)
            assert frobenius_sign(f, p) == (None if t is None else t.parity), p


@pytest.mark.parametrize("name", sorted(SIGNED_POLYNOMIALS))
def test_frobenius_sign_matches_sympy_factor_count(name):
    # an independent oracle: the sign is (-1)^(n - r), r the number of
    # irreducible factors that sympy finds mod p
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = SIGNED_POLYNOMIALS[name]()
    good = 0
    for p in primes():
        sign = frobenius_sign(f, p)
        if sign is None:
            continue
        residues = reduce_mod_p(f, p).coeffs
        _, factors = sympy.Poly(residues[::-1], x, modulus=p).factor_list()
        assert all(mult == 1 for _, mult in factors), (name, p)
        assert sign == (-1) ** (f.degree - len(factors)), (name, p)
        good += 1
        if good == 30:
            break


def test_frobenius_sign_at_two_is_the_checked_type_parity(monkeypatch):
    # X^24 - X - 1 is squarefree mod 2, of type 21.3: even.  At p = 2 no
    # Legendre symbol applies, so the sign comes from the type and shares
    # frobenius_type's check of the gcd against disc f mod 2
    h = theorems.revenge_h()
    assert frobenius_sign(h, 2) == CycleType((21, 3)).parity == 1
    assert frobenius_sign(theorems.rubik_f(), 2) is frobenius_type(theorems.rubik_f(), 2) is None
    monkeypatch.setattr(polymod, "discriminant", lambda f: 2 * discriminant(f))
    with pytest.raises(ArithmeticError, match="degree-24 polynomial at p=2"):
        frobenius_sign(h, 2)


@pytest.mark.parametrize("mutate", [
    lambda parts: parts[1:],  # one factor dropped
    lambda parts: (parts[0] - 1, 1) + parts[1:],  # one factor split in two
], ids=["drop", "split"])
def test_frobenius_type_refuses_a_type_that_contradicts_stickelberger(monkeypatch, mutate):
    # at p = 5 revenge_h's type is 9.8.7, so a split changes the parity
    h = theorems.revenge_h()
    assert frobenius_type(h, 5) == CycleType((9, 8, 7))
    ddf = polymod._ddf
    monkeypatch.setattr(polymod, "_ddf", lambda f, p: CycleType(mutate(ddf(f, p).parts)))
    with pytest.raises(ArithmeticError, match="degree-24 polynomial at p=5"):
        frobenius_type(h, 5)


def test_frobenius_type_checks_the_gcd_against_disc_at_two(monkeypatch):
    # X^24 - X - 1 is squarefree mod 2; a disc that claims otherwise is caught
    h = theorems.revenge_h()
    assert frobenius_type(h, 2) == CycleType((21, 3))
    monkeypatch.setattr(polymod, "discriminant", lambda f: 2 * discriminant(f))
    with pytest.raises(ArithmeticError, match="degree-24 polynomial at p=2"):
        frobenius_type(h, 2)


@pytest.mark.parametrize("p", [5, 4409])
@pytest.mark.parametrize("degrees", [(5, 7), (5, 5), (6, 6, 7), (9, 11)],
                         ids=lambda degrees: ".".join(map(str, degrees)))
def test_ddf_early_stop_against_sympy(p, degrees):
    # each product's degrees fall in one DDF batch, 5..8 or 9..12; the
    # settle rule may record (5, 5) without a gcd, but as two factors, not
    # one of degree 10, and must refine 12 = 5 + 7 = 6 + 6 by gcds
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(f"{p}:{degrees}")
    factors: list[list[int]] = []
    for d in degrees:
        while True:
            g = [rng.randrange(p) for _ in range(d)] + [1]
            if g not in factors and sympy.Poly(g[::-1], x, modulus=p).is_irreducible:
                factors.append(g)
                break
    product = [1]
    for g in factors:
        product = schoolbook_mul(product, g, p)
    f = PolyFp(p, tuple(product))
    assert ddf_cycle_type(f) == CycleType(degrees)
    _, found = sympy.Poly(product[::-1], x, modulus=p).factor_list()
    assert sorted(g.degree() for g, _ in found) == sorted(degrees)


def multisets(k, lo, hi):
    """Every multiset of parts in lo..hi that sums to k, largest part first,
    by depth-first search."""
    if k == 0:
        return [()]
    return [(part,) + rest for part in range(min(k, hi), lo - 1, -1)
            for rest in multisets(k - part, lo, part)]


def test_settle_rule_against_enumeration():
    for lo in range(1, 13):
        for hi in range(lo, 13):
            for k in range(25):
                found = multisets(k, lo, hi)
                assert _settle(k, lo, hi) == (found[0] if len(found) == 1 else None), (k, lo, hi)


@pytest.mark.parametrize("name", ["revenge_h", "rubik_g", "rubik_f"])
@pytest.mark.parametrize("p", [13, 1087, 4409, 2 ** 31 - 1])
def test_fold_rows_are_the_powers_of_x(name, p):
    # a trinomial and q(X^2) take most rows as shifts, rubik_f few
    f = list(reduce_mod_p(NAMED_POLYNOMIALS[name](), p).monic().coeffs)
    residues = _Residues(f, p)
    assert len(residues.rows) == len(f) - 1
    for k, row in enumerate(residues.rows):
        assert residues.unpack_mod(row) == schoolbook_row(f, k, p), (name, p, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 23, 4409, 20011, 2 ** 31 - 1])
def test_ddf_against_sympy_factor_list(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(p)
    for degree in (1, 2, 3, 5, 8, 12, 17, 24):
        while True:  # until a squarefree draw; the others must come back None
            f = PolyFp(p, tuple([rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]))
            _, factors = sympy.Poly(f.coeffs[::-1], x, modulus=p).factor_list()
            if any(mult > 1 for _, mult in factors):
                assert ddf_cycle_type(f) is None, (p, f.coeffs)
                continue
            assert ddf_cycle_type(f) == CycleType(tuple(g.degree() for g, _ in factors)), (p, f.coeffs)
            break


def test_legendre_requires_an_odd_prime():
    assert legendre(2, 7) == 1 and legendre(3, 7) == -1
    for bad in (2, 9, 1, 0, -7):
        with pytest.raises(ValueError):
            legendre(5, bad)


# -- Frobenius types through block quotients ------------------------------------


def scan_keys(f, budget=500):
    """The first `budget` primes good for f, as a scan draws them."""
    return list(itertools.islice((p for p in primes() if frobenius_type(f, p) is not None), budget))


@pytest.mark.parametrize("name", ["rubik_f", "rubik_g"])
def test_block_quotient_types_equal_the_plain_ddf_at_every_scan_key(name):
    # rubik_f takes its base's DDF at p = 1 mod 3 and rubik_g at every odd
    # prime; a wrong twist in the Shanks case keeps the sign, so only this
    # equality can see it there
    f = NAMED_POLYNOMIALS[name]()
    keys = scan_keys(f)
    lifted = [p for p in keys if polymod._block_type(f, p) is not None]
    for p in keys:
        assert frobenius_type(f, p) == polymod._ddf(polymod._monic(f, p), p), (name, p)
    assert lifted == [p for p in keys if p % 3 == 1 or name == "rubik_g" and p > 2]
    assert len(keys) == 500 and len(lifted) > 240


def test_cover_finds_the_block_structures_and_only_them():
    assert polymod._cover(theorems.rubik_f()) == (theorems.P8, 3)
    assert polymod._cover(theorems.rubik_g()) == (theorems.rubik_g_resolvent(), 2)
    for name in ("revenge_h", "revenge_g", "professor_h2", "professor_h3"):
        assert polymod._cover(NAMED_POLYNOMIALS[name]()) is None, name


def test_a_perturbed_corner_polynomial_is_covered_and_agrees_with_the_plain_ddf():
    # Y^8 - 2139Y + 6490 breaks rubik_f's index-3 identity, not its blocks
    base = PolyQ.from_coeffs([6490, -2139, 0, 0, 0, 0, 0, 0, 1])
    f = compose(base, SHANKS_A, SHANKS_B)
    assert polymod._cover(f) == (base, 3)
    lifted = 0
    for p in scan_keys(f, 200):
        assert frobenius_type(f, p) == polymod._ddf(polymod._monic(f, p), p), p
        lifted += polymod._block_type(f, p) is not None
    assert lifted > 80


def test_cover_refuses_near_misses():
    # odd coefficients, a root at 0, and a Shanks filter passed by a
    # polynomial that is no composition
    assert polymod._cover(PolyQ.from_coeffs([1, 1, 1])) is None
    assert polymod._cover(PolyQ.from_coeffs([0, 0, 1, 0, 1])) is None
    shanks = compose(PolyQ.from_coeffs([5, 3, 1]), SHANKS_A, SHANKS_B)
    assert polymod._cover(shanks) == (PolyQ.from_coeffs([5, 3, 1]), 3)
    near = PolyQ.from_coeffs([c + (k == 3) - (k == 4) for k, c in enumerate(shanks.coeffs)])
    assert polymod._cover(near) is None


@pytest.mark.parametrize("p", [1, 4, 9, 15, 561])
def test_public_frobenius_functions_refuse_a_composite_p(p):
    for f in (theorems.rubik_g(), theorems.revenge_h()):
        with pytest.raises(ValueError, match="not prime"):
            frobenius_type(f, p)
        with pytest.raises(ValueError, match="not prime"):
            frobenius_sign(f, p)


def test_frobenius_type_refuses_a_flipped_twist_of_q_of_x_squared(monkeypatch):
    # at p = 19 q is irreducible and its one block untwisted, so rubik_g's
    # type is 12.12; the flipped twist, 24, has the other parity
    g = theorems.rubik_g()
    assert frobenius_type(g, 19) == CycleType((12, 12))
    ddf, covers = polymod._ddf, []

    def flipped(f, p, *cover):
        covers.append(cover[0] if cover else 1)
        t = ddf(f, p, *cover)
        return CycleType((24,)) if cover and t == CycleType((12, 12)) else t
    monkeypatch.setattr(polymod, "_ddf", flipped)
    with pytest.raises(ArithmeticError, match="degree-24 polynomial at p=19"):
        frobenius_type(g, 19)
    assert covers == [2]
