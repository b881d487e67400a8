"""Property tests of the packed F_p[X]/(f) kernel and of long division
against schoolbook oracles."""

from fractions import Fraction
from itertools import zip_longest

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from cubegal import polymod
from cubegal.polymod import (PolyFp, _divexact, _divmod, _Residues, ddf_cycle_type,
                             frobenius_type, is_prime, powmod)
from cubegal.polyq import SHANKS_A, SHANKS_B, PolyQ, compose
from reference import (legendre, poly_rem, reference_ddf, reference_powmod, reference_reduction,
                       schoolbook_mul, schoolbook_row, trim)

DETERMINISTIC = settings(derandomize=True, database=None, max_examples=200)
# tiny, small, benchmark-sized and word-sized primes; 2^31 - 1 needs
# slots wider than 8 bytes
PRIMES = st.sampled_from([2, 3, 5, 7, 23, 4409, 20011, 2 ** 31 - 1])


@st.composite
def modulus_and_residues(draw, count, degrees=st.integers(1, 24)):
    """A prime p, a modulus of degree n over F_p with any nonzero leading
    coefficient, and `count` residues of n coefficients each."""
    p = draw(PRIMES)
    n = draw(degrees)
    residue = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    f = draw(residue) + [draw(st.integers(1, p - 1))]
    return p, f, [draw(residue) for _ in range(count)]


@st.composite
def dividend_and_divisor(draw, min_degree=0):
    """A prime p, a trimmed a over F_p and a trimmed nonzero b over F_p of
    degree at least min_degree."""
    p = draw(st.sampled_from([2, 3, 7, 4409, 2 ** 31 - 1]))
    residues = st.integers(0, p - 1)
    a = trim(draw(st.lists(residues, max_size=30)))
    b = draw(st.lists(residues, min_size=min_degree, max_size=12)) + [draw(st.integers(1, p - 1))]
    return p, a, b


def monic(f, p):
    return list(PolyFp(p, tuple(f)).monic().coeffs)


@DETERMINISTIC
@given(modulus_and_residues(2))
def test_packed_product_matches_schoolbook(case):
    p, f, (a, b) = case
    f = monic(f, p)
    product = _Residues(f, p).mulmod(a, b)
    assert trim(product) == poly_rem(schoolbook_mul(trim(a), trim(b), p), f, p)


@DETERMINISTIC
@given(modulus_and_residues(1), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_powmod_adds_exponents(case, e1, e2):
    p, f, (a,) = case
    fp, ap = PolyFp(p, tuple(f)), PolyFp(p, tuple(a))
    product = schoolbook_mul(list(powmod(ap, e1, fp).coeffs), list(powmod(ap, e2, fp).coeffs), p)
    assert list(powmod(ap, e1 + e2, fp).coeffs) == poly_rem(product, f, p)


@DETERMINISTIC
@given(modulus_and_residues(1), st.integers(0, 40))
def test_powmod_with_any_modulus_matches_schoolbook(case, e):
    # the modulus keeps its drawn leading coefficient, usually not 1
    p, f, (a,) = case
    got = powmod(PolyFp(p, tuple(a)), e, PolyFp(p, tuple(f)))
    assert list(got.coeffs) == reference_powmod(trim(list(a)), e, f, p)


@DETERMINISTIC
@given(modulus_and_residues(0), st.data())
def test_x_power_matches_schoolbook(case, data):
    # the monomial prefix alone (e < n), its edge (n - 1, n), and long tails
    p, f, _ = case
    f = monic(f, p)
    n = len(f) - 1
    e = data.draw(st.one_of(st.integers(0, n - 1), st.sampled_from([n - 1, n, n + 1]),
                            st.integers(0, 10 ** 6)))
    expected = reference_powmod([0, 1], e, f, p)
    assert _Residues(f, p).x_power(e) == expected + [0] * (n - len(expected))


@DETERMINISTIC
@given(modulus_and_residues(0))
def test_fold_rows_of_any_modulus(case):
    p, f, _ = case
    f = monic(f, p)
    residues = _Residues(f, p)
    assert [residues.unpack_mod(row) for row in residues.rows] == \
        [schoolbook_row(f, k, p) for k in range(len(f) - 1)]


@DETERMINISTIC
@given(modulus_and_residues(1))
def test_frobenius_step_is_the_p_th_power(case):
    p, f, (w,) = case
    f = monic(f, p)
    n = len(f) - 1
    if n < 2:
        return  # DDF never applies Q below degree 2
    residues = _Residues(f, p)
    xp = residues.x_power(p)
    step = residues.apply(w, residues.frobenius(xp))
    assert PolyFp(p, tuple(step)) == powmod(PolyFp(p, tuple(w)), p, PolyFp(p, tuple(f)))


@DETERMINISTIC
@given(modulus_and_residues(1, degrees=st.integers(1, 2)), st.integers(0, 10 ** 6))
def test_degree_one_and_two_moduli(case, e):
    p, f, (a,) = case
    got = powmod(PolyFp(p, tuple(a)), e, PolyFp(p, tuple(f)))
    assert list(got.coeffs) == reference_powmod(trim(list(a)), e, f, p)
    assert ddf_cycle_type(PolyFp(p, tuple(f))) == reference_ddf(f, p)


@DETERMINISTIC
@given(dividend_and_divisor())
def test_divmod_is_long_division(case):
    p, a, b = case
    q, r = _divmod(a, b, p)
    assert len(r) < len(b)
    qb = schoolbook_mul(q, b, p)
    assert trim([(x + y) % p for x, y in zip_longest(qb, r, fillvalue=0)]) == a


@DETERMINISTIC
@given(dividend_and_divisor())
def test_divexact_undoes_a_product(case):
    p, a, b = case
    assert _divexact(schoolbook_mul(a, b, p), b, p) == a


@DETERMINISTIC
@given(dividend_and_divisor(min_degree=1))
def test_divexact_refuses_a_remainder(case):
    p, a, b = case
    c = schoolbook_mul(a, b, p) or [0]
    c[0] = (c[0] + 1) % p  # a * b + 1, and deg b >= 1
    with pytest.raises(ArithmeticError):
        _divexact(c, b, p)


@DETERMINISTIC
@given(st.sampled_from([3, 7, 4409, 2 ** 31 - 1]), st.integers(-10 ** 6, 10 ** 6),
       st.integers(1, 10 ** 6))
def test_legendre_of_a_fraction(p, a, b):
    assume(a * b % p)
    assert legendre(Fraction(a, b), p) == legendre(a * b, p)


@st.composite
def block_covers(draw):
    """(f, base, k): f = q(X^2) with q(0) != 0 and k = 2, or
    f = B^m P(A/B), m = 2..4, with Shanks' A and B and k = 3; small
    integer coefficients, the leading one nonzero."""
    k = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 6) if k == 2 else st.integers(2, 4))
    coeffs = st.integers(-30, 30)
    base = draw(st.lists(coeffs, min_size=m, max_size=m)) + [draw(coeffs.filter(bool))]
    if k == 2:
        base[0] = base[0] or 1
        return compose(PolyQ.from_coeffs(base), PolyQ.from_coeffs([0, 0, 1]), PolyQ.one()), base, k
    return compose(PolyQ.from_coeffs(base), SHANKS_A, SHANKS_B), base, k


@DETERMINISTIC
@given(block_covers(), st.sampled_from([p for p in range(300) if is_prime(p)]))
def test_block_quotient_types_match_the_reference_ddf(cover, p):
    # the even case at every odd p, the Shanks case at every p but 3,
    # through F_p at p = 1 mod 3 and through R = F_(p^2) at p = 2 mod 3, p = 2
    # included; a Shanks composition that happens to be even is found as q(X^2)
    f, base, k = cover
    assert polymod._cover(f) in {(PolyQ.from_coeffs(base), k), (PolyQ(f.coeffs[::2]), 2)}
    residues = reference_reduction(f, p)
    expected = None if residues is None else reference_ddf(residues, p)
    assert frobenius_type(f, p) == expected
