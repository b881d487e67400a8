import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from cubegal.polyq import (PolyQ, compose, discriminant, exact_str, load_poly,
                           poly_from_json, resultant, trinomial_disc, trinomial_poly)
from cubegal.theorems import rubik_f
from reference import evaluate, fraction_compose, poly_to_json, save_poly


def sylvester_resultant(f, g):
    """Independent oracle: Sylvester determinant by exact fraction
    elimination, flipped to the package's root-product convention."""
    n, m = f.degree, g.degree
    size = n + m
    if size == 0:
        return Fraction(1)
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = []
    for i in range(m):
        rows.append([Fraction(0)] * i + list(fc) + [Fraction(0)] * (m - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + list(gc) + [Fraction(0)] * (n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    if (n * m) % 2:
        det = -det
    return det


def random_poly(rng, degree):
    coeffs = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
              for _ in range(degree)]
    coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])))
    return PolyQ.from_coeffs(coeffs)


def test_degree_and_normalization():
    assert PolyQ.from_coeffs([1, 2, 0, 0]).degree == 1
    assert PolyQ.zero().degree == -1
    assert PolyQ.from_coeffs(["1/2", 3]).coeffs == (Fraction(1, 2), Fraction(3))


def test_hash_is_stable_across_construction_and_pickling():
    # polynomials key the discriminant cache, and pool workers receive pickled ones
    f = rubik_f()
    built = [
        PolyQ.from_coeffs([str(c) for c in f.coeffs] + [0, 0]),
        PolyQ(tuple(Fraction(c.numerator * 3, c.denominator * 3) for c in f.coeffs)),
        f + PolyQ.from_coeffs([1, "1/2"]) - PolyQ.from_coeffs([1, "1/2"]),
        pickle.loads(pickle.dumps(f)),
    ]
    cache = {(f, 4409): "type"}
    for g in built:
        assert g == f and hash(g) == hash(f)
        assert cache[g, 4409] == "type"
    # the dataclass hash, so derived poly ids do not change
    assert hash(f) == hash((f.coeffs,))
    assert PolyQ.from_coeffs([1, 2]) != PolyQ.from_coeffs([2, 1])


def test_equality_agrees_with_the_fraction_tuples():
    # __eq__ compares the integer form, num over den; it must decide as the
    # coefficient Fractions do, and pickled copies must carry that form
    rng = random.Random(5)
    pool = [PolyQ.from_coeffs(cs) for cs in (
        [1, 2], [2, 1], [1, 2, 0], ["1/2", 3], ["2/4", "6/2"], ["1/3", 3], ["-1/2", 3],
        [0, "1/2"], [0, "1/3"], ["3/1"], [3], [], [0], [1, 0, "5/7"], [1, 0, "5/6"])]
    for _ in range(150):
        pool.append(PolyQ.from_coeffs(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]))
    f = rubik_f()
    pool += [f, PolyQ.from_coeffs([str(c) for c in f.coeffs]),
             PolyQ(f.coeffs[:-1] + (f.coeffs[-1] * 2,))]
    for p in pool:
        assert p.den == math.lcm(*(c.denominator for c in p.coeffs))
        assert all(Fraction(n, p.den) == c for n, c in zip(p.num, p.coeffs, strict=True))
        for q in pool:
            assert (p == q) is (p.coeffs == q.coeffs)
            assert (p != q) is (p.coeffs != q.coeffs)
            if p == q:
                assert hash(p) == hash(q)
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and hash(copy) == hash(p)
        assert (copy.num, copy.den) == (p.num, p.den)
    assert f != f.coeffs and f != str(f)


def test_degree_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        f = random_poly(rng, rng.randrange(0, 5))
        g = random_poly(rng, rng.randrange(0, 5))
        assert (f * g).degree == f.degree + g.degree


def test_eval_examples():
    h = trinomial_poly(1)  # X^24 - X - 1
    assert evaluate(h, 0) == -1
    rng = random.Random(4)
    for _ in range(10):
        f = random_poly(rng, 6)
        assert evaluate(f, 0) == f.coeffs[0]


def test_eval_dense_factor_at_one_is_coefficient_sum():
    f = rubik_f()
    assert evaluate(f, 1) == sum(f.coeffs)


def test_compose_is_the_homogenized_substitution():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    def polys(min_size):
        return st.lists(st.integers(-5, 5), min_size=min_size, max_size=6).map(PolyQ.from_coeffs)

    @settings(derandomize=True, database=None, max_examples=200)
    @given(polys(0), polys(0), polys(1).filter(lambda b: not b.is_zero),
           st.fractions(-10, 10, max_denominator=10))
    def check(p, a, b, x):
        assume(evaluate(b, x) != 0)
        want = evaluate(b, x) ** p.degree * evaluate(p, evaluate(a, x) / evaluate(b, x))
        assert evaluate(compose(p, a, b), x) == want
        assert compose(p, PolyQ.from_coeffs([0, 1]), PolyQ.one()) == p

    check()


def test_compose_equals_the_fraction_horner():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # built from integer pairs: st.fractions draws about four times slower
    fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    polys = st.lists(fractions, max_size=7).map(PolyQ.from_coeffs)

    @settings(derandomize=True, database=None, max_examples=300)
    @given(polys, polys, polys)
    def check(p, a, b):
        assert compose(p, a, b) == fraction_compose(p, a, b)

    check()


def test_resultant_convention_linear():
    # res(X - a, X - b) = b - a under the documented convention
    f = PolyQ.from_coeffs([-2, 1])
    g = PolyQ.from_coeffs([-5, 1])
    assert resultant(f, g) == 3


def test_resultant_examples():
    assert resultant(PolyQ.from_coeffs([1, 0, 1]), PolyQ.from_coeffs([-1, 0, 1])) == 4
    f = PolyQ.from_coeffs([1, 2, 3])
    assert resultant(f, f) == 0


def test_resultant_zero_poly_rejected():
    with pytest.raises(ValueError):
        resultant(PolyQ.zero(), PolyQ.one())


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(42)
    for _ in range(150):
        f = random_poly(rng, rng.randrange(0, 6))
        g = random_poly(rng, rng.randrange(0, 6))
        assert resultant(f, g) == sylvester_resultant(f, g)


def test_resultant_detects_common_root():
    common = PolyQ.from_coeffs([-3, 1])  # X - 3
    f = common * PolyQ.from_coeffs([1, 1])
    g = common * PolyQ.from_coeffs([2, 0, 1])
    assert resultant(f, g) == 0


def test_discriminant_quadratic():
    for b, c in [(0, -1), (3, 2), (-5, 7), (0, 1)]:
        f = PolyQ.from_coeffs([c, b, 1])
        assert discriminant(f) == b * b - 4 * c
    assert discriminant(PolyQ.from_coeffs([-1, 0, 1])) == 4


def test_discriminant_constant_rejected():
    with pytest.raises(ValueError):
        discriminant(PolyQ.one())


def test_discriminant_product_identity():
    # disc(fg) = disc(f) disc(g) res(f, g)^2
    rng = random.Random(77)
    trials = 0
    while trials < 25:
        f = random_poly(rng, rng.randrange(1, 5))
        g = random_poly(rng, rng.randrange(1, 5))
        if resultant(f, g) == 0 or discriminant(f) == 0 or discriminant(g) == 0:
            continue
        trials += 1
        assert discriminant(f * g) == (discriminant(f) * discriminant(g)
                                       * resultant(f, g) ** 2)


def test_trinomial_disc_at_one():
    assert trinomial_disc(1) == -(23 ** 23 + 24 ** 24)


def test_trinomial_disc_matches_resultant_path():
    rng = random.Random(100)
    for _ in range(50):
        u = Fraction(rng.randrange(-40, 40) or 1, rng.randrange(1, 25))
        assert trinomial_disc(u) == discriminant(trinomial_poly(u))


def test_trinomial_zero_rejected():
    with pytest.raises(ValueError):
        trinomial_disc(0)
    with pytest.raises(ValueError):
        trinomial_poly(0)


def test_named_polynomials_separable():
    from cubegal.theorems import (professor_h2, professor_h3, revenge_g,
                                  revenge_h, rubik_g)
    for poly in (rubik_f(), rubik_g(), revenge_g(), revenge_h(),
                 professor_h2(), professor_h3()):
        assert discriminant(poly) != 0


def test_json_round_trip(tmp_path):
    f = PolyQ.from_coeffs([Fraction(1, 2), -3, Fraction(7, 5), 1])
    doc = poly_to_json(f)
    assert doc["degree"] == 3
    assert poly_from_json(doc) == f
    path = tmp_path / "poly.json"
    save_poly(f, path)
    assert load_poly(path) == f
    # exact round trip through the serialized text as well
    reparsed = poly_from_json(json.loads(json.dumps(doc)))
    assert reparsed == f


def test_exact_text_has_no_digit_cap():
    # past str(int)'s default cap of 4,300 digits
    digits = "1" + "0" * 4999 + "1"
    assert exact_str(Fraction(10 ** 5000 + 1, 3)) == digits + "/3"
    assert exact_str(Fraction(-(10 ** 5000 + 1), 3)) == "-" + digits + "/3"
    doc = poly_to_json(PolyQ.from_coeffs([7 * 10 ** 4999, 1]))
    assert doc["coefficients"] == ["7" + "0" * 4999, "1"]


def test_json_round_trip_past_the_digit_limit(tmp_path):
    # save_poly writes any length; poly_from_json must read it all back
    f = PolyQ.from_coeffs([Fraction(-(10 ** 4999 + 7), 3), 1])
    path = tmp_path / "long.json"
    save_poly(f, path)
    assert load_poly(path) == f


@pytest.mark.parametrize("text", ["1e5", "NaN", "1_0", "1.5", " 3", "3/-4", "/3", "3/", "", "\u0663"])
def test_json_coefficient_must_be_exact_digits(text):
    # only what exact_str writes: digits, a sign on the numerator, one "/"
    with pytest.raises(ValueError, match="bad coefficient"):
        poly_from_json({"degree": 1, "coefficients": [text, "1"]})


def test_json_degree_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError):
        poly_from_json({"degree": 2, "coefficients": ["1", "1"]})


def test_discriminants_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from cubegal.theorems import rubik_g, rubik_g_resolvent

    x = sympy.symbols("x")

    def to_sympy(poly):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(poly.coeffs))

    for poly in (rubik_f(), rubik_g(), rubik_g_resolvent(),
                 trinomial_poly(Fraction(3, 7))):
        mine = discriminant(poly)
        theirs = sympy.Rational(sympy.discriminant(to_sympy(poly), x))
        assert theirs == sympy.Rational(mine.numerator, mine.denominator)
