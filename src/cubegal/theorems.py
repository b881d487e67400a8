"""Named polynomials, derived parameters and the three check suites.

The three suites (rubik / revenge / professor) assemble the exact
discriminant, square-class, coefficient-reproduction, order-arithmetic
and Frobenius-evidence checks for the polynomial families tied to each
cube group.  Every check is reported with a citation naming the claim
it tests and an exact expected/actual pair; an "inconclusive" result is
reported but never fails a suite.

Where a stated coefficient and its derivation disagree (the first
degree-24 factor of the professor family differs by a factor of 24
between the two), both candidates are computed and both results are
emitted; nothing is silently corrected.

The two Rubik factors are built from their constructions.  The dense
factor is

    rubik_f = B^8 * P8(A/B),  P8(Y) = Y^8 - 2139Y + 6489,
    A = X^3 - 3X + 1,  B = X^2 - X.

A/B is Shanks' simplest-cubic map: it is invariant under the order-3
substitution tau(x) = 1/(1 - x), so the 24 roots of f fall into 8
tau-orbits of 3, one over each root of P8.  This decomposition was
found numerically (integer relations among sums of three roots) and is
checked exactly by the tests against the 25 stated coefficients.  The
edge factor is rubik_g(X) = q(X^2) with q = X^12 + cX + c, so g and its
degree-12 companion q come from the one constant c.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import evidence
from .evidence import (certify_symmetric, parity_linkage, predict_wreath_types,
                       scan, triple_parity_linkage, types_within)
from .perm import CycleType
from .polyq import (SHANKS_A, SHANKS_B, PolyQ, compose, discriminant, exact_str,
                    trinomial_disc, trinomial_poly)
from .report import CheckReport
from .sqclass import is_square, square_class_equal
from .structure import (R3_ORDER, R4_ORDER, R5_ORDER, r3_predicted_order,
                        r4_predicted_order, r5_predicted_order)

# ---------------------------------------------------------------------------
# exact constants
# ---------------------------------------------------------------------------

# the 25-digit cofactor whose square class controls every sign linkage
C_COFACTOR = 1437417619559484462138047
TARGET_CLASS = 7 * C_COFACTOR  # 10061923336916391234966329

# the composite constant appearing in the trinomial denominators
Q_FACTORS = ((31, 1), (281, 1), (1201, 1), (70529, 1), (9801219477271, 1))
Q_CONST = math.prod(p ** e for p, e in Q_FACTORS)

Z_PARAM = 14464014796817312400264098
P2_CONST = 195574568093355782014153

P8 = PolyQ.from_coeffs([6489, -2139, 0, 0, 0, 0, 0, 0, 1])  # Y^8 - 2139Y + 6489

# ---------------------------------------------------------------------------
# the degree-24 polynomials
# ---------------------------------------------------------------------------


def rubik_f() -> PolyQ:
    """The dense factor B^8 P8(A/B), Galois group (C3 wr S8)^0."""
    return compose(P8, SHANKS_A, SHANKS_B)


def rubik_g() -> PolyQ:
    """X^24 + c(X^2 + 1) = q(X^2), Galois group (C2 wr S12)^0."""
    return compose(rubik_g_resolvent(), PolyQ.from_coeffs([0, 0, 1]), PolyQ.one())


def rubik_g_resolvent() -> PolyQ:
    """The degree-12 companion q = X^12 + cX + c, with rubik_g(X) = q(X^2).

    The edge group (C2 wr S12)^0 acts on the 24 roots of rubik_g with
    every element even (the flip-sum constraint forces an even number of
    sign-changing block cycles), so disc(rubik_g) is a perfect square and
    carries no sign information.  The linked sign character lives on the
    12 blocks, i.e. on the roots of q: the discriminant condition behind
    the fiber product compares disc(rubik_f) with disc(q)."""
    c = Fraction(3852443469645611961262219752967766016,
                 384257037754753807138505851908147025)
    return PolyQ.from_coeffs([c, c] + [0] * 10 + [1])


def revenge_g_coefficient() -> Fraction:
    """The stated X+1 coefficient of the revenge-family trinomial factor."""
    return Fraction(2 ** 67 * 3 ** 24, 23 ** 23 * Q_CONST)


def revenge_g() -> PolyQ:
    return trinomial_poly(-revenge_g_coefficient())


def revenge_h() -> PolyQ:
    return trinomial_poly(1)  # X^24 - X - 1


def professor_h1_stated_coefficient() -> Fraction:
    return Fraction(2 ** 64 * 3 ** 23, 23 ** 23 * Q_CONST)


def professor_h1_stated() -> PolyQ:
    return trinomial_poly(-professor_h1_stated_coefficient())


def professor_h2() -> PolyQ:
    return trinomial_poly(derive_parameters().u2)


def professor_h3() -> PolyQ:
    return trinomial_poly(derive_parameters().u3)


# ---------------------------------------------------------------------------
# parameter derivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremParameters:
    """The specialization data of the trinomial families, all exact."""

    target_class: int
    q_const: int
    z: int
    p2: int
    t: Fraction
    u1: Fraction
    w: Fraction
    v2: Fraction
    u2: Fraction
    u3: Fraction


def t_of(s) -> Fraction:
    """Trinomial specialization: t(s) = -(24^24/23^23) / (23*7c*s^2 + 1)."""
    s = Fraction(s)
    return Fraction(-(24 ** 24), 23 ** 23) / (23 * TARGET_CLASS * s * s + 1)


def derive_parameters() -> TheoremParameters:
    """Compute every derived parameter and verify the integer identities
    that make the square-class targets work out.

    A failure here signals a transcription bug, not a runtime condition.
    """
    if 23 * TARGET_CLASS + 1 != 32 * Q_CONST:
        raise AssertionError("23*7c + 1 != 32*Q")
    if 16 * Z_PARAM != 32 * Q_CONST:
        raise AssertionError("16z != 32Q (z should be 2Q)")
    r = 1
    if 23 * Z_PARAM - r * r != 3 ** 5 * 7 * P2_CONST:
        raise AssertionError("23z - r^2 != 3^5 * 7 * p2")
    w = Fraction(2 * r, 23 * Z_PARAM - r * r)
    v2 = Z_PARAM * w * w
    lhs = 23 * v2 + 1
    rhs = Fraction(23 * Z_PARAM + r * r, 23 * Z_PARAM - r * r) ** 2
    if lhs != rhs:
        raise AssertionError("23*v2 + 1 is not the expected rational square")
    v1 = 1
    v3 = TARGET_CLASS
    scale = Fraction(24 ** 24, 23 ** 22)
    return TheoremParameters(
        target_class=TARGET_CLASS, q_const=Q_CONST, z=Z_PARAM, p2=P2_CONST,
        t=t_of(1), u1=t_of(v1), w=w, v2=v2,
        u2=v2 * scale, u3=v3 * scale,
    )


def displayed_disc_g(s) -> Fraction:
    """The closed form displayed for disc of the revenge trinomial factor:
    2^1728 3^576 s^2 (s^2 + 1/(23*7c))^-24 / (7^23 23^552 c^23)."""
    s = Fraction(s)
    lead = Fraction(2 ** 1728 * 3 ** 576, 7 ** 23 * 23 ** 552 * C_COFACTOR ** 23)
    return lead * s * s * (s * s + Fraction(1, 23 * TARGET_CLASS)) ** -24


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------


def _run(checks: list[CheckReport], check_id: str, citation: str,
         expected: str, fn) -> CheckReport:
    """Run fn() -> (ok, actual) as one check: ok True passes, False fails
    and None is inconclusive; an exception fails with its message."""
    start = time.perf_counter()
    try:
        ok, actual = fn()
        status = "inconclusive" if ok is None else "pass" if ok else "fail"
    except Exception as exc:  # report, never crash a suite
        status, actual = "fail", f"error: {exc}"
    report = CheckReport(check_id=check_id, status=status, expected=expected,
                         actual=actual, citation=citation,
                         ms=int((time.perf_counter() - start) * 1000))
    checks.append(report)
    return report


def _run_certify(checks: list[CheckReport], check_id: str, citation: str,
                 poly: PolyQ, opts: SuiteOptions) -> None:
    """A symmetric-group certificate check; no certificate within the
    budget is reported as inconclusive, not as a failure."""
    def certify():
        cert = certify_symmetric(poly, opts.certify_budget)
        if cert is None:
            return None, "inconclusive"
        return cert.revalidate(poly), cert.witnesses()
    _run(checks, check_id, citation, "valid certificate", certify)


def _run_order(checks: list[CheckReport], check_id: str, cube: str,
               predicted_order, exact: int) -> None:
    """An order-arithmetic check: the predicted group order against the
    exact digits."""
    def arith():
        predicted = predicted_order()
        return predicted == exact, str(predicted)
    _run(checks, check_id, f"order of the {cube} group, exact digits", str(exact), arith)


def _class_check(a, b, label: str = "square_class_equal"):
    """(ok, text) for a square-class comparison of a and b."""
    ok = square_class_equal(a, b)
    return ok, f"{label} = {ok}"


def _violations(rep: evidence.LinkageReport):
    """(ok, text) for a parity-linkage report; a report over no prime
    at all is inconclusive (ok None), not a pass."""
    ok = rep.ok if rep.primes_checked else None
    return ok, f"{len(rep.violations)} violations over {rep.primes_checked} primes"


@dataclass
class SuiteOptions:
    scan_budget: int = evidence.DEFAULT_SCAN_BUDGET
    certify_budget: int = evidence.DEFAULT_CERTIFY_BUDGET
    jobs: int = 1


# ---------------------------------------------------------------------------
# the three suites
# ---------------------------------------------------------------------------


def verify_rubik(opts: SuiteOptions | None = None) -> list[CheckReport]:
    return _rubik_checks(opts or SuiteOptions(), rubik_f())


def _rubik_checks(opts: SuiteOptions, f: PolyQ) -> list[CheckReport]:
    """The rubik suite on an already built rubik_f, which revenge reuses."""
    checks: list[CheckReport] = []
    g, q = rubik_g(), rubik_g_resolvent()

    _run(checks, "rubik.disc_class_f_equals_g_resolvent",
         "the sign linkage compares disc f with the discriminant of the "
         "degree-12 companion q, g(X) = q(X^2)",
         "disc f == disc q in Q*/(Q*)^2",
         lambda: _class_check(discriminant(f), discriminant(q),
                              "square_class_equal(disc f, disc q)"))

    def disc_pair_literal():
        ok, text = _class_check(discriminant(f), discriminant(g))
        if ok:
            return True, text
        square = is_square(discriminant(g))
        return None, (f"{text}; disc g is "
                      f"{'a perfect square' if square else 'not a square'} "
                      "(every edge-group element is even on the 24 roots), "
                      "so the class comparison that carries content is the "
                      "resolvent check above")
    _run(checks, "rubik.disc_class_f_equals_g_literal",
         "dual check: the same comparison against disc g itself, reported as-is",
         "reported as-is, not auto-corrected", disc_pair_literal)

    _run(checks, "rubik.disc_class_7c",
         f"unique quadratic subfield class 7*{C_COFACTOR}",
         "disc f lies in the class of 7c",
         lambda: _class_check(discriminant(f), TARGET_CLASS,
                              f"square_class_equal(disc f, {TARGET_CLASS})"))

    _run_order(checks, "rubik.fiber_order_n3", "Rubik's Cube", r3_predicted_order, R3_ORDER)

    profiles: dict[str, object] = {}

    def profile(name, poly):
        # lazily scanned so the wall time lands on the check that pays it
        if name not in profiles:
            profiles[name] = scan(poly, opts.scan_budget, jobs=opts.jobs,
                                  poly_id=f"rubik.{name}")
        return profiles[name]

    def types_in_wreath(name, poly, n, m):
        prof = profile(name, poly)
        outside = types_within(prof, predict_wreath_types(n, m))
        return not outside, f"{len(outside)} types outside over {prof.primes_scanned} primes"
    _run(checks, "rubik.types_f_in_wreath_3_8",
         "Frobenius types of f must lie in the (C3 wr S8)^0 type set",
         "0 types outside", lambda: types_in_wreath("f", f, 3, 8))

    def no_24cycle():
        count = profile("f", f).observed_types.get(CycleType((24,)), 0)
        return count == 0, f"{count} irreducible reductions"
    _run(checks, "rubik.f_has_no_irreducible_reduction",
         "a lone 8-block cycle forces twist sum zero, so no 24-cycle exists",
         "0 irreducible reductions", no_24cycle)

    _run(checks, "rubik.types_g_in_wreath_2_12",
         "Frobenius types of g must lie in the (C2 wr S12)^0 type set",
         "0 types outside", lambda: types_in_wreath("g", g, 2, 12))

    _run(checks, "rubik.parity_linkage_f_resolvent",
         "equal discriminant classes force equal Frobenius parities "
         "(f against the degree-12 companion)",
         "0 violations",
         lambda: _violations(parity_linkage(f, q)))

    def linkage_literal():
        ok, text = _violations(parity_linkage(f, g))
        if ok is not False:
            return ok, text
        return None, (f"{text}; the g-side parity is constantly +1 (disc g is "
                      "a square), so this pairing carries no linkage - see "
                      "the resolvent check above")
    _run(checks, "rubik.parity_linkage_fg_literal",
         "dual check: parity linkage against g itself, reported as-is",
         "reported as-is, not auto-corrected", linkage_literal)
    return checks


def verify_revenge(opts: SuiteOptions | None = None) -> list[CheckReport]:
    opts = opts or SuiteOptions()
    f, g = rubik_f(), revenge_g()
    checks = _rubik_checks(opts, f)
    params = derive_parameters()

    def coeff():
        stated = revenge_g_coefficient()
        derived = -params.t
        return derived == stated, exact_str(derived)
    _run(checks, "revenge.g_coefficient_reproduction",
         "the trinomial coefficient 2^67 3^24 / (23^23 * 31*281*1201*70529*9801219477271)",
         exact_str(revenge_g_coefficient()), coeff)

    def disp():
        ok = trinomial_disc(params.t) == displayed_disc_g(1)
        return ok, f"exact equality = {ok}"
    _run(checks, "revenge.disc_g_displayed_value",
         "displayed closed form 2^1728 3^576 s^2 (...)^-24 / (7^23 23^552 c^23) at s=1",
         "trinomial disc equals the displayed value", disp)

    _run(checks, "revenge.disc_g_class_7c",
         f"disc of the trinomial factor must land in the class 7*{C_COFACTOR}",
         "class equals 7c", lambda: _class_check(trinomial_disc(params.t), TARGET_CLASS))

    _run(checks, "revenge.disc_class_f_equals_g",
         "the dense factor and the trinomial factor share the class 7c",
         "disc f == disc g in Q*/(Q*)^2",
         lambda: _class_check(discriminant(f), discriminant(g)))

    _run(checks, "revenge.parity_linkage_fg",
         "equal discriminant classes force equal Frobenius parities",
         "0 violations",
         lambda: _violations(parity_linkage(f, g)))

    _run_order(checks, "revenge.fiber_order_n4", "Revenge Cube", r4_predicted_order, R4_ORDER)

    _run_certify(checks, "revenge.certify_h_symmetric",
                 "X^24 - X - 1 must have the full symmetric Galois group",
                 revenge_h(), opts)
    return checks


def verify_professor(opts: SuiteOptions | None = None) -> list[CheckReport]:
    opts = opts or SuiteOptions()
    checks: list[CheckReport] = []
    f = rubik_f()
    params = None

    def identities():
        nonlocal params
        params = derive_parameters()  # raises on any failed identity
        return True, "all parameter identities hold"
    report = _run(checks, "professor.parameter_identities",
                  "23*7c+1 = 32Q = 16z; 23z-1 = 3^5*7*p2; 23*v2+1 a rational square",
                  "exact integer/rational identities", identities)
    if report.status == "fail":
        return checks

    def u2_coeff():
        stated = Fraction(2 ** 75 * 3 ** 14 * Q_CONST, 7 ** 2 * 23 ** 22 * P2_CONST ** 2)
        return params.u2 == stated, exact_str(params.u2)
    _run(checks, "professor.u2_coefficient_reproduction",
         "coefficient 2^75 3^14 Q / (7^2 23^22 p2^2) of the second trinomial factor",
         "derived u2 equals the stated value", u2_coeff)

    def u3_coeff():
        stated = Fraction(2 ** 72 * 3 ** 24 * TARGET_CLASS, 23 ** 22)
        return params.u3 == stated, exact_str(params.u3)
    _run(checks, "professor.u3_coefficient_reproduction",
         "coefficient 2^72 3^24 7c / 23^22 of the third trinomial factor",
         "derived u3 equals the stated value", u3_coeff)

    _run(checks, "professor.h1_derived_class_7c",
         "disc of the derived first factor must land in the class 7c",
         "class equals 7c", lambda: _class_check(trinomial_disc(params.u1), TARGET_CLASS))

    def h1_literal():
        u_lit = -professor_h1_stated_coefficient()
        if square_class_equal(trinomial_disc(u_lit), TARGET_CLASS):
            return True, "satisfies the target class"
        # the dual-check policy reports the stated value without failing
        # the suite; the derived variant above is the operative check
        return None, ("does NOT satisfy the target class (differs from the "
                      "derived coefficient by a factor of 24)")
    _run(checks, "professor.h1_literal_class_7c",
         "dual check: the stated first-factor coefficient, reported as-is",
         "reported as-is, not auto-corrected", h1_literal)

    _run(checks, "professor.disc_h2_h3_class_7c",
         "disc h2 * disc h3 must land in the class 7c",
         "class equals 7c",
         lambda: _class_check(trinomial_disc(params.u2) * trinomial_disc(params.u3),
                              TARGET_CLASS))

    _run_order(checks, "professor.fiber_order_n5", "Professor's Cube", r5_predicted_order,
               R5_ORDER)

    h1d, h2, h3 = trinomial_poly(params.u1), professor_h2(), professor_h3()
    for name, poly in (("h1_derived", h1d), ("h2", h2), ("h3", h3)):
        _run_certify(checks, f"professor.certify_{name}_symmetric",
                     "every degree-24 trinomial factor must be full symmetric",
                     poly, opts)

    _run(checks, "professor.parity_linkage_f_h1",
         "f and the derived first factor share the class 7c, forcing linked parities",
         "0 violations",
         lambda: _violations(parity_linkage(f, h1d)))

    _run(checks, "professor.triple_parity_linkage_f_h2_h3",
         "parity of f must equal the parity product of the h2, h3 factors",
         "0 violations",
         lambda: _violations(triple_parity_linkage(f, h2, h3)))
    return checks


_SUITES = {
    "rubik": verify_rubik,
    "revenge": verify_revenge,
    "professor": verify_professor,
}


def verify_theorem(which: str, opts: SuiteOptions | None = None) -> list[CheckReport]:
    """Run one named suite; failures are report entries, never exceptions."""
    try:
        suite = _SUITES[which]
    except KeyError:
        raise ValueError(f"unknown suite {which!r}; pick one of {sorted(_SUITES)}") from None
    return suite(opts)
