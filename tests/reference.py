"""Models and helpers that only the tests use: no cubegal command runs
them.  The tests check the package against them, and the acceptance gate
checks the paper's structural claims with them."""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations as iter_permutations, product
from math import factorial

from cubegal.bsgs import PermutationGroup
from cubegal.cubes import _TWISTED, StickerModel, cube_model, piece_coordinates
from cubegal.perm import IDENT256, CycleType, Permutation
from cubegal.polymod import is_prime
from cubegal.polyq import PolyQ, exact_str


def identity(degree: int) -> Permutation:
    """The identity permutation of {1..degree}."""
    if degree < 1:
        raise ValueError("degree must be positive")
    return Permutation(range(1, degree + 1))


def is_identity(p: Permutation) -> bool:
    """Whether p fixes every point."""
    return p == identity(p.degree)


def _find(parent, a):
    """Root of a in the union-find forest `parent`, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def orbits(gens, degree: int | None = None) -> list[frozenset[int]]:
    """Finest partition of {1..N} closed under all generators,
    as frozensets sorted by least element."""
    gens = list(gens)
    if degree is None:
        if not gens:
            raise ValueError("degree required when the generator list is empty")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("degree mismatch")
    parent = list(range(degree))
    for g in gens:
        for i, x in enumerate(g.raw):
            ra, rb = _find(parent, i), _find(parent, x)
            if ra != rb:
                parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for i in range(degree):
        groups.setdefault(_find(parent, i), []).append(i + 1)
    return sorted((frozenset(v) for v in groups.values()), key=min)


def block_system(gens, points, seed_pair) -> list[frozenset[int]] | None:
    """Smallest invariant partition of `points` with `seed_pair` in one block.

    `points` must be closed under every generator (usually an orbit).
    Returns None when the closure collapses to a single block covering
    all of `points` (for a transitive action this means primitivity was
    not broken by the seed).
    """
    pts = frozenset(points)
    a0, b0 = seed_pair
    if a0 not in pts or b0 not in pts:
        raise ValueError("seed points outside the given point set")
    gens = list(gens)
    for g in gens:
        if any(g(a) not in pts for a in pts):
            raise ValueError("generators do not preserve the point set")
    parent = {a: a for a in pts}
    stack = [(a0, b0)]
    while stack:
        a, b = stack.pop()
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        parent[ra] = rb
        for g in gens:
            stack.append((g(a), g(b)))
    blocks: dict[int, list[int]] = {}
    for a in pts:
        blocks.setdefault(_find(parent, a), []).append(a)
    if len(blocks) == 1:
        return None
    return sorted((frozenset(v) for v in blocks.values()), key=min)


_PR_SLOTS = 10
_PR_BURNIN = 60


class ProductReplacementSampler:
    """Seedable random-element stream over a fixed generating set.

    Ten accumulator slots and sixty burn-in steps; the parameters favor
    reproducibility over theoretical mixing guarantees.
    """

    def __init__(self, generators, seed: int):
        gens = list(generators)
        if not gens:
            raise ValueError("empty generator list")
        self._slots = [gens[i % len(gens)]._img for i in range(_PR_SLOTS)]
        self._rng = random.Random(seed)
        for _ in range(_PR_BURNIN):
            self._step()

    def _step(self) -> bytes:
        rng = self._rng
        k = len(self._slots)
        i = rng.randrange(k)
        j = rng.randrange(k - 1)
        if j >= i:
            j += 1
        a, b = self._slots[i], self._slots[j]
        if rng.random() < 0.5:
            b = bytes.maketrans(b, IDENT256)
        self._slots[i] = b.translate(a) if rng.random() < 0.5 else a.translate(b)
        return self._slots[i]


def random_elements(generators, seed: int):
    """The `ProductReplacementSampler` stream over generators, as
    permutations; draw from it with next()."""
    gens = list(generators)
    sampler = ProductReplacementSampler(gens, seed)
    while True:
        yield Permutation._wrap(sampler._step(), gens[0].degree)


def copy_model(model: StickerModel, **changes) -> StickerModel:
    """A copy of model with the named constructor fields replaced; the
    copy has caches of its own and holds no group yet."""
    fields = {"size": model.size, "degree": model.degree, "generators": model.generators,
              "classes": model.classes, "blocks": model.blocks,
              "source_text": model.source_text}
    fields.update(changes)
    return StickerModel(**fields)


def with_cycle(model: StickerModel, name: str, cycle) -> StickerModel:
    """A copy of model whose generator `name` is composed with one extra
    cycle of stickers; it caches no group."""
    gens = dict(model.generators)
    gens[name] = gens[name] * Permutation.from_cycles([cycle], model.degree)
    return copy_model(model, generators=gens)


def induced_cubie_perm(model: StickerModel, p: Permutation, class_name: str) -> Permutation:
    """Permutation induced on the physical pieces of one class."""
    return piece_coordinates(model, p, class_name)[0]


def orientation_sum(model: StickerModel, p: Permutation, class_name: str) -> int:
    """Total twist of p on a class, mod the block size (3 for corners,
    2 for central edges), relative to the stored reference markings."""
    if class_name not in _TWISTED:
        raise ValueError("orientation is defined for corners and central edges")
    _, offsets = piece_coordinates(model, p, class_name)
    return sum(offsets) % len(model.blocks[class_name][0])


def sign_vector(model: StickerModel, p: Permutation) -> tuple[int, ...]:
    """Signs of the induced piece permutations, one per class in the
    model's canonical class order."""
    return tuple(induced_cubie_perm(model, p, name).sign()
                 for name in model.class_order)


def evaluate(f: PolyQ, x) -> Fraction:
    """f(x), exactly, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class WreathElement:
    """An element (x, sigma) of C_n wr S_m: twist vector plus base
    permutation, multiplied by (x, s)(x', s') = (x + s.x', s s') where
    (s.x')_i = x'_{s^-1(i)}."""

    modulus: int
    twists: tuple[int, ...]
    perm: Permutation

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("twist modulus must be at least 2")
        if len(self.twists) != self.perm.degree:
            raise ValueError("twist vector length must match the permutation degree")
        object.__setattr__(self, "twists",
                           tuple(t % self.modulus for t in self.twists))

    @classmethod
    def identity(cls, n: int, m: int) -> "WreathElement":
        return cls(n, (0,) * m, identity(m))

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if self.modulus != other.modulus:
            raise ValueError("twist modulus mismatch")
        inv = self.perm.inverse()
        moved = tuple(other.twists[inv(i + 1) - 1] for i in range(len(self.twists)))
        twists = tuple(a + b for a, b in zip(self.twists, moved))
        return WreathElement(self.modulus, twists, self.perm * other.perm)

    def inverse(self) -> "WreathElement":
        inv = self.perm.inverse()
        twists = tuple(-self.twists[self.perm(i + 1) - 1] for i in range(len(self.twists)))
        return WreathElement(self.modulus, twists, inv)

    @property
    def twist_sum(self) -> int:
        return sum(self.twists) % self.modulus

    @property
    def in_restricted(self) -> bool:
        """Membership in the kernel of (x, sigma) -> sum(x)."""
        return self.twist_sum == 0

    def to_permutation(self) -> Permutation:
        """Imprimitive action on n*m points: block b, slot s sits at
        point (b-1)*n + s + 1 and maps to (sigma(b), s + x_{sigma(b)})."""
        n, m = self.modulus, self.perm.degree
        images = [0] * (n * m)
        for b in range(1, m + 1):
            target = self.perm(b)
            twist = self.twists[target - 1]
            for s in range(n):
                images[(b - 1) * n + s] = (target - 1) * n + (s + twist) % n + 1
        return Permutation(images)


def enumerate_restricted(n: int, m: int) -> list[WreathElement]:
    """All elements of (C_n wr S_m)^0; for brute-force cross-checks only."""
    if n ** m * factorial(m) > 10 ** 6:
        raise ValueError("enumeration domain too large")
    out = []
    for images in iter_permutations(range(1, m + 1)):
        sigma = Permutation(list(images))
        for head in product(range(n), repeat=m - 1):
            tail = (-sum(head)) % n
            out.append(WreathElement(n, head + (tail,), sigma))
    return out


def superflip_abstract() -> tuple[WreathElement, WreathElement]:
    """The central element of the abstract 3x3x3 model: corners
    untouched, every edge flipped in place."""
    return (WreathElement.identity(3, 8),
            WreathElement(2, (1,) * 12, identity(12)))


def commutes_with_all(element: tuple[WreathElement, WreathElement],
                      gens) -> bool:
    a, b = element
    return all(a * ga == ga * a and b * gb == gb * b for ga, gb in gens)


def normal_closure(group: PermutationGroup, seeds,
                   max_generators: int = 256) -> PermutationGroup | None:
    """Smallest subgroup of `group` containing `seeds` and normal in it.

    Returns None ("inconclusive") when the generator count exceeds
    `max_generators`; never returns a wrong group.
    """
    closure_gens: list[Permutation] = []
    seen: set[Permutation] = set()
    for s in seeds:
        if s.degree != group.degree:
            raise ValueError("degree mismatch")
        if not is_identity(s) and s not in seen:
            closure_gens.append(s)
            seen.add(s)
    if not closure_gens:
        return PermutationGroup([identity(group.degree)])
    handle = PermutationGroup(closure_gens)
    while True:
        new: list[Permutation] = []
        for g in group.generators:
            ginv = g.inverse()
            for s in closure_gens:
                conj = ginv * s * g
                if conj not in seen and not handle.contains(conj):
                    new.append(conj)
                    seen.add(conj)
        if not new:
            return handle
        closure_gens.extend(new)
        if len(closure_gens) > max_generators:
            return None
        handle = PermutationGroup(closure_gens)


def abelianization_order(group: PermutationGroup, *,
                         max_generators: int = 256) -> int | None:
    """|G / [G,G]|, with [G,G] the normal closure of the generator
    commutators; None when the closure was inconclusive."""
    gens = group.generators
    commutators = [a.inverse() * b.inverse() * a * b
                   for i, a in enumerate(gens) for b in gens[i + 1:]]
    derived = normal_closure(group, commutators, max_generators=max_generators)
    return None if derived is None else group.order() // derived.order()


@dataclass(frozen=True)
class ConfigTuple:
    """Piece-level description of a 5x5x5 sticker arrangement.

    x: corner twists (Z3, indexed by corner position);
    sigma_c: corner positions; y: central-edge flips (Z2);
    sigma_e: central-edge positions; tau, rho_c, rho_e: the three
    24-point piece classes under the resolved class assignment.
    """

    x: tuple[int, ...]
    sigma_c: Permutation
    y: tuple[int, ...]
    sigma_e: Permutation
    tau: Permutation
    rho_c: Permutation
    rho_e: Permutation

    def __post_init__(self):
        if len(self.x) != 8 or self.sigma_c.degree != 8:
            raise ValueError("corner data must live on 8 positions")
        if len(self.y) != 12 or self.sigma_e.degree != 12:
            raise ValueError("central-edge data must live on 12 positions")
        for piece in (self.tau, self.rho_c, self.rho_e):
            if piece.degree != 24:
                raise ValueError("piece permutations must live on 24 positions")
        object.__setattr__(self, "x", tuple(v % 3 for v in self.x))
        object.__setattr__(self, "y", tuple(v % 2 for v in self.y))

    @classmethod
    def initial(cls) -> "ConfigTuple":
        return cls(x=(0,) * 8, sigma_c=identity(8), y=(0,) * 12, sigma_e=identity(12),
                   tau=identity(24), rho_c=identity(24), rho_e=identity(24))


@cache
def sign_assignment(size: int) -> dict:
    """Which 24-piece classes of the 5x5x5 model can play tau /
    (rho_c, rho_e) so that the validity conditions hold literally on
    every generator.

    The statement never names the physical classes, so the assignment is
    computed, not presumed: tau must carry the same sign character as
    the corner and central-edge position permutations, and the remaining
    two classes must multiply to it.  Computed once per model size.
    """
    if size != 5:
        raise ValueError("sign assignment applies to the 5x5x5 model")
    model = cube_model(5)
    order = model.class_order
    vectors = [dict(zip(order, sign_vector(model, g))) for g in model.generators.values()]
    candidates = []
    free = [n for n in order if n not in ("corners", "central_edges")]
    for tau_class in free:
        rest = [n for n in free if n != tau_class]
        ok = all(
            v["corners"] == v["central_edges"] == v[tau_class]
            and v[tau_class] == v[rest[0]] * v[rest[1]]
            for v in vectors
        )
        if ok:
            candidates.append(tau_class)
    resolved = None
    if len(candidates) == 1:
        rest = [n for n in free if n != candidates[0]]
        # rho_c/rho_e are interchangeable in the conditions; fix the
        # center-like class as rho_c for definiteness
        rest.sort(key=lambda n: (n != "plus_centers", n))
        resolved = {"tau": candidates[0], "rho_c": rest[0], "rho_e": rest[1]}
    return {"candidates": candidates, "resolved": resolved}


def decode_config(model: StickerModel, p: Permutation) -> ConfigTuple:
    """Read the piece-level tuple off a sticker permutation (5x5x5)."""
    sigma_c, x = piece_coordinates(model, p, "corners")
    sigma_e, y = piece_coordinates(model, p, "central_edges")
    return ConfigTuple(x=x, sigma_c=sigma_c, y=y, sigma_e=sigma_e,
                       **{role: induced_cubie_perm(model, p, name)
                          for role, name in sign_assignment(model.size)["resolved"].items()})


def _placed(model: StickerModel, placements) -> Permutation:
    """Move block i of each listed class onto block sigma(i), turned by
    that target's offset, as piece_coordinates reads them back."""
    images = list(range(model.degree + 1))  # 1-based scratch table
    for class_name, sigma, offsets in placements:
        blocks = model.blocks[class_name]
        size = len(blocks[0])
        for i, block in enumerate(blocks):
            j = sigma(i + 1) - 1
            target = blocks[j]
            k = offsets[j] % size
            for m in range(size):
                images[block[m]] = target[(k + m) % size]
    return Permutation(images[1:])


def encode_config(model: StickerModel, cfg: ConfigTuple) -> Permutation:
    """Sticker permutation realizing a piece-level tuple (5x5x5).

    Inverse of decode_config on its image; any tuple is encodable
    because pieces move whole and rotate freely at the sticker level -
    validity is a separate question answered by validity_check.
    """
    assignment = sign_assignment(model.size)["resolved"]
    placements = [("corners", cfg.sigma_c, cfg.x), ("central_edges", cfg.sigma_e, cfg.y)]
    placements += [(name, getattr(cfg, role), (0,) * 24) for role, name in assignment.items()]
    return _placed(model, placements)


def validity_check(model: StickerModel, cfg: ConfigTuple, *,
                   cross_check: bool = False) -> tuple[bool, dict[str, bool]]:
    """Evaluate the four validity conditions literally; optionally
    cross-check against sticker-group membership of the encoded tuple."""
    conditions = {
        "corner_twist_sum_zero": sum(cfg.x) % 3 == 0,
        "edge_flip_sum_zero": sum(cfg.y) % 2 == 0,
        "position_signs_linked": (cfg.sigma_c.sign() == cfg.sigma_e.sign()
                                  == cfg.tau.sign()),
        "tau_sign_is_rho_product": cfg.tau.sign() == cfg.rho_c.sign() * cfg.rho_e.sign(),
    }
    valid = all(conditions.values())
    if cross_check:
        conditions["membership_cross_check"] = model.group().contains(
            encode_config(model, cfg))
    return valid, conditions


def superflip_permutation(model: StickerModel) -> Permutation:
    """The 3x3x3 sticker permutation flipping all twelve edges in place."""
    if model.size != 3:
        raise ValueError("the superflip lives in the 3x3x3 model")
    return _placed(model, [("central_edges", identity(12), (1,) * 12)])


def sign_image(model: StickerModel) -> set[tuple[int, ...]]:
    """The image of the sign character: the span of the generators' sign
    vectors, each of order at most 2, under coordinatewise products."""
    span = {(1,) * len(model.class_order)}
    for w in {sign_vector(model, g) for g in model.generators.values()}:
        span |= {tuple(a * b for a, b in zip(v, w)) for v in span}
    return span


def fraction_mod_p(c: Fraction, p: int) -> int | None:
    """The residue of c mod p; None when p divides its denominator."""
    if c.denominator % p == 0:
        return None
    return c.numerator * pow(c.denominator, -1, p) % p


def reference_reduction(f: PolyQ, p: int) -> tuple[int, ...] | None:
    """The residues of f's coefficients mod p, each Fraction reduced on its
    own; None when p divides a denominator or the leading numerator."""
    out = [fraction_mod_p(c, p) for c in f.coeffs]
    return None if None in out or out[-1] == 0 else tuple(out)


def legendre(a: Fraction | int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p and a with p-unit value."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    val = fraction_mod_p(Fraction(a), p)
    if not val:
        raise ValueError("argument is not a p-adic unit")
    return 1 if pow(val, (p - 1) // 2, p) == 1 else -1


# -- polynomials over F_p: coefficient lists, lowest degree first -----------
# Schoolbook arithmetic of its own, so that a fault in `polymod`'s helpers
# cannot break an oracle and the code it checks alike.


def trim(a) -> list[int]:
    """a as a new list, without its zero top coefficients."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def schoolbook_mul(a, b, p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return trim(c % p for c in out)


def poly_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q * b + r and deg r < deg b, by long division; b is
    nonzero mod p."""
    b = trim(c % p for c in b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = trim(c % p for c in a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(r) - len(b) + 1)
    for k in reversed(range(len(q))):
        c = r[k + len(b) - 1] * inv % p
        q[k] = c
        for i, bi in enumerate(b):
            r[k + i] = (r[k + i] - c * bi) % p
    return trim(q), trim(r[:len(b) - 1])


def poly_rem(a, b, p: int) -> list[int]:
    return poly_divmod(a, b, p)[1]


def poly_divexact(a, b, p: int) -> list[int]:
    q, r = poly_divmod(a, b, p)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def poly_gcd(a, b, p: int) -> list[int]:
    """The monic gcd of a and b, by Euclid ([] when both are 0)."""
    a, b = trim(c % p for c in a), trim(c % p for c in b)
    while b:
        a, b = b, poly_rem(a, b, p)
    return monic(a, p) if a else a


def monic(a, p: int) -> list[int]:
    """a, trimmed and nonzero mod p, divided by its leading coefficient."""
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def poly_deriv(a, p: int) -> list[int]:
    return trim([i * c % p for i, c in enumerate(a)][1:])


def reference_powmod(base, e: int, mod, p: int) -> list[int]:
    """base^e mod `mod` by right-to-left square-and-multiply."""
    result = poly_rem([1], mod, p)
    acc = poly_rem(base, mod, p)
    while e:
        if e & 1:
            result = poly_rem(schoolbook_mul(result, acc, p), mod, p)
        e >>= 1
        if e:
            acc = poly_rem(schoolbook_mul(acc, acc, p), mod, p)
    return result


def schoolbook_row(f, k: int, p: int) -> list[int]:
    """X^(n+k) mod f by long division, padded to n coefficients."""
    n = len(f) - 1
    row = poly_rem([0] * (n + k) + [1], f, p)
    return row + [0] * (n - len(row))


def reference_ddf(coeffs, p: int) -> CycleType | None:
    """The irreducible-factor degrees of f = sum coeffs[i] X^i over F_p,
    by distinct-degree factorization with the Berlekamp matrix; None when
    f is not squarefree.

    X^p mod f is computed once, then the rows Q[i] = X^(ip) mod f, i < n.
    Over F_p, w(X)^p = sum w_i X^(ip), so each further Frobenius step
    w = X^(p^(d-1)) -> X^(p^d) is one vector-matrix product w Q.  The
    factors of degree d of f*, the cofactor left once the factors of
    degree < d are removed, are those of gcd(X^(p^d) - X mod f*, f*);
    once 2d exceeds deg f*, f* is irreducible (or 1).
    """
    f = trim(c % p for c in coeffs)
    n = len(f) - 1
    if n < 1:
        raise ValueError("f must have degree at least 1 mod p")
    f = monic(f, p)
    if len(poly_gcd(f, poly_deriv(f, p), p)) != 1:
        return None
    xp = reference_powmod([0, 1], p, f, p)
    rows = [[1]]
    while len(rows) < n:
        rows.append(poly_rem(schoolbook_mul(rows[-1], xp, p), f, p))
    parts: list[int] = []
    fstar, w, d = f, xp, 1
    while 2 * d <= len(fstar) - 1:
        if d > 1:
            acc = [0] * n
            for wi, row in zip(w, rows):
                for j, c in enumerate(row):
                    acc[j] += wi * c
            w = trim(c % p for c in acc)
        delta = poly_rem(w, fstar, p) + [0, 0]
        delta[1] -= 1
        g = poly_gcd(delta, fstar, p)
        if len(g) > 1:
            parts.extend([d] * ((len(g) - 1) // d))
            fstar = poly_divexact(fstar, g, p)
        d += 1
    if len(fstar) > 1:
        parts.append(len(fstar) - 1)
    return CycleType(tuple(parts))


def oracle_factor_degrees(coeffs, p: int) -> tuple[int, ...]:
    """The irreducible-factor degrees of monic f over F_p, largest first,
    by exhaustive trial division by monic polynomials in graded order."""
    f = trim(coeffs)
    out = []
    while len(f) > 1:
        divisor = next((list(tail) + [1] for d in range(1, (len(f) - 1) // 2 + 1)
                        for tail in product(range(p), repeat=d)
                        if not poly_rem(f, list(tail) + [1], p)), f)
        out.append(len(divisor) - 1)
        f = poly_divexact(f, divisor, p)
    return tuple(sorted(out, reverse=True))


# -- R = F_p[W]/(W^2 - W + 1): pairs (x, y) for x + yW ----------------------
# F_(p^2) at p = 2 mod 3, F_p x F_p at p = 1 mod 3.  The cubes come from
# cubing every unit, so no character or power rule is assumed.


def r_mul(a, b, p: int) -> tuple[int, int]:
    """(a0 + a1 W)(b0 + b1 W), expanded, with W^2 replaced by W - 1."""
    a0, a1 = a
    b0, b1 = b
    c0, c1, c2 = a0 * b0, a0 * b1 + a1 * b0, a1 * b1
    return (c0 - c2) % p, (c1 + c2) % p


def r_conjugate(a, p: int) -> tuple[int, int]:
    """sigma(x + yW) = x + y(1 - W), W -> 1 - W the other root."""
    x, y = a
    return (x + y) % p, -y % p


def r_evaluate(coeffs, a, p: int) -> tuple[int, int]:
    """sum coeffs[i] a^i in R, power by power."""
    total, power = (0, 0), (1, 0)
    for c in coeffs:
        total = ((total[0] + c * power[0]) % p, (total[1] + c * power[1]) % p)
        power = r_mul(power, a, p)
    return total


@cache
def r_units_and_cubes(p: int) -> tuple[frozenset, frozenset]:
    """The units of R, the x + yW with an inverse among the p^2 pairs, and
    the set of their cubes."""
    pairs = [(x, y) for x in range(p) for y in range(p)]
    units = frozenset(a for a in pairs if any(r_mul(a, b, p) == (1, 0) for b in pairs))
    return units, frozenset(r_mul(r_mul(a, a, p), a, p) for a in units)


def poly_to_json(f: PolyQ) -> dict:
    """{"degree": n, "coefficients": [...]} with exact decimal strings."""
    return {"degree": f.degree, "coefficients": [exact_str(c) for c in f.coeffs]}


def save_poly(f: PolyQ, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(poly_to_json(f), fh, indent=1)
        fh.write("\n")
