"""Abstract models behind the cube groups: restricted wreath products,
fiber products over sign characters, their order formulas, and the
cross-checks tying them to the sticker groups.  Every fiber product of
the paper is taken over two surjective sign characters, so a fiber
order is half the product of the two orders; no other case is modelled.

The abstract side is exercised through order formulas and small-case
enumeration; the sticker groups carry the heavy verification, because
the structural claims are order-and-character claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations
from itertools import product
from math import factorial

from .bsgs import PermutationGroup, normal_closure
from .cubes import StickerModel, piece_coordinates
from .perm import Permutation


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
        return cls(n, (0,) * m, Permutation.identity(m))

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


def restricted_wreath_order(n: int, m: int) -> int:
    """|(C_n wr S_m)^0| = n^(m-1) * m! (index n in the full wreath product)."""
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    return n ** (m - 1) * factorial(m)


def fiber_order(order_left: int, order_right: int) -> int:
    """Order of a fiber product over two sign characters that are both
    onto {+1,-1}: index 2 in the direct product."""
    return order_left * order_right // 2


R3_ORDER = 43252003274489856000
R4_ORDER = 16972688908618238933770849245964147960401887232000000000
R5_ORDER = 2582636272886959379162819698174683585918088940054237132144778804568925405184000000000000000


def r3_predicted_order() -> int:
    """|(C3 wr S8)^0 x_sign (C2 wr S12)^0|."""
    return fiber_order(restricted_wreath_order(3, 8), restricted_wreath_order(2, 12))


def r4_predicted_order() -> int:
    """|(C3 wr S8)^0 x_sign S24| * |S24| = 3^7 8! (24!)^2 / 2."""
    return fiber_order(restricted_wreath_order(3, 8), factorial(24)) * factorial(24)


def r5_predicted_order() -> int:
    """|R3| * (24!)^3 / 4: two successive index-2 sign fibers over the
    three free 24-piece classes."""
    return r3_predicted_order() * factorial(24) ** 3 // 4


def superflip_abstract() -> tuple[WreathElement, WreathElement]:
    """The central element of the abstract 3x3x3 model: corners
    untouched, every edge flipped in place."""
    return (WreathElement.identity(3, 8),
            WreathElement(2, (1,) * 12, Permutation.identity(12)))


def r3_abstract_generators(model: StickerModel) -> dict[str, tuple[WreathElement, WreathElement]]:
    """Decode the six face turns into abstract pairs ((x, sigma_c), (y, sigma_e)).

    piece_coordinates indexes twists by target position, which matches
    the wreath multiplication law, so decoding is a group homomorphism.
    """
    if model.size != 3:
        raise ValueError("expected the 3x3x3 model")
    out = {}
    for name, g in model.generators.items():
        sigma_c, x = piece_coordinates(model, g, "corners")
        sigma_e, y = piece_coordinates(model, g, "central_edges")
        out[name] = (WreathElement(3, x, sigma_c), WreathElement(2, y, sigma_e))
    return out


def commutes_with_all(element: tuple[WreathElement, WreathElement],
                      gens) -> bool:
    a, b = element
    for ga, gb in gens:
        if not ((a * ga == ga * a) and (b * gb == gb * b)):
            return False
    return True


def derived_subgroup(group: PermutationGroup, *, max_generators: int = 256,
                     seed: int = 1) -> PermutationGroup | None:
    """Normal closure of the generator commutators; None when the
    strong-generator cap is exceeded (inconclusive, never wrong)."""
    gens = group.generators
    commutators = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            commutators.append(gens[i].inverse() * gens[j].inverse() * gens[i] * gens[j])
    return normal_closure(group, commutators, max_generators=max_generators, seed=seed)


def abelianization_order(group: PermutationGroup, *, max_generators: int = 256,
                         seed: int = 1) -> int | None:
    """|G / [G,G]| via the derived subgroup's exact order; None when the
    closure was inconclusive."""
    derived = derived_subgroup(group, max_generators=max_generators, seed=seed)
    if derived is None:
        return None
    return group.order() // derived.order()
