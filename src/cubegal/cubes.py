"""Sticker-level models of the 3x3x3, 4x4x4 and 5x5x5 cube groups.

The twelve 5x5x5 face and slice moves are embedded below as static cycle
tables, and the unfolded-net labeling ships as a versioned JSON data
file.  One geometric placement checks and reads both: each net label
sits at the point 2·cell - 4 + n on the surface of the cube [-5, 5]^3,
its cell from the net's fold and n the outward normal of its face.  Every
table must equal the clockwise quarter-turn of its slab on these points,
else the build raises a ValueError that names the move.  The pieces (the
stickers of one cell), the classes (a point's sorted absolute
coordinates) and each piece's marking order (determinants of its
normals) are read off the same points and normals.  `notes/decisions.md`
("The move tables are quarter-turns of the cube") shows that the classes
are then unions of generator orbits and that every move carries pieces
to pieces and marking orders to marking orders.

The 4x4x4 model is the restriction of the same tables to labels <= 96;
the 3x3x3 model is the restriction of the six outer turns to the corner
and central-edge stickers, relabeled 1..48.  `cube_model` builds each
model once per process.

One decoder, `piece_coordinates`, reads how a sticker permutation moves
and turns the pieces of a class: the induced piece permutation, its
sign and the orientation offsets are read off it.  `order_bound` decodes
each generator once per class to prove an upper bound on the group's
order, and `StickerModel.group` hands that bound to the chain
construction, which then proves the exact order without a verification
pass (see `bsgs`).
"""

from __future__ import annotations

import json
from functools import cache
from math import factorial

from .bsgs import PermutationGroup
from .perm import Permutation, parse_cycles, print_cycles
from .structure import restricted_wreath_order

# One permutation per move, cycle notation on the labels 1..144.
# rN/bN/dN/uN/lN/fN turn the right/back/down/up/left/front layer; the
# suffix picks the outer layer (1) or the adjacent inner slice (2).
GENERATOR_TABLES: dict[str, str] = {
    "r1": "(40 88 9 96)(28 76 21 84)(16 64 33 72)(4 52 45 60)(41 5 8 44)"
          "(42 17 7 32)(43 29 6 20)(18 19 31 30)(101 127 104 126)"
          "(98 128 107 125)(124 136 129 144)",
    "r2": "(39 87 10 95)(27 75 22 83)(15 63 34 71)(3 51 46 59)(123 135 130 143)",
    "b1": "(52 53 93 44)(51 65 94 32)(50 77 95 20)(49 89 96 8)(9 12 48 45)"
          "(10 24 47 33)(11 36 46 21)(22 23 35 34)(99 132 108 129)"
          "(102 131 105 130)(109 137 120 128)",
    "b2": "(54 81 43 64)(66 82 31 63)(78 83 19 62)(90 84 7 61)(138 117 127 112)",
    "d1": "(57 60 96 93)(58 72 95 81)(59 84 94 69)(70 71 83 82)(45 89 37 41)"
          "(46 90 38 42)(47 91 39 43)(48 92 40 44)(111 144 120 141)"
          "(114 143 117 142)(108 119 106 107)",
    "d2": "(33 77 25 29)(34 78 26 30)(35 79 27 31)(36 80 28 32)(105 116 103 104)",
    "u1": "(49 52 88 85)(62 63 75 74)(50 64 87 73)(51 76 86 61)(5 1 53 9)"
          "(6 2 54 10)(7 3 55 11)(8 4 56 12)(109 136 118 133)"
          "(112 135 115 134)(98 97 110 99)",
    "u2": "(17 13 65 21)(18 14 66 22)(19 15 67 23)(20 16 68 24)(101 100 113 102)",
    "l1": "(57 48 49 1)(69 36 61 13)(81 24 73 25)(93 12 85 37)(89 53 56 92)"
          "(90 65 55 80)(91 77 54 68)(66 67 79 78)(110 140 119 137)"
          "(113 139 116 138)(132 133 121 141)",
    "l2": "(94 11 86 38)(82 23 74 26)(70 35 62 14)(58 47 50 2)(131 134 122 142)",
    "f1": "(85 5 60 92)(86 17 59 80)(87 29 58 68)(88 41 57 56)(1 4 40 37)"
          "(2 16 39 25)(3 28 38 13)(14 15 27 26)(100 123 103 122)"
          "(97 124 106 121)(118 125 111 140)",
    "f2": "(73 6 72 91)(74 18 71 79)(75 30 70 67)(76 42 69 55)(115 126 114 139)",
}

OUTER_MOVES = ("u1", "d1", "l1", "r1", "f1", "b1")

# net folding: (face, row, col) -> surface cell of the 5x5x5 cube,
# with x rightward, y upward, z toward the viewer (front)
_FOLD = {
    "U": lambda r, c: (c, 4, r),
    "D": lambda r, c: (c, 0, 4 - r),
    "F": lambda r, c: (c, 4 - r, 4),
    "B": lambda r, c: (4 - c, 4 - r, 0),
    "L": lambda r, c: (0, 4 - r, c),
    "R": lambda r, c: (4, 4 - r, 4 - c),
}

# each face's outward unit normal, in the same axes
_NORMAL = {"U": (0, 1, 0), "D": (0, -1, 0), "F": (0, 0, 1),
           "B": (0, 0, -1), "L": (-1, 0, 0), "R": (1, 0, 0)}

# a sticker's piece class from the sorted absolute coordinates of its
# point, which every rotation of the cube keeps
_CLASS_OF = {(4, 4, 5): "corners", (0, 4, 5): "central_edges", (2, 4, 5): "wings",
             (0, 2, 5): "plus_centers", (2, 2, 5): "x_centers"}

CLASS_ORDER = {
    5: ("corners", "central_edges", "wings", "plus_centers", "x_centers"),
    4: ("corners", "wings", "x_centers"),
    3: ("corners", "central_edges"),
}

# the classes whose pieces carry an orientation with a conserved total
_TWISTED = ("corners", "central_edges")


def load_net() -> dict:
    from importlib import resources
    path = resources.files(__package__).joinpath("data/professor_net.json")
    with path.open(encoding="utf-8") as fh:
        net = json.load(fh)
    if net.get("version") != 1:
        raise ValueError("unsupported net data version")
    return net


def _dot(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple[int, int, int]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _det(a, b, c) -> int:
    return _dot(_cross(a, b), c)


def _quarter_turn(v, n) -> tuple[int, int, int]:
    """v turned a quarter clockwise about the unit axis n, seen from the
    tip of n: v x n + (v . n) n."""
    along = _dot(v, n)
    return tuple(x + along * m for x, m in zip(_cross(v, n), n))


class StickerModel:
    """A cube group presented on its stickers, with piece structure.

    `blocks[class]` lists the physical pieces of that class as sticker
    tuples in a marking order read off the stickers' outward normals n:
    for corners, the U/D sticker first, then the cyclic order with
    det(n0, n1, n2) = -1; for central edges, the U/D sticker first, else
    the F/B one; for wings, the order (a, b) with det(na, nb, 2·cell - 4)
    = +1; centers are singletons.  Every move is a proper rotation of its
    slab, so it keeps both determinants and carries each marking order to
    a marking order (twist sums are well defined).  Blocks are listed
    sorted by their least sticker, and the classes in their canonical
    order (`class_order`).  A plain class, not a dataclass, so that
    `order` and `gens` start without importing `dataclasses`.
    """

    def __init__(self, size: int, degree: int, generators: dict[str, Permutation],
                 classes: dict[str, frozenset[int]],
                 blocks: dict[str, tuple[tuple[int, ...], ...]], source_text: dict[str, str]):
        self.size = size
        self.degree = degree
        self.generators = generators
        self.classes = classes
        self.blocks = blocks
        self.source_text = source_text
        # sticker -> index of its block, one map per class, for the decoder
        self._block_index = {name: {s: i for i, block in enumerate(class_blocks) for s in block}
                             for name, class_blocks in blocks.items()}
        self._group: PermutationGroup | None = None

    @property
    def class_order(self) -> tuple[str, ...]:
        return tuple(self.blocks)

    def group(self, seed: int = 1) -> PermutationGroup:
        """The group, built once.  The build is deterministic, so `seed`
        changes nothing; it stays because the micro-benchmark passes one."""
        if self._group is None:
            self._group = PermutationGroup(list(self.generators.values()),
                                           bound=order_bound(self))
        return self._group


def _build_r5() -> StickerModel:
    # each label's cell offset 2·cell - 4 and outward normal; the sticker
    # sits at their sum, on the surface of the cube [-5, 5]^3
    offset: dict[int, tuple[int, int, int]] = {}
    normal: dict[int, tuple[int, int, int]] = {}
    for face, grid in load_net()["faces"].items():
        for r, row in enumerate(grid):
            for c, label in enumerate(row):
                if label is None:
                    continue
                if label in offset:
                    raise ValueError(f"label {label} appears twice in the net")
                offset[label] = tuple(2 * x - 4 for x in _FOLD[face](r, c))
                normal[label] = _NORMAL[face]
    if sorted(offset) != list(range(1, 145)):
        raise ValueError("net labels are not exactly 1..144")
    point = {s: tuple(x + m for x, m in zip(offset[s], normal[s])) for s in range(1, 145)}
    kind = {s: _CLASS_OF.get(tuple(sorted(map(abs, p)))) for s, p in point.items()}
    if None in kind.values():
        raise ValueError("a net label lies off the stickers of the 5x5x5 cube")

    # move rN (and bN, dN, uN, lN, fN) turns the cells N - 1 layers in from
    # the right (back, ...) face, whose offsets o have o . n = 6 - 2N
    label_at = {p: s for s, p in point.items()}
    gens: dict[str, Permutation] = {}
    for name, text in GENERATOR_TABLES.items():
        n, depth = _NORMAL[name[0].upper()], 6 - 2 * int(name[1:])
        try:
            g = parse_cycles(text, 144)
        except ValueError as exc:
            raise ValueError(f"move {name}: {exc}") from None
        for s in range(1, 145):
            turned = label_at[_quarter_turn(point[s], n)] if _dot(offset[s], n) == depth else s
            if g(s) != turned:
                raise ValueError(f"move {name} is not the clockwise quarter-turn of its slab")
        gens[name] = g

    pieces: dict[tuple[int, int, int], list[int]] = {}
    for s in range(1, 145):
        pieces.setdefault(offset[s], []).append(s)
    blocks: dict[str, list[tuple[int, ...]]] = {name: [] for name in CLASS_ORDER[5]}
    for o, piece in pieces.items():
        piece.sort(key=lambda s: (not normal[s][1], not normal[s][2]))  # U/D, F/B, L/R
        name = kind[piece[0]]
        if name == "corners" and _det(*(normal[s] for s in piece)) > 0:
            piece[1], piece[2] = piece[2], piece[1]
        elif name == "wings" and _det(normal[piece[0]], normal[piece[1]], o) < 0:
            piece.reverse()
        blocks[name].append(tuple(piece))

    return StickerModel(
        size=5,
        degree=144,
        generators=gens,
        classes={name: frozenset(s for s in kind if kind[s] == name) for name in CLASS_ORDER[5]},
        blocks={name: tuple(sorted(b, key=min)) for name, b in blocks.items()},
        source_text=dict(GENERATOR_TABLES),
    )


def _restrict(p: Permutation, keep: list[int]) -> Permutation:
    """Action of p on the invariant label subset `keep`, relabeled 1..len."""
    pos = {label: i + 1 for i, label in enumerate(keep)}
    images = []
    for label in keep:
        target = p(label)
        if target not in pos:
            raise ValueError("point set is not invariant")
        images.append(pos[target])
    return Permutation(images)


def _filter_cycles_text(text: str, limit: int) -> str:
    """Drop every cycle whose labels all lie above `limit`, keeping the
    original cycle order and spelling.  A cycle with labels on both sides
    raises ValueError: the labels up to `limit` are then not invariant."""
    out = []
    for chunk in text.split(")"):
        chunk = chunk.strip()
        if not chunk:
            continue
        body = chunk.lstrip("(")
        points = [int(t) for t in body.split()]
        below = [pt <= limit for pt in points]
        if all(below):
            out.append("(" + " ".join(str(pt) for pt in points) + ")")
        elif any(below):
            raise ValueError("point set is not invariant")
    return "".join(out)


def _build_r4() -> StickerModel:
    r5 = cube_model(5)
    source = {name: _filter_cycles_text(text, 96) for name, text in r5.source_text.items()}
    gens = {name: parse_cycles(text, 96) for name, text in source.items()}
    classes = {name: r5.classes[name] for name in CLASS_ORDER[4]}
    if any(max(pts) > 96 for pts in classes.values()):
        raise ValueError("a retained class has labels above 96")
    blocks = {name: r5.blocks[name] for name in CLASS_ORDER[4]}
    return StickerModel(
        size=4, degree=96, generators=gens, classes=classes,
        blocks=blocks, source_text=source,
    )


def _build_r3() -> StickerModel:
    r5 = cube_model(5)
    keep = sorted(r5.classes["corners"] | r5.classes["central_edges"])
    relabel = {label: i + 1 for i, label in enumerate(keep)}
    gens = {name[0]: _restrict(r5.generators[name], keep) for name in OUTER_MOVES}
    classes, blocks = {}, {}
    for name in CLASS_ORDER[3]:
        classes[name] = frozenset(relabel[s] for s in r5.classes[name])
        blocks[name] = tuple(sorted((tuple(relabel[s] for s in b) for b in r5.blocks[name]),
                                    key=min))
    return StickerModel(size=3, degree=48, generators=gens, classes=classes, blocks=blocks,
                        source_text={name: print_cycles(p) for name, p in gens.items()})


@cache
def cube_model(size: int) -> StickerModel:
    """The sticker model of the size x size x size cube, built once per process."""
    builders = {3: _build_r3, 4: _build_r4, 5: _build_r5}
    if size not in builders:
        raise ValueError("cube size must be 3, 4 or 5")
    return builders[size]()


# -- piece coordinates and the order bound ------------------------------------


def piece_coordinates(model: StickerModel, p: Permutation, class_name: str):
    """(induced block permutation, orientation offsets indexed by target
    position) for one piece class.

    offsets[j] is the rotation of the piece now sitting at position j+1,
    measured against the stored marking order (always 0 for centers); the
    image of a block's marking tuple must be a rotation of the target's,
    else the sticker permutation breaks the piece structure (it splits a
    piece or reflects one) and a ValueError is raised.
    """
    blocks = model.blocks[class_name]
    index = model._block_index[class_name]
    size = len(blocks[0])
    images = [0] * len(blocks)
    offsets = [0] * len(blocks)
    for i, block in enumerate(blocks):
        j = index.get(p(block[0]))
        if j is None:
            raise ValueError("permutation does not preserve the class")
        target = blocks[j]
        k = target.index(p(block[0]))
        for m in range(1, size):
            if p(block[m]) != target[(k + m) % size]:
                raise ValueError("permutation does not act as a rotation on a block")
        images[i] = j + 1
        offsets[j] = k
    return Permutation(images), tuple(offsets)


def order_bound(model: StickerModel) -> int | None:
    """An upper bound on the order of the model's group, proved from its
    generators alone, or None when one of the checks below fails.

    The proof, one step per check, is in `notes/decisions.md` ("An upper
    bound on a cube group's order"); its step 6 is `bsgs`'s lower bound.
    Each generator is decoded once per class (`piece_coordinates`), and
    steps 2-5 read that one decoding:

    1. class invariance: the classes' blocks cover the stickers
       1..degree exactly once, and each class has at least two blocks of
       one size;
    2. every generator decodes on every class, so the group acts on a
       class of m blocks of size s inside C_s wr S_m;
    3. on corners and central edges every generator's twist sum (its
       offsets' sum mod s) is 0, so the class group lies in (C_s wr S_m)^0;
    4. on every other class every offset is 0, so the class group lies in
       a copy of S_m;
    5. the generators' sign vectors (the signs of their induced block
       permutations, one per class) span V in F2^k, k the number of
       classes, and the group lies in the sign fiber over V, of index
       2^(k - dim V) in the product of the class groups.
    """
    gens = list(model.generators.values())
    stickers = sorted(s for blocks in model.blocks.values() for block in blocks for s in block)
    if stickers != list(range(1, model.degree + 1)) or any(
            g.degree != model.degree for g in gens):
        return None
    bound = 1
    odd = [0] * len(gens)  # per generator, bit c set when its class-c sign is -1
    try:
        for bit, name in enumerate(model.class_order):
            blocks = model.blocks[name]
            size, count = len(blocks[0]), len(blocks)
            if count < 2 or any(len(block) != size for block in blocks):
                return None
            twisted = name in _TWISTED
            for i, g in enumerate(gens):
                perm, offsets = piece_coordinates(model, g, name)
                if sum(offsets) % size if twisted else any(offsets):
                    return None
                if perm.sign() < 0:
                    odd[i] |= 1 << bit
            bound *= restricted_wreath_order(size, count) if twisted else factorial(count)
    except ValueError:
        return None
    span = {0}
    for bits in odd:
        if bits not in span:
            span |= {x ^ bits for x in span}
    return bound * len(span) // 2 ** len(model.blocks)
