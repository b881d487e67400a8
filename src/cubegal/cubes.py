"""Sticker-level models of the 3x3x3, 4x4x4 and 5x5x5 cube groups.

The twelve 5x5x5 face and slice moves are embedded below as static cycle
tables, integrity-checked by hash: any edit breaks a dedicated test.
The unfolded-net labeling ships as a versioned JSON data file; it is
used only to seed the block structure (which stickers share a physical
piece) and the orientation reference markings.  Sticker classes and
blocks are then validated against the group action itself - every class
must be a union of generator orbits and every block partition must be
invariant - so the embedded data is cross-checked end to end by the
exact group orders.

The 4x4x4 model is the restriction of the same tables to labels <= 96;
the 3x3x3 model is the restriction of the six outer turns to the corner
and central-edge stickers, relabeled 1..48.  `cube_model` builds each
model once per process.

One decoder, `piece_coordinates`, reads how a sticker permutation moves
and turns the pieces of a class; induced piece permutations, sign
vectors, orientation sums and configuration tuples are all read off it,
and `encode_config` places pieces back by the same convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property

from .bsgs import PermutationGroup
from .perm import Permutation, block_system, orbits, parse_cycles, print_cycles

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

# sha256 of the table text in a canonical "name=cycles" form; the
# integrity test recomputes this and any edit to the tables breaks it.
TABLES_SHA256 = "ed885f6174cb8c2ea9ac484db25181600b68028d0c05b7908b4fd045bebe733d"

OUTER_MOVES = ("u1", "d1", "l1", "r1", "f1", "b1")

# label grid position -> piece class, for a 5x5 face
_BORDER = {0, 4}
_CENTRAL_EDGE_POS = {(0, 2), (2, 0), (2, 4), (4, 2)}
_PLUS_POS = {(1, 2), (2, 1), (2, 3), (3, 2)}

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

CLASS_ORDER = {
    5: ("corners", "central_edges", "wings", "plus_centers", "x_centers"),
    4: ("corners", "wings", "x_centers"),
    3: ("corners", "central_edges"),
}

_CLASS_SIZES = {"corners": 24, "central_edges": 24, "wings": 48,
                "plus_centers": 24, "x_centers": 24}

_BLOCK_SIZES = {"corners": 3, "central_edges": 2, "wings": 2,
                "plus_centers": 1, "x_centers": 1}


def canonical_table_text() -> str:
    return "\n".join(f"{name}={cycles}" for name, cycles in GENERATOR_TABLES.items()) + "\n"


def tables_digest() -> str:
    import hashlib  # loads OpenSSL, so only sticker-model builds pay for it
    return hashlib.sha256(canonical_table_text().encode()).hexdigest()


def load_net() -> dict:
    from importlib import resources
    path = resources.files(__package__).joinpath("data/professor_net.json")
    with path.open(encoding="utf-8") as fh:
        net = json.load(fh)
    if net.get("version") != 1:
        raise ValueError("unsupported net data version")
    return net


def _grid_class(r: int, c: int) -> str:
    if r in _BORDER and c in _BORDER:
        return "corners"
    if (r, c) in _CENTRAL_EDGE_POS:
        return "central_edges"
    if r in _BORDER or c in _BORDER:
        return "wings"
    if (r, c) in _PLUS_POS:
        return "plus_centers"
    return "x_centers"


@dataclass
class StickerModel:
    """A cube group presented on its stickers, with piece structure.

    `blocks[class]` lists the physical pieces of that class as ordered
    sticker tuples: for corners, the reference (U/D face) sticker first
    and the remaining two in a propagated rotation order (consistent
    chirality, so twist sums are well defined); for central edges, the
    reference sticker first; for wings, the two chiral sides in orbit
    order; centers are singletons.  Blocks are listed sorted by their
    least sticker.
    """

    size: int
    degree: int
    generators: dict[str, Permutation]
    classes: dict[str, frozenset[int]]
    blocks: dict[str, tuple[tuple[int, ...], ...]]
    source_text: dict[str, str]
    _group_cache: dict = field(default_factory=dict, repr=False)

    @property
    def class_order(self) -> tuple[str, ...]:
        return CLASS_ORDER[self.size]

    def group(self, seed: int = 1) -> PermutationGroup:
        if seed not in self._group_cache:
            self._group_cache[seed] = PermutationGroup(
                list(self.generators.values()), seed=seed)
        return self._group_cache[seed]

    @cached_property
    def _sign_assignment(self) -> dict:
        """resolve_sign_assignment's report, computed on first use."""
        order = self.class_order
        vectors = [sign_vector(self, g) for g in self.generators.values()]
        idx = {name: order.index(name) for name in order}
        candidates = []
        free = [n for n in order if n not in ("corners", "central_edges")]
        for tau_class in free:
            rest = [n for n in free if n != tau_class]
            ok = all(
                v[idx["corners"]] == v[idx["central_edges"]] == v[idx[tau_class]]
                and v[idx[tau_class]] == v[idx[rest[0]]] * v[idx[rest[1]]]
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


def _build_r5() -> StickerModel:
    if tables_digest() != TABLES_SHA256:
        raise RuntimeError("generator tables failed their integrity check")
    gens = {name: parse_cycles(text, 144) for name, text in GENERATOR_TABLES.items()}
    net = load_net()
    faces = net["faces"]

    position: dict[int, tuple[str, int, int]] = {}
    for face, grid in faces.items():
        for r, row in enumerate(grid):
            for c, label in enumerate(row):
                if label is None:
                    continue
                if label in position:
                    raise ValueError(f"label {label} appears twice in the net")
                position[label] = (face, r, c)
    if sorted(position) != list(range(1, 145)):
        raise ValueError("net labels are not exactly 1..144")

    cells: dict[int, tuple[int, int, int]] = {
        label: _FOLD[face](r, c) for label, (face, r, c) in position.items()
    }
    pieces: dict[tuple[int, int, int], list[int]] = {}
    for label, cell in cells.items():
        pieces.setdefault(cell, []).append(label)

    classes: dict[str, set[int]] = {name: set() for name in CLASS_ORDER[5]}
    for label, (_, r, c) in position.items():
        classes[_grid_class(r, c)].add(label)
    for name, expected in _CLASS_SIZES.items():
        if len(classes[name]) != expected:
            raise ValueError(f"class {name} has size {len(classes[name])}, "
                             f"expected {expected}")

    # classes must be unions of generator orbits (the group never mixes
    # piece types; wings split into two chiral orbits inside one class)
    gen_list = list(gens.values())
    gen_orbits = orbits(gen_list, 144)
    for orbit in gen_orbits:
        owners = {name for name, pts in classes.items() if orbit & pts}
        if len(owners) != 1:
            raise ValueError("a generator orbit crosses piece classes")

    geometric = {
        name: sorted((tuple(sorted(stickers)) for cell, stickers in pieces.items()
                      if set(stickers) <= classes[name]), key=lambda b: b[0])
        for name in classes
    }
    for name in classes:
        want = _BLOCK_SIZES[name]
        if any(len(b) != want for b in geometric[name]):
            raise ValueError(f"net geometry gives a wrong {name} block size")
        covered = {s for b in geometric[name] for s in b}
        if covered != classes[name]:
            raise ValueError(f"net geometry does not cover class {name}")

    # confirm the geometric blocks are exactly the group-invariant
    # partition closure seeded by one geometric pair
    for name in ("corners", "central_edges", "wings"):
        seed_block = geometric[name][0]
        closure = block_system(gen_list, classes[name], seed_block[:2])
        if closure is None or sorted(map(sorted, closure)) != [
                sorted(b) for b in geometric[name]]:
            raise ValueError(f"block closure disagrees with the net for {name}")

    ref_faces = net["reference_faces"]
    corner_ref_labels = {label for label, (face, _, _) in position.items()
                         if face in ref_faces["corners"]}
    edge_primary = {label for label, (face, _, _) in position.items()
                    if face in ref_faces["central_edges_primary"]}
    edge_secondary = {label for label, (face, _, _) in position.items()
                      if face in ref_faces["central_edges_secondary"]}

    blocks: dict[str, tuple[tuple[int, ...], ...]] = {}

    blocks["corners"] = _orient_corner_blocks(
        geometric["corners"], corner_ref_labels, gen_list)

    # reference marking per edge: the U/D sticker when the edge touches
    # those faces, else (equator edges) the F/B sticker
    edge_blocks = []
    for b in geometric["central_edges"]:
        refs = [s for s in b if s in edge_primary] or [s for s in b if s in edge_secondary]
        if len(refs) != 1:
            raise ValueError("central edge without a unique reference sticker")
        ref = refs[0]
        other = b[0] if b[1] == ref else b[1]
        edge_blocks.append((ref, other))
    blocks["central_edges"] = tuple(sorted(edge_blocks, key=min))

    wing_orbits = [o for o in gen_orbits if o <= classes["wings"]]
    if len(wing_orbits) != 2:
        raise ValueError("expected exactly two chiral wing orbits")
    side_a = min(wing_orbits, key=min)
    wing_blocks = []
    for b in geometric["wings"]:
        first = [s for s in b if s in side_a]
        if len(first) != 1:
            raise ValueError("wing block does not span both chiral orbits")
        other = b[0] if b[1] == first[0] else b[1]
        wing_blocks.append((first[0], other))
    blocks["wings"] = tuple(sorted(wing_blocks, key=min))

    for name in ("plus_centers", "x_centers"):
        blocks[name] = tuple((s,) for s in sorted(classes[name]))

    return StickerModel(
        size=5,
        degree=144,
        generators=gens,
        classes={k: frozenset(v) for k, v in classes.items()},
        blocks=blocks,
        source_text=dict(GENERATOR_TABLES),
    )


def _orient_corner_blocks(geometric, ref_labels, gen_list):
    """Assign each corner block an ordered sticker triple: reference
    sticker first, then the propagated rotation order.

    The rotation sense is seeded at one root block and pushed through
    the generators; physical moves preserve chirality, so every block
    receives a consistent cyclic order (verified during the walk).
    Flipping the root choice would flip every block simultaneously and
    only negate twist coordinates.
    """
    block_sets = [frozenset(b) for b in geometric]
    index_of = {b: i for i, b in enumerate(block_sets)}
    sticker_block = {s: i for i, b in enumerate(block_sets) for s in b}

    def rotate_to_ref(triple):
        ref = [s for s in triple if s in ref_labels]
        if len(ref) != 1:
            raise ValueError("corner block without a unique U/D reference sticker")
        k = triple.index(ref[0])
        return triple[k:] + triple[:k]

    root = 0
    a, b, c = sorted(block_sets[root])
    ordered: dict[int, tuple[int, int, int]] = {root: rotate_to_ref((a, b, c))}
    queue = [root]
    while queue:
        i = queue.pop(0)
        triple = ordered[i]
        for g in gen_list:
            image = tuple(g(s) for s in triple)
            j = sticker_block[image[0]]
            rotated = rotate_to_ref(image)
            if j not in ordered:
                ordered[j] = rotated
                queue.append(j)
            elif ordered[j] != rotated:
                raise ValueError("corner chirality propagation is inconsistent")
    if len(ordered) != len(block_sets):
        raise ValueError("corner blocks are not connected under the generators")
    return tuple(ordered[index_of[b]] for b in sorted(block_sets, key=min))


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
    """Drop every cycle containing a label above `limit`, keeping the
    original cycle order and spelling."""
    out = []
    for chunk in text.split(")"):
        chunk = chunk.strip()
        if not chunk:
            continue
        body = chunk.lstrip("(")
        points = [int(t) for t in body.split()]
        if all(pt <= limit for pt in points):
            out.append("(" + " ".join(str(pt) for pt in points) + ")")
    return "".join(out)


def _build_r4() -> StickerModel:
    r5 = cube_model(5)
    keep = list(range(1, 97))
    gens: dict[str, Permutation] = {}
    source: dict[str, str] = {}
    for name, g in r5.generators.items():
        restricted = _restrict(g, keep)
        gens[name] = restricted
        filtered = _filter_cycles_text(r5.source_text[name], 96)
        if parse_cycles(filtered, 96) != restricted:
            raise ValueError("cycle filtering disagrees with pointwise restriction")
        source[name] = filtered
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


# -- induced piece permutations and orientation coordinates -------------------


def induced_cubie_perm(model: StickerModel, p: Permutation, class_name: str) -> Permutation:
    """Permutation induced on the physical pieces of one class."""
    return piece_coordinates(model, p, class_name)[0]


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
    index = {s: i for i, block in enumerate(blocks) for s in block}
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


def orientation_sum(model: StickerModel, p: Permutation, class_name: str) -> int:
    """Total twist of p on a class, mod the block size (3 for corners,
    2 for central edges), relative to the stored reference markings."""
    if class_name not in ("corners", "central_edges"):
        raise ValueError("orientation is defined for corners and central edges")
    _, offsets = piece_coordinates(model, p, class_name)
    return sum(offsets) % len(model.blocks[class_name][0])


def sign_vector(model: StickerModel, p: Permutation) -> tuple[int, ...]:
    """Signs of the induced piece permutations, one per class in the
    model's canonical class order."""
    return tuple(induced_cubie_perm(model, p, name).sign()
                 for name in model.class_order)


# -- configuration tuples (5x5x5) ---------------------------------------------


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
        return cls(
            x=(0,) * 8, sigma_c=Permutation.identity(8),
            y=(0,) * 12, sigma_e=Permutation.identity(12),
            tau=Permutation.identity(24),
            rho_c=Permutation.identity(24),
            rho_e=Permutation.identity(24),
        )


def resolve_sign_assignment(model: StickerModel) -> dict:
    """Which 24-piece classes can play tau / (rho_c, rho_e) so that the
    validity conditions hold literally on every generator.

    The statement never names the physical classes, so the assignment is
    computed, not presumed: tau must carry the same sign character as
    the corner and central-edge position permutations, and the remaining
    two classes must multiply to it.  Computed once per model.
    """
    if model.size != 5:
        raise ValueError("sign assignment applies to the 5x5x5 model")
    return model._sign_assignment


def _resolved_assignment(model: StickerModel) -> dict[str, str]:
    """role -> class name for tau, rho_c and rho_e, or a ValueError."""
    assignment = resolve_sign_assignment(model)["resolved"]
    if assignment is None:
        raise ValueError("no consistent class assignment")
    return assignment


def decode_config(model: StickerModel, p: Permutation) -> ConfigTuple:
    """Read the piece-level tuple off a sticker permutation (5x5x5)."""
    assignment = _resolved_assignment(model)
    sigma_c, x = piece_coordinates(model, p, "corners")
    sigma_e, y = piece_coordinates(model, p, "central_edges")
    return ConfigTuple(x=x, sigma_c=sigma_c, y=y, sigma_e=sigma_e,
                       **{role: induced_cubie_perm(model, p, name)
                          for role, name in assignment.items()})


def encode_config(model: StickerModel, cfg: ConfigTuple) -> Permutation:
    """Sticker permutation realizing a piece-level tuple (5x5x5).

    Inverse of decode_config on its image; any tuple is encodable
    because pieces move whole and rotate freely at the sticker level -
    validity is a separate question answered by validity_check.
    """
    assignment = _resolved_assignment(model)
    placements = [("corners", cfg.sigma_c, cfg.x), ("central_edges", cfg.sigma_e, cfg.y)]
    placements += [(name, getattr(cfg, role), (0,) * 24) for role, name in assignment.items()]
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
    images = list(range(model.degree + 1))
    for a, b in model.blocks["central_edges"]:
        images[a], images[b] = b, a
    return Permutation(images[1:])
