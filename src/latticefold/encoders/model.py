"""EncodedModel: an objective plus the variable layout that makes solver
bitstrings decodable into folds, serializable to the problem-JSON format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from ..core import InputError, PolynomialObjective, is_int, poly_add, poly_product, problem_from_dict
from ..lattice import CARTESIAN, ORIGIN, TETRAHEDRAL, LatticeSpec, Site, cartesian_site, neighbor_sites, site_classes
from .folds import Fold
from .interactions import InteractionModel

TURN_CARTESIAN = "turn-cart"
TURN_TETRAHEDRAL = "turn-tet"
COORD_CARTESIAN = "coord-cart"
COORD_TETRAHEDRAL = "coord-tet"

MODEL_LATTICE = {
    TURN_CARTESIAN: CARTESIAN,
    TURN_TETRAHEDRAL: TETRAHEDRAL,
    COORD_CARTESIAN: CARTESIAN,
    COORD_TETRAHEDRAL: TETRAHEDRAL,
}

# Dense 3-bit turn patterns for the Cartesian walk.  The two missing patterns
# (0,0,0) and (1,1,0) encode no direction.
CART_PATTERN_TO_STEP = {
    (1, 0, 1): (1, 0, 0),
    (0, 1, 1): (-1, 0, 0),
    (1, 0, 0): (0, 1, 0),
    (0, 1, 0): (0, -1, 0),
    (0, 0, 1): (0, 0, 1),
    (1, 1, 1): (0, 0, -1),
}
# each pattern before the one of its reverse step, and the patterns of no step
CART_OPPOSITE_PAIRS = tuple(
    (p, q) for p, q in combinations(CART_PATTERN_TO_STEP, 2)
    if CART_PATTERN_TO_STEP[q] == tuple(-x for x in CART_PATTERN_TO_STEP[p])
)
CART_INVALID_PATTERNS = tuple(p for p in product((0, 1), repeat=3) if p not in CART_PATTERN_TO_STEP)

# Fixed symmetry-breaking prefix: first turn +x, second turn in {+x, +z}.
CART_FIRST_TURN = (1, 0, 1)

TET_FIRST_TURN_DIR = 3
TET_SECOND_TURN_DIR = 2
# reflection through the plane of the two fixed bonds swaps directions 0 and
# 1; direction 1 is pinned off at the third turn to break that symmetry
TET_MIRROR_FIXED_DIR = 1

Poly = dict[tuple[int, ...], float]


# ---------------------------------------------------------------------------
# turn layouts: "turns" lists one block of bits per turn, each bit either a
# free variable "v<i>" or a fixed 0/1; pair tables are keyed "j,k"
# ---------------------------------------------------------------------------

def turn_var(bit) -> int | None:
    """Variable index of a turn-layout bit "v<i>"; None for a fixed 0/1."""
    return int(bit[1:]) if isinstance(bit, str) else None


def turn_literal(bit) -> Poly:
    """Polynomial of one turn-layout bit: a single variable or a constant."""
    var = turn_var(bit)
    if var is not None:
        return {(var,): 1.0}
    return {(): float(bit)} if bit else {}


def pair_key(j: int, k: int) -> str:
    return f"{j},{k}"


def parse_pair_key(key: str) -> tuple[int, int]:
    j, k = key.split(",")
    return int(j), int(k)


def squared_distances(steps: dict[int, list[Poly]]):
    """D(j, k): the squared distance of beads j < k (0-based) as a polynomial.

    steps[t][a] is the step of turn t (bead t-1 -> t) along axis a; D(j, k)
    sums the squares, over the axes, of the steps of turns j+1..k.  Results
    are memoised per builder and must not be mutated.
    """
    memo: dict[tuple[int, int], Poly] = {}

    def D(j: int, k: int) -> Poly:
        out = memo.get((j, k))
        if out is None:
            out = {}
            for a in range(len(steps[k])):
                diff: Poly = {}
                for t in range(j + 1, k + 1):
                    poly_add(diff, steps[t][a])
                poly_add(out, poly_product([diff, diff]))
            memo[(j, k)] = out
        return out

    return D


def check_chain(sequence: str, interaction: InteractionModel, gated: bool) -> None:
    """InputError unless `sequence` is a chain the encoders take: at least 2
    residues, each in the interaction's alphabet, and, for the turn models'
    `gated` interaction terms, no pair energy above 0."""
    if len(sequence) < 2:
        raise InputError("sequence must have at least 2 residues")
    interaction.validate_sequence(sequence)
    if gated and not interaction.all_nonpositive():
        raise InputError("turn-based encodings need all pair energies <= 0 (gated interaction terms)")


def merge_penalties(defaults: dict, overrides: dict | None) -> dict:
    """`defaults` with `overrides` applied; InputError for an override that names none of the
    multipliers (the defaults with a number value), or a multiplier that is not positive."""
    multipliers = sorted(k for k, v in defaults.items() if not isinstance(v, str))
    for name in overrides or ():
        if name not in multipliers:
            raise InputError(f"penalty {name!r} is not one of this model's multipliers: "
                             f"{', '.join(multipliers)}")
    pens = {**defaults, **(overrides or {})}
    if min(pens[k] for k in multipliers) <= 0:
        raise InputError("penalty multipliers must be strictly positive")
    return pens


@dataclass(frozen=True)
class EncodedModel:
    """An objective and everything needed to decode its assignments."""

    model: str
    objective: PolynomialObjective
    sequence: str
    interaction: InteractionModel
    penalties: dict
    layout: dict

    @property
    def lattice_kind(self) -> str:
        return MODEL_LATTICE[self.model]

    @property
    def num_vars(self) -> int:
        return self.objective.num_vars

    def lattice_spec(self) -> LatticeSpec | None:
        L = self.layout.get("L")
        return None if L is None else LatticeSpec(self.lattice_kind, int(L))

    @cached_property
    def grid_classes(self) -> tuple[list[Site], list[Site]]:
        """The site classes of a coordinate model's grid, built once per model."""
        return site_classes(self.lattice_spec())

    def to_doc(self) -> dict:
        return {
            **self.objective.to_dict(),
            "model": self.model,
            "sequence": self.sequence,
            "interaction": self.interaction.to_dict(),
            "penalties": dict(self.penalties),
            "layout": self.layout,
        }

    @staticmethod
    def from_doc(doc: dict) -> "EncodedModel":
        """The model of a problem document written by `to_doc` (or by `reduce`,
        whose auxiliary variables follow the original ones)."""
        missing = [k for k in ("model", "sequence", "interaction", "layout") if k not in doc]
        if missing:
            raise InputError(f"problem document carries no model {', '.join(missing)}")
        if doc["model"] not in MODEL_LATTICE:
            raise InputError(f"unknown model {doc['model']!r} in problem document")
        for key, kind, what in (("sequence", str, "a string"), ("interaction", dict, "an object"),
                                ("layout", dict, "an object")):
            if not isinstance(doc[key], kind):
                raise InputError(f"problem document {key} must be {what}")
        objective = problem_from_dict(doc)
        _check_layout(doc["model"], doc["layout"], objective.num_vars)
        return EncodedModel(
            model=doc["model"],
            objective=objective,
            sequence=doc["sequence"],
            interaction=InteractionModel.from_dict(doc["interaction"]),
            penalties=dict(doc.get("penalties", {})),
            layout=doc["layout"],
        )


def _check_layout(model: str, layout: dict, num_vars: int) -> None:
    """InputError unless `layout` holds what `decode` reads for `model`: the
    grid side and bead blocks of a coordinate model, or the turn blocks of a
    turn model, each bit 0, 1 or "v<i>" with i < num_vars."""
    kind = MODEL_LATTICE[model]
    if model in (COORD_CARTESIAN, COORD_TETRAHEDRAL):
        L, blocks = layout.get("L"), layout.get("bead_blocks")
        if not is_int(L) or L < 2 or not isinstance(blocks, list):
            raise InputError("coordinate layout needs an integer L >= 2 and a bead_blocks list")
        sizes = [len(c) for c in site_classes(LatticeSpec(kind, L))]
        for i, b in enumerate(blocks):
            bead, cls, start, count = (b.get(k) if isinstance(b, dict) else None
                                       for k in ("bead", "class", "start", "count"))
            if not (all(map(is_int, (bead, cls, start, count))) and cls in (0, 1)
                    and 0 <= count <= sizes[cls] and 0 <= start <= num_vars - count):
                raise InputError(f"layout bead_blocks[{i}] is not a block of integer bead, class, start "
                                 f"and count within the lattice and {num_vars} variables")
        return
    width = 3 if kind == CARTESIAN else 4
    turns = layout.get("turns")
    if not isinstance(turns, list):
        raise InputError("turn layout needs a turns list")
    for t, block in enumerate(turns):
        if not (isinstance(block, list) and len(block) == width and all(
                is_int(bit) and bit in (0, 1) or isinstance(bit, str)
                and bit[:1] == "v" and bit[1:].isdecimal() and int(bit[1:]) < num_vars
                for bit in block)):
            raise InputError(f"layout turns[{t}] {block!r} is not {width} bits of 0, 1 or "
                             f"\"v<i>\" with i < {num_vars}")


def decode(model: EncodedModel, assignment) -> Fold:
    """Map a solver bitstring to bead positions.

    Never raises on infeasible content: invalid turn patterns and broken
    one-hot blocks record a violation (so decode_feasible is False), and the
    positions are completed best-effort.
    """
    bits = np.asarray(assignment).astype(np.int8)
    if bits.shape != (model.num_vars,):
        raise InputError(
            f"assignment length {bits.shape} does not match {model.num_vars} free variables"
        )
    if model.model in (COORD_CARTESIAN, COORD_TETRAHEDRAL):
        return _decode_coordinate(model, bits)
    return _decode_turns(model, bits)


def _decode_coordinate(model: EncodedModel, bits: np.ndarray) -> Fold:
    classes = model.grid_classes
    positions: list[Site] = []
    violations: list[str] = []
    for block in model.layout["bead_blocks"]:
        bead, cls = block["bead"], block["class"]
        start, count = block["start"], block["count"]
        ranks = np.flatnonzero(bits[start : start + count])
        if len(ranks) == 1:
            positions.append(classes[cls][int(ranks[0])])
        else:
            violations.append(f"bead {bead} placed on {len(ranks)} sites")
            rank = int(ranks[0]) if len(ranks) else 0
            positions.append(classes[cls][rank])
    return Fold(model.lattice_kind, positions, violations)


def _decode_turns(model: EncodedModel, bits: np.ndarray) -> Fold:
    kind = model.lattice_kind
    positions = [ORIGIN]
    violations: list[str] = []
    for t, block in enumerate(model.layout["turns"], start=1):
        pattern = tuple(int(b) if (v := turn_var(b)) is None else int(bits[v]) for b in block)
        cur = positions[-1]
        if kind == CARTESIAN:
            step = CART_PATTERN_TO_STEP.get(pattern)
            if step is None:
                violations.append(f"turn {t} pattern {pattern} encodes no direction")
                positions.append(cur)
            else:
                positions.append(cartesian_site(cur.i + step[0], cur.j + step[1], cur.k + step[2]))
        else:
            ones = [a for a, v in enumerate(pattern) if v]
            if len(ones) != 1:
                violations.append(f"turn {t} block {pattern} is not one-hot")
                positions.append(cur if not ones else neighbor_sites(kind, cur)[ones[0]])
            else:
                positions.append(neighbor_sites(kind, cur)[ones[0]])
    return Fold(kind, positions, violations)


def interaction_pair_range(model_tag: str, n: int) -> list[tuple[int, int]]:
    """Contact-capable bead pairs: odd separation, >= 3 (Cartesian) or >= 5
    (tetrahedral); beads 0-based."""
    gap = 3 if model_tag == TURN_CARTESIAN else 5
    return [
        (i, j)
        for i in range(n)
        for j in range(i + gap, n)
        if (j - i) % 2 == 1
    ]
