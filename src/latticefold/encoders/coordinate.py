"""Coordinate-based encodings: one indicator variable per (bead, same-class
site).  Natively quadratic on both lattices.

Even-index beads live on even/A sites, odd-index beads on odd/B sites, which
halves the variable count and enforces cross-class distinctness for free.
Three penalty blocks constrain placements:

  H1  each bead sits on exactly one site          (one-hot)
  H2  no two same-class beads share a site        (self-avoidance)
  H3  consecutive beads are lattice-adjacent      (chain connectivity)

plus the contact energy applied to adjacent non-bonded bead pairs.  H3 comes
in two shapes: the default penalizes non-adjacent bond placements; the
"efficient" variant rewards adjacent ones against a constant shift N-1, which
yields a sparser matrix but admits penalty cancellations off the one-hot
manifold (see tests), so it stays opt-in.
"""

from __future__ import annotations

import warnings

from ..core import InputError, TermAccumulator
from ..lattice import CARTESIAN, LatticeSpec, min_grid, neighbor_sites, site_classes
from .interactions import InteractionModel
from .model import MODEL_LATTICE, EncodedModel, check_chain, interaction_pair_range, merge_penalties

DEFAULT_COORD_PENALTIES = {"lambda_1": 18.6, "lambda_2": 14.4, "lambda_3": 18.6}


def encode_coordinate(
    model: str,
    sequence: str,
    interaction: InteractionModel,
    L: int | None = None,
    penalties: dict | None = None,
    efficient_h3: bool = False,
) -> EncodedModel:
    """The coord-cart or coord-tet model of `sequence` (default L: the minimal grid)."""
    kind = MODEL_LATTICE[model]
    check_chain(sequence, interaction, gated=False)
    n = len(sequence)
    if L is None:
        L = min_grid(kind, n)
    spec = LatticeSpec(kind, L)
    total_sites = L**3 if kind == CARTESIAN else 2 * L**3
    if total_sites < n:
        raise InputError(
            f"{L}^3 grid has {total_sites} sites, cannot hold a {n}-bead chain"
        )
    if L < min_grid(kind, n):
        warnings.warn(
            f"grid size {L} is below the recommended minimum {min_grid(kind, n)}",
            stacklevel=3,
        )
    pens = merge_penalties(DEFAULT_COORD_PENALTIES, penalties)
    lam1, lam2, lam3 = pens["lambda_1"], pens["lambda_2"], pens["lambda_3"]

    classes = site_classes(spec)
    class_sizes = (len(classes[0]), len(classes[1]))

    # Bead blocks are contiguous in bead order; variable = start + site rank.
    blocks = []
    start = 0
    for bead in range(n):
        cls = bead % 2
        blocks.append({"bead": bead, "class": cls, "start": start, "count": class_sizes[cls]})
        start += class_sizes[cls]
    num_vars = start

    def var(bead: int, rank: int) -> int:
        return blocks[bead]["start"] + rank

    # adjacent site pairs (rank0, rank1) between the two classes, for the bond terms
    rank_of_cls1 = {site: r for r, site in enumerate(classes[1])}
    adjacent_pairs = [
        (r0, r1)
        for r0, s in enumerate(classes[0])
        for r1 in sorted(rank_of_cls1[t] for t in neighbor_sites(kind, s) if t in rank_of_cls1)
    ]
    adjacent_set = set(adjacent_pairs)

    acc = TermAccumulator()

    # H1: lam1 * (sum_s q - 1)^2 per bead
    for bead in range(n):
        count = blocks[bead]["count"]
        for r in range(count):
            acc.add((var(bead, r),), -lam1)
            for r2 in range(r + 1, count):
                acc.add((var(bead, r), var(bead, r2)), 2.0 * lam1)
        acc.offset += lam1

    # H2: same-class beads may not share a site
    for cls in (0, 1):
        beads = [b for b in range(n) if b % 2 == cls]
        for ai in range(len(beads)):
            for aj in range(ai + 1, len(beads)):
                b1, b2 = beads[ai], beads[aj]
                for r in range(class_sizes[cls]):
                    acc.add((var(b1, r), var(b2, r)), lam2)

    # H3: chain bonds, penalty or reward form
    for bead in range(n - 1):
        even_bead, odd_bead = (bead, bead + 1) if bead % 2 == 0 else (bead + 1, bead)
        if efficient_h3:
            for r0, r1 in adjacent_pairs:
                acc.add((var(even_bead, r0), var(odd_bead, r1)), -lam3)
        else:
            for r0 in range(class_sizes[0]):
                for r1 in range(class_sizes[1]):
                    if (r0, r1) not in adjacent_set:
                        acc.add((var(even_bead, r0), var(odd_bead, r1)), lam3)
    if efficient_h3:
        acc.offset += lam3 * (n - 1)

    # Contact energy: non-bonded pairs on adjacent sites (odd separation only;
    # same-class sites are never adjacent)
    for i, j in interaction_pair_range(model, n):
        eps = interaction.energy(sequence[i], sequence[j])
        if eps == 0.0:
            continue
        even_bead, odd_bead = (i, j) if i % 2 == 0 else (j, i)
        for r0, r1 in adjacent_pairs:
            acc.add((var(even_bead, r0), var(odd_bead, r1)), eps)

    objective = acc.build(num_vars)
    layout = {
        "type": "coordinate",
        "L": L,
        "efficient_h3": efficient_h3,
        "energy_shift": 0.0,
        "bead_blocks": blocks,
    }
    return EncodedModel(
        model=model,
        objective=objective,
        sequence=sequence,
        interaction=interaction,
        penalties=pens,
        layout=layout,
    )
