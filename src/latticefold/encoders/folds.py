"""Folds: decoded bead placements, physicality checks, and the geometric
energy oracle (exhaustive self-avoiding-walk search) used to cross-check
every encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import InputError
from ..lattice import (
    CARTESIAN,
    LatticeSpec,
    Site,
    adjacent,
    cartesian_site,
    in_grid,
    neighbor_sites,
    site_classes,
    site_to_dict,
)
from .interactions import InteractionModel


@dataclass
class Fold:
    """Per-bead lattice sites plus validity flags.

    decode_feasible is False when the originating assignment violated its
    encoding's block structure (invalid turn pattern, non-one-hot placement);
    positions are then best-effort.
    """

    lattice_kind: str
    positions: list[Site]
    decode_feasible: bool = True
    violations: list[str] = field(default_factory=list)

    @property
    def self_avoiding(self) -> bool:
        return len(set(self.positions)) == len(self.positions)

    @property
    def connected(self) -> bool:
        return all(
            adjacent(self.lattice_kind, a, b)
            for a, b in zip(self.positions, self.positions[1:])
        )

    @property
    def physical(self) -> bool:
        return self.self_avoiding and self.connected

    def to_dict(self) -> dict:
        return {
            "lattice": self.lattice_kind,
            "positions": [site_to_dict(self.lattice_kind, s) for s in self.positions],
            "self_avoiding": self.self_avoiding,
            "connected": self.connected,
            "physical": self.physical,
            "decode_feasible": self.decode_feasible,
            "violations": list(self.violations),
        }


def geometric_energy(fold: Fold, interaction: InteractionModel, sequence: str) -> float:
    """Sum of pair energies over non-bonded lattice contacts.

    The model-independent oracle: every encoding's constraint-free energy must
    reduce to this on physical folds.
    """
    if not fold.physical:
        raise InputError("geometric_energy requires a physical fold")
    if len(sequence) != len(fold.positions):
        raise InputError("sequence length does not match fold length")
    total = 0.0
    for i, j in contact_pairs(fold):
        total += interaction.energy(sequence[i], sequence[j])
    return total


def contact_pairs(fold: Fold) -> list[tuple[int, int]]:
    """Non-bonded adjacent bead pairs of a (not necessarily physical) fold."""
    n = len(fold.positions)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 2, n)
        if adjacent(fold.lattice_kind, fold.positions[i], fold.positions[j])
    ]


def _walk_origin(kind: str) -> Site:
    return cartesian_site(0, 0, 0) if kind == CARTESIAN else Site(0, 0, 0, 0)


def enumerate_saws(kind: str, n: int, spec: LatticeSpec | None = None):
    """Yield every self-avoiding walk of n beads as a list of sites.

    Without a grid spec, walks start at the class-0 origin of the infinite
    lattice (sufficient for energies: contacts are translation invariant).
    With a spec, walks are enumerated from every class-0 site of the grid and
    stay inside it, exactly the placements a coordinate encoding can express.
    """
    if n < 1:
        raise InputError("need at least one bead")
    if spec is not None and spec.kind != kind:
        raise InputError("lattice spec kind mismatch")

    if spec is None:
        starts = [_walk_origin(kind)]
    else:
        starts = site_classes(spec)[0]

    path: list[Site] = []
    occupied: set[Site] = set()

    def extend(depth: int):
        if depth == n:
            yield list(path)
            return
        for nxt in neighbor_sites(kind, path[-1]):
            if nxt in occupied:
                continue
            if spec is not None and not in_grid(spec, nxt):
                continue
            path.append(nxt)
            occupied.add(nxt)
            yield from extend(depth + 1)
            occupied.remove(path.pop())

    for start in starts:
        path = [start]
        occupied = {start}
        yield from extend(1)


def optimal_fold_energy(
    kind: str,
    sequence: str,
    interaction: InteractionModel,
    spec: LatticeSpec | None = None,
) -> float:
    """Exact minimum contact energy over all self-avoiding walks."""
    interaction.validate_sequence(sequence)
    best = 0.0
    n = len(sequence)
    for walk in enumerate_saws(kind, n, spec):
        total = 0.0
        for i in range(n):
            for j in range(i + 2, n):
                if adjacent(kind, walk[i], walk[j]):
                    total += interaction.energy(sequence[i], sequence[j])
        if total < best:
            best = total
    return best
