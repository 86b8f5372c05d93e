"""Geometry of the two supported lattices.

Cartesian3D is a plain cubic grid whose sites split into even/odd classes by
coordinate-sum parity.  Tetrahedral (diamond) is two interleaved FCC
sublattices A and B; A is spanned by a1=(0,1/2,1/2), a2=(1/2,0,1/2),
a3=(1/2,1/2,0) and B is the same grid shifted by a quarter diagonal
(1/4,1/4,1/4).  Every bond connects opposite classes on both lattices.

Only symmetric L x L x L grids with open boundaries are supported; sites
outside the cube simply have fewer neighbors.  Site ordering (class 0 before
class 1, lexicographic (i,j,k) within a class) is part of the public API:
encoder variable layouts depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InputError

CARTESIAN = "cartesian"
TETRAHEDRAL = "tetrahedral"

_A_BASIS = ((0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0))
_B_SHIFT = (0.25, 0.25, 0.25)

# A(i,j,k) bonds to B(i,j,k), B(i-1,j,k), B(i,j-1,k), B(i,j,k-1); the inverse
# relation from B adds the offsets instead.
_TET_A_TO_B = ((0, 0, 0), (-1, 0, 0), (0, -1, 0), (0, 0, -1))
_CART_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


@dataclass(frozen=True)
class LatticeSpec:
    kind: str
    L: int

    def __post_init__(self) -> None:
        if self.kind not in (CARTESIAN, TETRAHEDRAL):
            raise InputError(f"unknown lattice kind {self.kind!r}")
        if self.L < 2:
            raise InputError(f"side length must be >= 2, got {self.L}")


@dataclass(frozen=True, order=True)
class Site:
    """One lattice site: class tag plus integer coordinates.

    sublattice is 0 for even/A and 1 for odd/B.  For the Cartesian lattice the
    tag is redundant with (i+j+k) mod 2 but kept explicit so both lattices
    share one shape.
    """

    sublattice: int
    i: int
    j: int
    k: int

    def position(self, kind: str) -> tuple[float, float, float]:
        """Real-space coordinates in basis units."""
        if kind == CARTESIAN:
            return (float(self.i), float(self.j), float(self.k))
        x = self.i * _A_BASIS[0][0] + self.j * _A_BASIS[1][0] + self.k * _A_BASIS[2][0]
        y = self.i * _A_BASIS[0][1] + self.j * _A_BASIS[1][1] + self.k * _A_BASIS[2][1]
        z = self.i * _A_BASIS[0][2] + self.j * _A_BASIS[1][2] + self.k * _A_BASIS[2][2]
        if self.sublattice == 1:
            x, y, z = x + _B_SHIFT[0], y + _B_SHIFT[1], z + _B_SHIFT[2]
        return (x, y, z)


def cartesian_site(i: int, j: int, k: int) -> Site:
    return Site((i + j + k) % 2, i, j, k)


# The class-0 site at (0, 0, 0) on both lattices: turn decodes and free walks start here.
ORIGIN = Site(0, 0, 0, 0)


def sites(spec: LatticeSpec) -> list[Site]:
    """All sites of the grid, class 0 first, lexicographic within a class."""
    L = spec.L
    rng = range(L)
    if spec.kind == CARTESIAN:
        all_sites = [cartesian_site(i, j, k) for i in rng for j in rng for k in rng]
        return sorted(all_sites)
    out = [Site(0, i, j, k) for i in rng for j in rng for k in rng]
    out += [Site(1, i, j, k) for i in rng for j in rng for k in rng]
    return out


def site_classes(spec: LatticeSpec) -> tuple[list[Site], list[Site]]:
    """(even/A sites, odd/B sites) in their canonical order."""
    all_sites = sites(spec)
    return (
        [s for s in all_sites if s.sublattice == 0],
        [s for s in all_sites if s.sublattice == 1],
    )


def neighbor_sites(kind: str, s: Site) -> list[Site]:
    """Adjacent sites on the infinite lattice (no grid bounds)."""
    if kind == CARTESIAN:
        return [
            cartesian_site(s.i + di, s.j + dj, s.k + dk) for di, dj, dk in _CART_STEPS
        ]
    sign = 1 if s.sublattice == 0 else -1
    other = 1 - s.sublattice
    return [
        Site(other, s.i + sign * di, s.j + sign * dj, s.k + sign * dk)
        for di, dj, dk in _TET_A_TO_B
    ]


def in_grid(spec: LatticeSpec, s: Site) -> bool:
    return all(0 <= c < spec.L for c in (s.i, s.j, s.k))


def neighbors(spec: LatticeSpec, s: Site) -> list[Site]:
    """Adjacent sites inside the grid; errors if s itself is outside."""
    if not in_grid(spec, s):
        raise InputError(f"site {s} outside {spec.L}^3 grid")
    if spec.kind == CARTESIAN and s.sublattice != (s.i + s.j + s.k) % 2:
        raise InputError(f"site {s} has inconsistent parity tag")
    return [t for t in neighbor_sites(spec.kind, s) if in_grid(spec, t)]


def adjacent(kind: str, a: Site, b: Site) -> bool:
    """Nearest-neighbor test on the infinite lattice."""
    if a.sublattice == b.sublattice:
        return False
    if kind == CARTESIAN:
        return abs(a.i - b.i) + abs(a.j - b.j) + abs(a.k - b.k) == 1
    if a.sublattice == 1:
        a, b = b, a
    return (b.i - a.i, b.j - a.j, b.k - a.k) in _TET_A_TO_B


def min_grid(kind: str, n: int) -> int:
    """Smallest supported side length for an n-bead chain.

    Cartesian: ceil(n^(1/3)) + 1; tetrahedral: ceil((n/2)^(1/3)) + 1, i.e. the
    tightest cube that holds the chain plus one extra layer of slack.
    """
    if n < 2:
        raise InputError(f"sequence length must be >= 2, got {n}")
    if kind == CARTESIAN:
        target = n
    elif kind == TETRAHEDRAL:
        target = n / 2
    else:
        raise InputError(f"unknown lattice kind {kind!r}")
    m = 1
    while m ** 3 < target:
        m += 1
    return m + 1


def site_to_dict(kind: str, s: Site) -> dict:
    return {
        "sublattice": s.sublattice,
        "i": s.i,
        "j": s.j,
        "k": s.k,
        "xyz": list(s.position(kind)),
    }
