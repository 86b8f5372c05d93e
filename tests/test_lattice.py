import math

import numpy as np
import pytest

from latticefold.core import InputError
from latticefold.lattice import (
    CARTESIAN,
    TETRAHEDRAL,
    LatticeSpec,
    Site,
    adjacent,
    cartesian_site,
    min_grid,
    neighbor_sites,
    neighbors,
    site_classes,
    sites,
)


class TestSites:
    def test_cartesian_l2_parity_halves(self):
        spec = LatticeSpec(CARTESIAN, 2)
        all_sites = sites(spec)
        assert len(all_sites) == 8
        even, odd = site_classes(spec)
        assert len(even) == 4 and len(odd) == 4

    def test_tetrahedral_l3_site_count(self):
        assert len(sites(LatticeSpec(TETRAHEDRAL, 3))) == 54

    def test_cartesian_l4_site_count(self):
        assert len(sites(LatticeSpec(CARTESIAN, 4))) == 64

    def test_ordering_stable_and_class_major(self):
        spec = LatticeSpec(TETRAHEDRAL, 2)
        listed = sites(spec)
        assert listed == sites(spec)
        tags = [s.sublattice for s in listed]
        assert tags == sorted(tags)
        within = [(s.i, s.j, s.k) for s in listed if s.sublattice == 0]
        assert within == sorted(within)

    def test_l_too_small(self):
        with pytest.raises(InputError):
            LatticeSpec(CARTESIAN, 1)
        with pytest.raises(InputError, match="^unknown lattice kind 'hex'$"):
            LatticeSpec("hex", 3)


class TestNeighbors:
    def test_cartesian_corner_has_3(self):
        spec = LatticeSpec(CARTESIAN, 3)
        assert len(neighbors(spec, cartesian_site(0, 0, 0))) == 3

    def test_tetrahedral_interior_has_4(self):
        spec = LatticeSpec(TETRAHEDRAL, 3)
        assert len(neighbors(spec, Site(0, 1, 1, 1))) == 4

    def test_symmetry_exhaustive_tet_l3(self):
        spec = LatticeSpec(TETRAHEDRAL, 3)
        all_sites = sites(spec)
        nbr = {s: set(neighbors(spec, s)) for s in all_sites}
        for s in all_sites:
            for t in nbr[s]:
                assert s in nbr[t]

    def test_bipartite_both_lattices(self):
        for kind in (CARTESIAN, TETRAHEDRAL):
            for L in (2, 3, 4):
                spec = LatticeSpec(kind, L)
                for s in sites(spec):
                    for t in neighbors(spec, s):
                        assert s.sublattice != t.sublattice

    def test_outside_grid_rejected(self):
        spec = LatticeSpec(CARTESIAN, 2)
        with pytest.raises(InputError):
            neighbors(spec, cartesian_site(0, 0, 5))

    def test_tetrahedral_bond_lengths_identical(self):
        ref = math.sqrt(3) / 4
        for s in sites(LatticeSpec(TETRAHEDRAL, 3)):
            p = np.array(s.position(TETRAHEDRAL))
            for t in neighbor_sites(TETRAHEDRAL, s):
                q = np.array(t.position(TETRAHEDRAL))
                assert abs(np.linalg.norm(q - p) - ref) < 1e-12

    def test_adjacent_matches_neighbor_enumeration(self):
        spec = LatticeSpec(TETRAHEDRAL, 2)
        all_sites = sites(spec)
        for s in all_sites:
            nbrs = set(neighbors(spec, s))
            for t in all_sites:
                assert adjacent(TETRAHEDRAL, s, t) == (t in nbrs)


class TestMinGrid:
    def test_cartesian_examples(self):
        assert min_grid(CARTESIAN, 10) == 4
        assert min_grid(CARTESIAN, 27) == 4
        assert min_grid(CARTESIAN, 8) == 3

    def test_tetrahedral_example(self):
        assert min_grid(TETRAHEDRAL, 10) == 3

    def test_short_chain_rejected(self):
        with pytest.raises(InputError):
            min_grid(CARTESIAN, 1)
        with pytest.raises(InputError, match="^unknown lattice kind 'hex'$"):
            min_grid("hex", 4)
