import pytest

from latticefold.core import InputError
from latticefold.encoders import (
    Fold,
    contact_pairs,
    enumerate_saws,
    geometric_energy,
    hp_model,
    mj_model,
    optimal_fold_energy,
)
from latticefold.lattice import CARTESIAN, TETRAHEDRAL, LatticeSpec, cartesian_site


def cart_fold(coords):
    return Fold(CARTESIAN, [cartesian_site(*c) for c in coords])


class TestValidateFold:
    """The physicality flags of a `Fold`."""

    def test_straight_chain_physical(self):
        fold = cart_fold([(i, 0, 0) for i in range(4)])
        assert fold.physical and fold.self_avoiding and fold.connected

    def test_overlapping_beads_flagged(self):
        fold = cart_fold([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0)])
        assert not fold.self_avoiding and fold.connected and not fold.physical

    def test_disconnected_pair_flagged(self):
        fold = cart_fold([(0, 0, 0), (2, 0, 0)])
        assert fold.self_avoiding and not fold.connected and not fold.physical


class TestGeometricEnergy:
    def test_stretched_chain_zero(self):
        hp = hp_model()
        fold = cart_fold([(i, 0, 0) for i in range(5)])
        assert geometric_energy(fold, hp, "HHHHH") == 0.0

    def test_u_shape_single_contact(self):
        hp = hp_model()
        fold = cart_fold([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert geometric_energy(fold, hp, "HHHH") == hp.energy("H", "H")

    def test_unphysical_rejected(self):
        hp = hp_model()
        fold = cart_fold([(0, 0, 0), (0, 0, 0)])
        with pytest.raises(InputError):
            geometric_energy(fold, hp, "HH")

    def test_contact_pairs_skip_bonded(self):
        fold = cart_fold([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert contact_pairs(fold) == [(0, 3)]

    def test_mj_weighted_contact(self):
        mj = mj_model()
        fold = cart_fold([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert geometric_energy(fold, mj, "LKKL") == pytest.approx(mj.energy("L", "L"))


class TestSawEnumeration:
    def test_cartesian_walk_count_n3(self):
        # 6 first steps * 5 non-reversing + 6 reversing forbidden = 30
        walks = list(enumerate_saws(CARTESIAN, 3))
        assert len(walks) == 30

    def test_tetrahedral_walk_count_n3(self):
        walks = list(enumerate_saws(TETRAHEDRAL, 3))
        assert len(walks) == 12  # 4 bonds, then 3 non-reversing continuations

    def test_grid_enumeration_respects_bounds(self):
        spec = LatticeSpec(CARTESIAN, 2)
        for walk in enumerate_saws(CARTESIAN, 4, spec):
            for s in walk:
                assert 0 <= s.i < 2 and 0 <= s.j < 2 and 0 <= s.k < 2
            assert walk[0].sublattice == 0

    def test_optimal_energy_cartesian_hhhh(self):
        assert optimal_fold_energy(CARTESIAN, "HHHH", hp_model()) == -1.0

    def test_optimal_energy_needs_contactable_pair(self):
        # shortest Cartesian contact needs separation 3
        assert optimal_fold_energy(CARTESIAN, "HHH", hp_model()) == 0.0

    def test_tetrahedral_first_contact_at_n6(self):
        hp = hp_model()
        assert optimal_fold_energy(TETRAHEDRAL, "HHHHH", hp) == 0.0
        assert optimal_fold_energy(TETRAHEDRAL, "HHHHHH", hp) == -1.0
