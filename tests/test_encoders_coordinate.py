"""Coordinate-encoder contracts: variable layout, the feasibility-energy
identity, the two H3 shapes, and decode behavior."""

import itertools

import numpy as np
import pytest

from latticefold.core import InputError
from latticefold.encoders import (
    decode,
    encode,
    geometric_energy,
    hp_model,
)
from latticefold.lattice import TETRAHEDRAL, site_classes


def one_hot_assignments(model):
    """All one-hot placements as (bits, ranks-per-bead) pairs."""
    blocks = model.layout["bead_blocks"]
    options = [range(b["count"]) for b in blocks]
    for ranks in itertools.product(*options):
        bits = np.zeros(model.num_vars, dtype=np.uint8)
        for block, rank in zip(blocks, ranks):
            bits[block["start"] + rank] = 1
        yield bits, ranks


class TestLayoutCounts:
    def test_cartesian_n10_l4(self):
        m = encode("coord-cart", "H" * 10, hp_model(), L=4)
        assert m.num_vars == 5 * 32 + 5 * 32 == 320

    def test_tetrahedral_n10_l3(self):
        m = encode("coord-tet", "H" * 10, hp_model(), L=3)
        assert m.num_vars == 270

    def test_tetrahedral_n11_l3(self):
        m = encode("coord-tet", "HPPPPHPPPPH", hp_model(), L=3)
        assert m.num_vars == 6 * 27 + 5 * 27 == 297

    def test_grid_too_small(self):
        with pytest.raises(InputError):
            encode("coord-cart", "H" * 9, hp_model(), L=2)

    def test_warns_below_min_grid(self):
        with pytest.warns(UserWarning):
            encode("coord-tet", "HHHH", hp_model(), L=2)

    def test_native_quadratic(self):
        m = encode("coord-cart", "HPPH", hp_model(), L=3)
        assert m.objective.degree == 2

    def test_n2_minimal_zero_penalty_floor(self):
        with pytest.warns(UserWarning):
            m = encode("coord-cart", "HH", hp_model(), L=2)
        best = min(m.objective.evaluate_batch(np.array([b for b, _ in one_hot_assignments(m)])))
        assert best == pytest.approx(0.0, abs=1e-12)


class TestFeasibilityEnergyIdentity:
    @pytest.mark.parametrize("tag,L", [("coord-tet", 2), ("coord-cart", 3)])
    def test_exhaustive_n4(self, tag, L):
        seq = "HHHH"
        hp = hp_model()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = encode(tag, seq, hp, L=L)
            penalty_only = encode(tag, "P" * 4, hp, L=L)
        bits = np.array([b for b, _ in one_hot_assignments(model)])
        energies = model.objective.evaluate_batch(bits)
        penalties = penalty_only.objective.evaluate_batch(bits)
        n_feasible = 0
        for row, e, pen in zip(bits, energies, penalties):
            if abs(pen) > 1e-9:
                continue
            n_feasible += 1
            fold = decode(model, row)
            assert fold.decode_feasible
            assert fold.physical
            geo = geometric_energy(fold, hp, seq)
            assert e - model.layout["energy_shift"] == pytest.approx(geo, abs=1e-9)
        assert n_feasible > 0

    def test_zero_penalty_iff_physical(self):
        hp = hp_model()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = encode("coord-tet", "PPPP", hp, L=2)
        bits = np.array([b for b, _ in one_hot_assignments(model)])
        energies = model.objective.evaluate_batch(bits)
        for row, e in zip(bits, energies):
            fold = decode(model, row)
            assert (abs(e) <= 1e-9) == fold.physical


class TestEfficientH3:
    def test_same_energy_on_feasible_n4_l3(self):
        seq = "HHHH"
        hp = hp_model()
        pen = encode("coord-cart", seq, hp, L=3, efficient_h3=False)
        eff = encode("coord-cart", seq, hp, L=3, efficient_h3=True)
        bits = np.array([b for b, _ in one_hot_assignments(pen)])
        e_pen = pen.objective.evaluate_batch(bits)
        e_eff = eff.objective.evaluate_batch(bits)
        feasible = 0
        for row, a, b in zip(bits, e_pen, e_eff):
            if decode(pen, row).physical:
                feasible += 1
                assert a == pytest.approx(b, abs=1e-9)
        assert feasible > 0

    def test_efficient_variant_admits_nonpositive_penalty_off_manifold(self):
        # doubling an interior bead onto two sites that share neighbors with
        # both chain neighbors cancels H1 against the adjacency reward: the
        # sparser H3 buys density at the cost of this soundness hole, which is
        # why it is opt-in
        hp = hp_model()
        eff = encode("coord-cart", "PPP", hp, L=3, efficient_h3=True)
        classes = site_classes(eff.lattice_spec())
        rank0 = {s: r for r, s in enumerate(classes[0])}
        rank1 = {s: r for r, s in enumerate(classes[1])}
        from latticefold.lattice import cartesian_site

        bits = np.zeros(eff.num_vars, dtype=np.uint8)
        blocks = eff.layout["bead_blocks"]
        bits[blocks[0]["start"] + rank0[cartesian_site(0, 0, 0)]] = 1
        # bead 1 doubled on two common neighbors of beads 0 and 2
        bits[blocks[1]["start"] + rank1[cartesian_site(1, 0, 0)]] = 1
        bits[blocks[1]["start"] + rank1[cartesian_site(0, 1, 0)]] = 1
        bits[blocks[2]["start"] + rank0[cartesian_site(1, 1, 0)]] = 1
        energy = eff.objective.evaluate(bits)
        assert energy <= 1e-9  # H1 fully cancelled by doubled adjacency


class TestDecode:
    def test_all_zero_assignment(self):
        m = encode("coord-tet", "HHHH", hp_model(), L=3)
        fold = decode(m, np.zeros(m.num_vars, dtype=np.uint8))
        assert not fold.decode_feasible
        assert any("0 sites" in v for v in fold.violations)

    def test_site_classes_built_once_per_model(self, monkeypatch):
        import latticefold.encoders.model as model_module

        calls = []
        monkeypatch.setattr(model_module, "site_classes",
                            lambda spec: calls.append(spec) or site_classes(spec))
        m = encode("coord-cart", "HHHHH", hp_model(), L=3)
        folds = [decode(m, bits) for bits, _ in itertools.islice(one_hot_assignments(m), 20)]
        assert len(calls) == 1 and len(folds) == 20

    def test_parity_classes_of_decoded_beads(self):
        m = encode("coord-cart", "HHHHH", hp_model(), L=3)
        for bits, _ in itertools.islice(one_hot_assignments(m), 100):
            fold = decode(m, bits)
            for bead, site in enumerate(fold.positions):
                assert site.sublattice == bead % 2

    def test_translation_invariance(self):
        hp = hp_model()
        m = encode("coord-tet", "HHHH", hp, L=3)
        classes = site_classes(m.lattice_spec())
        rank = [
            {s: r for r, s in enumerate(classes[0])},
            {s: r for r, s in enumerate(classes[1])},
        ]
        from latticefold.encoders import enumerate_saws
        from latticefold.lattice import Site

        blocks = m.layout["bead_blocks"]
        checked = 0
        for walk in enumerate_saws(TETRAHEDRAL, 4, m.lattice_spec()):
            shifted = [Site(s.sublattice, s.i + 1, s.j, s.k) for s in walk]
            if any(not (0 <= s.i < 3) for s in shifted):
                continue
            bits = np.zeros(m.num_vars, dtype=np.uint8)
            bits2 = np.zeros(m.num_vars, dtype=np.uint8)
            for b, (s, t) in enumerate(zip(walk, shifted)):
                bits[blocks[b]["start"] + rank[b % 2][s]] = 1
                bits2[blocks[b]["start"] + rank[b % 2][t]] = 1
            assert m.objective.evaluate(bits) == pytest.approx(
                m.objective.evaluate(bits2), abs=1e-9
            )
            checked += 1
            if checked >= 200:
                break
        assert checked > 0
