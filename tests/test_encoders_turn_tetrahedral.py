"""Turn-based tetrahedral encoder: one-hot layout, the gated-overlap failure
mode the model is known for, and penalty-margin soundness probes."""

import itertools

import numpy as np
import pytest

from latticefold.core import InputError
from latticefold.encoders import (
    InteractionModel,
    decode,
    encode_turn_tetrahedral,
    geometric_energy,
    hp_model,
    mj_model,
    optimal_fold_energy,
    turn_ground_states,
    turn_tet_block_energies,
)
from latticefold.encoders.turn_tetrahedral import default_turn_tet_penalties
from latticefold.lattice import TETRAHEDRAL
from latticefold.solvers import brute_force


class TestLayout:
    def test_n3_no_interaction_qubits(self):
        m = encode_turn_tetrahedral("HPH", hp_model())
        assert m.layout["interaction_qubits"] == {}
        assert m.num_vars == 0

    def test_pair_range(self):
        m = encode_turn_tetrahedral("H" * 11, hp_model())
        pairs = sorted(tuple(map(int, k.split(","))) for k in m.layout["interaction_qubits"])
        assert len(pairs) == 12
        assert all((j - i) >= 5 and (j - i) % 2 == 1 for i, j in pairs)

    def test_degree_3(self):
        m = encode_turn_tetrahedral("HHHHHH", hp_model())
        assert m.objective.degree == 3

    def test_third_turn_mirror_slot_fixed(self):
        m = encode_turn_tetrahedral("HHHHH", hp_model())
        third = m.layout["turns"][2]
        assert third[1] == 0  # reflection representative
        assert sum(1 for b in third if isinstance(b, str)) == 3
        fourth = m.layout["turns"][3]
        assert sum(1 for b in fourth if isinstance(b, str)) == 4

    def test_penalty_scaling_variants(self):
        strict = default_turn_tet_penalties(11, "strict")
        tuned = default_turn_tet_penalties(11, "tts")
        assert strict["lambda_global"] == pytest.approx(21 * 11**3)
        assert tuned["lambda_global"] == pytest.approx(21 * 11**2)
        assert strict["lambda_2"] == 10.0
        with pytest.raises(InputError, match="^unknown penalty variant 'x'$"):
            default_turn_tet_penalties(6, "x")

    def test_underpowered_lambda1_rejected(self):
        with pytest.raises(InputError):
            encode_turn_tetrahedral("H" * 8, hp_model(), penalties={"lambda_1": 1.0})

    def test_positive_pair_energy_rejected(self):
        repulsive = InteractionModel.from_dict({"pair_energies": {"HH": 1.0}, "alphabet": "HP"})
        with pytest.raises(InputError):
            encode_turn_tetrahedral("HHHHHH", repulsive)


class TestGroundTruth:
    def test_enumerator_matches_brute_force_n6(self):
        # PPPPPP's gates are worth exactly 0 at the minimum, so the oracle takes each both ways
        for seq in ("HHHHHH", "PPPPPP"):
            m = encode_turn_tetrahedral(seq, hp_model())
            e1, m1 = brute_force(m.objective)
            e2, m2 = turn_ground_states(m)
            assert e1 == pytest.approx(e2, abs=1e-9)
            assert {tuple(a.tolist()) for a in m1} == {tuple(a.tolist()) for a in m2}
        assert (e2, len(m2)) == (0.0, 19)

    def test_matches_saw_oracle(self):
        mj = mj_model()
        seq = "LKLKLL"
        m = encode_turn_tetrahedral(seq, mj)
        energy, minimizers = turn_ground_states(m)
        assert energy == pytest.approx(
            optimal_fold_energy(TETRAHEDRAL, seq, mj), abs=1e-9
        )
        fold = decode(m, minimizers[0])
        assert fold.physical
        assert geometric_energy(fold, mj, seq) == pytest.approx(energy, abs=1e-9)

    def test_hp_analogue_has_cominimal_overlap_and_valid_folds(self):
        # the gated overlap penalty can be bought off: the feasible minimum
        # set must contain both a self-intersecting fold (terminal beads
        # coincide) and a valid fold at the same energy
        hp = hp_model()
        m = encode_turn_tetrahedral("HPPPPHPPPPH", hp)
        energy, minimizers = turn_ground_states(m)
        folds = [decode(m, a) for a in minimizers]
        assert all(f.decode_feasible for f in folds)
        overlapping = [f for f in folds if not f.self_avoiding]
        valid = [f for f in folds if f.physical]
        assert overlapping and valid
        assert any(f.positions[0] == f.positions[10] for f in overlapping)


class TestPenaltySoundness:
    def test_single_block_violations_never_reach_the_minimum(self):
        # exhaustive over every single-turn one-hot violation at N=8
        mj = mj_model()
        seq = "LKKLKKLL"
        m = encode_turn_tetrahedral(seq, mj)
        e0, _ = turn_ground_states(m)
        n = len(seq)

        def free_dirs(t):
            return [a for a, b in enumerate(m.layout["turns"][t]) if isinstance(b, str)]

        def valid_dirs(t):
            frees = free_dirs(t)
            return frees if frees else [a for a, b in enumerate(m.layout["turns"][t]) if b == 1]

        best_violating = np.inf
        for bad_turn in range(n - 1):
            frees = free_dirs(bad_turn)
            if not frees:
                continue
            one_hot = set()
            for d in frees:
                p = [0, 0, 0, 0]
                p[d] = 1
                one_hot.add(tuple(p))
            representable = [
                p for p in itertools.product((0, 1), repeat=4)
                if all(p[a] == 0 for a in range(4) if a not in frees)
            ]
            bad_patterns = [p for p in representable if p not in one_hot]
            others = [valid_dirs(t) for t in range(n - 1) if t != bad_turn]
            combos = list(itertools.product(*others))
            blocks = np.zeros((len(bad_patterns) * len(combos), n - 1, 4), dtype=np.int8)
            row = 0
            for bad in bad_patterns:
                for combo in combos:
                    pos = 0
                    for t in range(n - 1):
                        if t == bad_turn:
                            blocks[row, t, :] = bad
                        else:
                            blocks[row, t, combo[pos]] = 1
                            pos += 1
                    row += 1
            energies = turn_tet_block_energies(blocks, m)
            best_violating = min(best_violating, float(energies.min()))
        assert best_violating > e0 + 1.0

    def test_random_multi_violation_probe(self, rng):
        mj = mj_model()
        m = encode_turn_tetrahedral("LKKKKLKKKKL", mj)
        e0, _ = turn_ground_states(m)
        n_turns = 10
        samples = 20000
        blocks = (rng.random((samples, n_turns, 4)) < 0.3).astype(np.int8)
        blocks[:, 0, :] = 0
        blocks[:, 0, 3] = 1
        blocks[:, 1, :] = 0
        blocks[:, 1, 2] = 1
        blocks[:, 2, 1] = 0  # mirror-fixed slot
        energies = turn_tet_block_energies(blocks, m)
        violating = (blocks.sum(axis=2)[:, 2:] != 1).any(axis=1)
        assert energies[violating].min() > e0 + 1.0
