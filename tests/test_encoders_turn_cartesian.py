"""Turn-based Cartesian encoder: layout rules, penalty behavior, and the
brute-force/geometric cross checks."""

import numpy as np
import pytest

from latticefold.core import InputError
from latticefold.encoders import (
    InteractionModel,
    decode,
    encode_turn_cartesian,
    geometric_energy,
    hp_model,
    mj_model,
    optimal_fold_energy,
    slack_bit_count,
    turn_ground_states,
)
from latticefold.lattice import CARTESIAN
from latticefold.solvers import brute_force


class TestLayout:
    def test_n4_one_interaction_qubit_no_slack(self):
        m = encode_turn_cartesian("HHHH", hp_model())
        assert list(m.layout["interaction_qubits"]) == ["0,3"]
        assert m.layout["slack_blocks"] == {}
        assert m.num_vars == 5  # 1 + 3 turn bits + 1 gating qubit

    def test_slack_bits_separation_4(self):
        assert slack_bit_count(4) == 4
        assert slack_bit_count(6) == 6
        assert slack_bit_count(5) == 0

    def test_n6_slack_blocks(self):
        m = encode_turn_cartesian("H" * 6, hp_model())
        blocks = m.layout["slack_blocks"]
        assert set(blocks) == {"0,4", "1,5"}
        assert all(len(bits) == 4 for bits in blocks.values())

    def test_interaction_qubits_only_for_nonzero_pairs(self):
        m = encode_turn_cartesian("HPPH", hp_model())
        assert list(m.layout["interaction_qubits"]) == ["0,3"]
        m2 = encode_turn_cartesian("HPPP", hp_model())
        assert m2.layout["interaction_qubits"] == {}

    def test_positive_pair_energy_rejected(self):
        repulsive = InteractionModel.from_dict({"pair_energies": {"HH": 0.5}, "alphabet": "HP"})
        with pytest.raises(InputError):
            encode_turn_cartesian("HHHH", repulsive)

    def test_degenerate_lengths(self):
        assert encode_turn_cartesian("HH", hp_model()).num_vars == 0
        m3 = encode_turn_cartesian("HHH", hp_model())
        assert m3.num_vars == 1  # only the second-turn bit


class TestGroundTruth:
    def test_n4_brute_force_single_contact(self):
        hp = hp_model()
        m = encode_turn_cartesian("HHHH", hp)
        energy, minimizers = brute_force(m.objective)
        assert energy == pytest.approx(hp.energy("H", "H"), abs=1e-12)
        for a in minimizers:
            fold = decode(m, a)
            assert fold.physical
            assert geometric_energy(fold, hp, "HHHH") == pytest.approx(energy)

    def test_prefix_decodes_plus_x(self):
        m = encode_turn_cartesian("HHHH", hp_model())
        fold = decode(m, np.zeros(m.num_vars, dtype=np.uint8))
        d = fold.positions[1]
        assert (d.i, d.j, d.k) == (1, 0, 0)

    def test_enumerator_matches_brute_force_n5(self):
        mj = mj_model()
        m = encode_turn_cartesian("LKLKL", mj)
        e_brute, mins_brute = brute_force(m.objective)
        e_enum, mins_enum = turn_ground_states(m)
        assert e_brute == pytest.approx(e_enum, abs=1e-9)
        assert {tuple(a.tolist()) for a in mins_brute} == {tuple(a.tolist()) for a in mins_enum}

    def test_matches_saw_oracle_n6(self):
        hp = hp_model()
        m = encode_turn_cartesian("HHHHHH", hp)
        energy, minimizers = turn_ground_states(m)
        assert energy == pytest.approx(optimal_fold_energy(CARTESIAN, "HHHHHH", hp), abs=1e-9)
        fold = decode(m, minimizers[0])
        assert fold.physical


class TestPenaltyBehavior:
    def test_backfold_costs_at_least_lambda_back(self):
        m = encode_turn_cartesian("HHHH", hp_model())
        # turns: +x (fixed), +x, -x  => immediate backtrack at turns 2-3
        bits = np.zeros(m.num_vars, dtype=np.uint8)
        bits[0] = 1  # second turn +x
        for var, val in zip(m.layout["turns"][2], (0, 1, 1)):  # -x pattern
            bits[int(var[1:])] = val
        energy = m.objective.evaluate(bits)
        max_gain = sum(abs(v) for v in m.interaction.pair_energies.values())
        assert energy >= m.penalties["lambda_back"] - max_gain

    def test_invalid_turn_pattern_costs_lambda_turn(self):
        m = encode_turn_cartesian("HHHH", hp_model())
        bits = np.zeros(m.num_vars, dtype=np.uint8)
        bits[0] = 1
        # third turn 000: encodes no direction
        energy = m.objective.evaluate(bits)
        assert energy >= m.penalties["lambda_turn"] - 1.0
        fold = decode(m, bits)
        assert not fold.decode_feasible

    def test_gating_soundness_in_optima(self):
        # in any optimal assignment, an active gate implies an actual contact
        mj = mj_model()
        for seq in ("LKLKL", "LLKKLL"):
            m = encode_turn_cartesian(seq, mj)
            _, minimizers = turn_ground_states(m)
            qubits = {tuple(map(int, k.split(","))): v
                      for k, v in m.layout["interaction_qubits"].items()}
            for a in minimizers:
                fold = decode(m, a)
                assert fold.decode_feasible
                for (i, j), var in qubits.items():
                    d = fold.positions[i], fold.positions[j]
                    dist2 = sum((x - y) ** 2 for x, y in zip(
                        (d[0].i, d[0].j, d[0].k), (d[1].i, d[1].j, d[1].k)))
                    if a[var]:
                        assert dist2 == 1

    def test_slack_closes_the_overlap_equality_on_saws(self):
        # zero-penalty witnesses exist: the enumerated optimum of a
        # no-interaction sequence has energy exactly 0
        m = encode_turn_cartesian("PPPPPP", hp_model())
        energy, minimizers = turn_ground_states(m)
        assert energy == pytest.approx(0.0, abs=1e-12)
        assert m.objective.evaluate(minimizers[0]) == pytest.approx(0.0, abs=1e-12)
