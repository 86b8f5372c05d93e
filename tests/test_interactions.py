import pytest

from latticefold.core import InputError
from latticefold.encoders import AMINO_ACIDS, InteractionModel, get_model, hp_model, mj_model


def test_hp_model_pairs():
    hp = hp_model()
    assert hp.energy("H", "H") == -1.0
    assert hp.energy("H", "P") == 0.0
    assert hp.energy("P", "P") == 0.0
    hp.validate_sequence("HPPH")
    with pytest.raises(InputError):
        hp.validate_sequence("HPA")


def test_mj_table_complete_symmetric_negative():
    mj = mj_model()
    assert len(mj.pair_energies) == 210
    assert set(mj.alphabet) == set(AMINO_ACIDS)
    for a in AMINO_ACIDS:
        for b in AMINO_ACIDS:
            assert mj.energy(a, b) == mj.energy(b, a)
            assert mj.energy(a, b) < 0.0
    assert mj.all_nonpositive()


def test_mj_anchor_values():
    mj = mj_model()
    assert mj.energy("L", "L") == pytest.approx(-0.737)
    assert abs(mj.energy("K", "K")) < abs(mj.energy("K", "L")) < abs(mj.energy("L", "L"))


def test_custom_model_roundtrip():
    table = InteractionModel.from_dict(
        {"pair_energies": {("A", "B"): -2.0, ("B", "B"): -1.0}, "alphabet": "AB"})
    assert table.kind == "custom"
    assert table.energy("B", "A") == -2.0
    doc = table.to_dict()
    again = InteractionModel.from_dict(doc)
    assert again.pair_energies == table.pair_energies


def test_unknown_model_name():
    with pytest.raises(InputError):
        get_model("lennard-jones")
