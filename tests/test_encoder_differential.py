"""The turn encoders and the tetrahedral ground-state enumeration against
their reference copies: every encoded objective must keep its term items in
the same order, its offset and its layout, and every exact ground state its
energy repr and minimizer list.  Coordinate models and turn-cart ground
states, which have no reference copy, are pinned by digests of the same
fields.  Decode, which reads the turn layouts, is checked on random bits."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_encoders as ref
from latticefold.core import InputError
from latticefold.encoders import (
    EncodedModel,
    decode,
    encode,
    encode_turn_cartesian,
    encode_turn_tetrahedral,
    get_model,
    turn_ground_states,
)
from latticefold.encoders import exhaustive
from latticefold.encoders import model as model_module
from latticefold.lattice import min_grid

MJ_SEQUENCES = ("LKKKKLKKKKL", "LKDFSAW", "AGCDEFGHIK", "WYVLIMFKRA")

TET_CASES = (
    [("H" * n, "hp", "strict") for n in range(2, 14)]
    + [(s, "hp", "strict") for s in ("HPPHHPHH", "HHPPHPPHPH", "PHHPHHPHHHP")]
    + [(s, "mj", v) for s in MJ_SEQUENCES for v in ("strict", "tts")]
)
CART_CASES = ["H" * n for n in range(2, 8)] + ["HPPHHP", "HPHPHPH", "PHHPH"]


def assert_same_model(new, old):
    assert list(new.objective.terms.items()) == list(old.objective.terms.items())
    assert repr(new.objective.offset) == repr(old.objective.offset)
    assert new.objective.num_vars == old.objective.num_vars
    assert type(new.objective) is type(old.objective)
    assert json.dumps(new.layout) == json.dumps(old.layout)
    assert new.penalties == old.penalties


@pytest.mark.parametrize("seq, interaction, variant", TET_CASES)
def test_turn_tet_encodes_identically(seq, interaction, variant):
    inter = get_model(interaction)
    assert_same_model(
        encode_turn_tetrahedral(seq, inter, penalty_variant=variant),
        ref.encode_turn_tetrahedral(seq, inter, penalty_variant=variant),
    )


@pytest.mark.parametrize("seq", CART_CASES)
def test_turn_cart_encodes_identically(seq):
    hp = get_model("hp")
    assert_same_model(encode_turn_cartesian(seq, hp), ref.encode_turn_cartesian(seq, hp))


@pytest.mark.parametrize("seq, interaction, variant",
                         [c for c in TET_CASES if len(c[0]) <= 13])
def test_turn_tet_ground_states_identical(seq, interaction, variant):
    model = encode_turn_tetrahedral(seq, get_model(interaction), penalty_variant=variant)
    (e_new, m_new), (e_old, m_old) = turn_ground_states(model), ref.tet_ground_states(model)
    assert repr(e_new) == repr(e_old)
    assert [a.tolist() for a in m_new] == [a.tolist() for a in m_old]


def model_digest(model, class_name="PolynomialObjective"):
    """sha256 of the objective's terms, offset and size, a class name and the
    layout.  The class name stands where the digests hashed the objective's
    class: the coordinate encoders built a `QuadraticObjective` then, a class
    that has since been folded into `PolynomialObjective`."""
    obj = model.objective
    doc = [[[list(k), float(c).hex()] for k, c in obj.terms.items()],
           float(obj.offset).hex(), obj.num_vars, class_name, model.layout]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def test_cart_turn_tables_derive_as_the_literals():
    assert model_module.CART_OPPOSITE_PAIRS == ref.CART_OPPOSITE_PAIRS
    assert model_module.CART_INVALID_PATTERNS == ref.CART_INVALID_PATTERNS


# digests of the encoders before the shared algebra and layout reader
@pytest.mark.parametrize("tag, seq, interaction, kwargs, digest", [
    ("coord-tet", "HHPPH", "hp", {}, "d2cab9fbc9f42f6f4201de50ef080a1c001f351d37784a87654a9d41fa95392b"),
    ("coord-tet", "HPHHPPHH", "hp", {}, "2971a597051a2741811b59659bb14c569ef9ba06931e21be0ffedaca4c48d192"),
    ("coord-tet", "LKDFSAW", "mj", {}, "66722a3515d178d318b44508a9c56d09b59502cfaa88866e204f839bc30f5a97"),
    ("coord-cart", "HHPPH", "hp", {}, "8ce3794435663dd88d5f3dff1690c942e47fd8330d71e1fcaf41432a3f7ab589"),
    ("coord-cart", "HPHHPPHH", "hp", {}, "19f42eb8c2976b7c385d9befaab7a61585eebd2757360bbe449bbc39f21cc5e0"),
    ("coord-cart", "HPHHPPHH", "hp", {"efficient_h3": True},
     "b18d282ef87719c3a98988be2f1023996a0ceb7785155c307a891c549afb169b"),
])
def test_coordinate_encodes_as_pinned(tag, seq, interaction, kwargs, digest):
    kind = "tetrahedral" if tag.endswith("tet") else "cartesian"
    model = encode(tag, seq, get_model(interaction), L=min_grid(kind, len(seq)), **kwargs)
    assert model_digest(model, "QuadraticObjective") == digest


# digests taken before the bit-mask products; these hold the largest products
# the encoders form, on which the reference copy is too slow to run
@pytest.mark.parametrize("n, digest", [
    (8, "06ca3271afaa1796bf354cbe24985f285b011dddb8ef01041ed7d23c6cb10726"),
    (9, "9ac794c8fcedab5393926156c05b581a8fdbb23d7c81c07e911fac73707fa90b"),
])
def test_large_turn_cart_encodes_as_pinned(n, digest):
    assert model_digest(encode_turn_cartesian("H" * n, get_model("hp"))) == digest


@pytest.mark.parametrize("seq, energy, count, digest", [
    ("HPPHHP", "-1.0", 20, "9c03ac9851e878737ca1fc9f3bfb2a8e639609e684845f20affd6febaa0b31d7"),
    ("HHHHHHH", "-3.0", 8, "8b96074a84a0c8fba268a6298516f386d43277d8002783740085dd4b7b222a0b"),
    ("PHHPH", "-1.0", 7, "4342d69964a301a6210972a2d140e7f89f6ce0e933ce9c49ad8e95abb816c94c"),
    ("HPHPHPH", "0.0", 1144, "aa9eb468634075228fa1a5da6dfafe621ffaa89987e0af76b067ce09ed8267ea"),
])
def test_turn_cart_ground_states_as_pinned(seq, energy, count, digest):
    e, minimizers = turn_ground_states(encode_turn_cartesian(seq, get_model("hp")))
    assert repr(e) == energy and len(minimizers) == count
    assert hashlib.sha256(np.array(minimizers, dtype=np.uint8).tobytes()).hexdigest() == digest



# short chains and MJ sequences, pinned at the per-model enumerators
@pytest.mark.parametrize("seq, interaction, energy, count, digest", [
    ("HH", "hp", "0.0", 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("HHH", "hp", "0.0", 2, "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2"),
    ("HHHH", "hp", "-1.0", 1, "8e0c5acc0a2f5318a160746b497253cd00ffc3c75e838fd5b0deab2a23eeaff7"),
    ("LKLKL", "mj", "-0.337", 11, "d3fbb132f5e1b245fa32990723962daebe272b571fa8b9acc25732b91f31e890"),
    ("LLKKLL", "mj", "-1.474", 6, "1585cab5a8edc61930b0659e8f4b5256bc4a05479f93cee7c27320906d23a099"),
])
def test_turn_cart_short_and_mj_ground_states_as_pinned(seq, interaction, energy, count, digest):
    e, minimizers = turn_ground_states(encode_turn_cartesian(seq, get_model(interaction)))
    assert repr(e) == energy and len(minimizers) == count
    assert hashlib.sha256(np.array(minimizers, dtype=np.uint8).tobytes()).hexdigest() == digest


def test_ground_states_refuse_a_coordinate_model():
    model = encode("coord-tet", "HHHH", get_model("hp"), L=3)
    with pytest.raises(InputError, match="needs a turn-encoded model"):
        turn_ground_states(model)


@pytest.mark.parametrize("tag", ["turn-cart", "turn-tet"])
def test_ground_states_refuse_words_over_budget(tag, monkeypatch):
    model = encode(tag, "H" * 7, get_model("hp"))  # 2*6^4 and 3*4^3 turn words
    monkeypatch.setattr(exhaustive, "MAX_CONFIGS", 100)
    with pytest.raises(InputError, match="turn words exceed the enumeration budget"):
        turn_ground_states(model)


def test_ground_states_refuse_a_small_cart_penalty_margin():
    # an invalid word may reach lambda_turn - 2 (two gated H-H pairs) = -1.5 < -1
    model = encode_turn_cartesian("HHHHH", get_model("hp"), penalties={"lambda_turn": 0.5})
    with pytest.raises(InputError, match="penalty margin too small"):
        turn_ground_states(model)
    assert repr(turn_ground_states(encode_turn_cartesian("HHHHH", get_model("hp")))[0]) == "-1.0"

DECODE_MODELS = {
    "turn-cart": encode("turn-cart", "HPPHHP", get_model("hp")),
    "turn-tet": encode("turn-tet", "HHPHHPHH", get_model("hp")),
    "coord-cart": encode("coord-cart", "HHPPH", get_model("hp"), L=min_grid("cartesian", 5)),
    "coord-tet": encode("coord-tet", "LKDFSAW", get_model("mj"), L=min_grid("tetrahedral", 7)),
}


@pytest.mark.parametrize("tag", sorted(DECODE_MODELS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decode_never_raises_on_random_bits(tag, data):
    model = DECODE_MODELS[tag]
    n = model.num_vars
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    fold = decode(model, bits)
    assert len(fold.positions) == len(model.sequence)
    assert fold.decode_feasible == (not fold.violations)
    assert isinstance(fold.physical, bool)
    from_doc = EncodedModel.from_doc(json.loads(json.dumps(model.to_doc())))
    assert decode(from_doc, bits).to_dict() == fold.to_dict()
