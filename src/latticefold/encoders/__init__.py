"""Model encoders: peptide sequence -> objective + decodable layout."""

from ..core import InputError
from .coordinate import DEFAULT_COORD_PENALTIES, encode_coordinate
from .exhaustive import turn_ground_states, turn_tet_block_energies
from .folds import Fold, contact_pairs, enumerate_saws, geometric_energy, optimal_fold_energy
from .interactions import AMINO_ACIDS, InteractionModel, get_model, hp_model, mj_model
from .model import (
    COORD_CARTESIAN,
    COORD_TETRAHEDRAL,
    TURN_CARTESIAN,
    TURN_TETRAHEDRAL,
    EncodedModel,
    decode,
    interaction_pair_range,
)
from .turn_cartesian import DEFAULT_TURN_CART_PENALTIES, encode_turn_cartesian, slack_bit_count
from .turn_tetrahedral import STRICT, default_turn_tet_penalties, encode_turn_tetrahedral

MODEL_TAGS = (TURN_CARTESIAN, TURN_TETRAHEDRAL, COORD_CARTESIAN, COORD_TETRAHEDRAL)


def encode(model: str, sequence: str, interaction, L=None, penalties=None,
           efficient_h3: bool = False, penalty_variant: str = STRICT) -> EncodedModel:
    """Dispatch over the four model tags; each option goes to the models that
    have it (L and efficient_h3 to the coordinate models, penalty_variant to
    turn-tet) and the others ignore it."""
    if model == TURN_CARTESIAN:
        return encode_turn_cartesian(sequence, interaction, penalties)
    if model == TURN_TETRAHEDRAL:
        return encode_turn_tetrahedral(sequence, interaction, penalties, penalty_variant)
    if model in (COORD_CARTESIAN, COORD_TETRAHEDRAL):
        return encode_coordinate(model, sequence, interaction, L, penalties, efficient_h3)
    raise InputError(f"unknown model {model!r}; choose one of {MODEL_TAGS}")
