"""Pairwise residue contact-energy models.

Three kinds: the binary HP model (only H-H contacts carry energy), the
Miyazawa-Jernigan statistical contact potential shipped as a data file, and
custom user tables.  Turn-based encodings require every pair energy to be
<= 0; the encoders enforce this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from ..core import InputError, finite_float

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

HP = "hp"
MIYAZAWA_JERNIGAN = "mj"
CUSTOM = "custom"


@dataclass(frozen=True)
class InteractionModel:
    """Symmetric pair-energy table keyed by residue-code pairs."""

    kind: str
    pair_energies: dict[tuple[str, str], float] = field(default_factory=dict)
    alphabet: str = ""

    def energy(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        return self.pair_energies.get(key, 0.0)

    def validate_sequence(self, sequence: str) -> None:
        bad = sorted(set(sequence) - set(self.alphabet))
        if bad:
            raise InputError(
                f"residues {''.join(bad)} not in the {self.kind} alphabet {self.alphabet}"
            )

    def all_nonpositive(self) -> bool:
        return all(v <= 0.0 for v in self.pair_energies.values())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alphabet": self.alphabet,
            "pair_energies": {a + b: v for (a, b), v in sorted(self.pair_energies.items())},
        }

    @staticmethod
    def from_dict(doc: dict) -> "InteractionModel":
        """The one pair-table reader: keys of two residue codes, "HP" or
        ("H", "P"), in either order; the alphabet defaults to the residues
        the table names.  InputError for a table that is not an object, a
        value that is not a finite number or an alphabet that is not a string."""
        table = doc.get("pair_energies", {})
        if not isinstance(table, dict):
            raise InputError(f"interaction pair_energies {table!r} must be an object")
        pairs = {}
        for key, v in table.items():
            if len(key) != 2:
                raise InputError(f"pair key {key!r} must be two residue codes")
            a, b = sorted(key)
            pairs[(a, b)] = finite_float(v, f"interaction pair_energies {a}{b}")
        alphabet = doc.get("alphabet", "".join(sorted({c for k in pairs for c in k})))
        if not isinstance(alphabet, str):
            raise InputError(f"interaction alphabet {alphabet!r} must be a string")
        return InteractionModel(kind=doc.get("kind", CUSTOM), pair_energies=pairs, alphabet=alphabet)


def hp_model() -> InteractionModel:
    """The HP model: an H-H contact scores -1, every other contact 0."""
    return InteractionModel(kind=HP, pair_energies={("H", "H"): -1.0}, alphabet="HP")


def mj_model() -> InteractionModel:
    """Miyazawa-Jernigan contact energies from the shipped data file."""
    text = resources.files("latticefold.data").joinpath("mj_contact_energies.json").read_text()
    pairs = json.loads(text)["pair_energies"]
    return InteractionModel.from_dict(
        {"kind": MIYAZAWA_JERNIGAN, "alphabet": AMINO_ACIDS, "pair_energies": pairs})


def get_model(name: str) -> InteractionModel:
    if name == HP:
        return hp_model()
    if name in (MIYAZAWA_JERNIGAN, "miyazawa-jernigan"):
        return mj_model()
    raise InputError(f"unknown interaction model {name!r}; use 'hp' or 'mj'")
