"""Turn-based encoding on the tetrahedral lattice, one-hot 4-bit turns.

The first two turns are fixed by symmetry; every later turn carries four
one-hot indicator bits.  Distances are tracked per lattice direction with
alternating signs (A->B moves count +1, B->A moves -1), so two beads coincide
iff all four signed counts vanish.  Overlap is penalized only inside the
gated contact terms: each contact-capable pair (separation >= 5, odd) gets a
qubit q_ij applying

    eps_ij + lam1*(D(i,j) - 1) + lam2 * sum_nbrs (2 - D)

which drives q_ij to 1 exactly at contacts but, by the same token, lets the
chain buy an overlap by giving up one contact.  That failure mode is a
property of the model, not of this implementation; the tests pin it.

Degree is 3 (distance quadratic times the gate), so a single reduction round
suffices downstream.
"""

from __future__ import annotations

from ..core import InputError, TermAccumulator, poly_add, poly_product
from .interactions import InteractionModel
from .model import (
    TET_FIRST_TURN_DIR,
    TET_MIRROR_FIXED_DIR,
    TET_SECOND_TURN_DIR,
    TURN_TETRAHEDRAL,
    EncodedModel,
    Poly,
    check_chain,
    interaction_pair_range,
    merge_penalties,
    pair_key,
    squared_distances,
    turn_literal,
)

STRICT = "strict"
TTS_TUNED = "tts"


def default_turn_tet_penalties(n: int, variant: str = STRICT) -> dict:
    """lambda family scaled with chain length.

    The strict cubic scaling penalizes every constraint violation below the
    physical energy scale; the quadratic variant trades that guarantee for
    smaller coefficients (and pairs with a reduction penalty of 1.1x).
    """
    if variant == STRICT:
        lam_global = 21.0 * n**3
    elif variant == TTS_TUNED:
        lam_global = 21.0 * n**2
    else:
        raise InputError(f"unknown penalty variant {variant!r}")
    return {
        "lambda_global": lam_global,
        "lambda_1": lam_global,
        "lambda_2": 10.0,
        "lambda_turn": lam_global,
        "lambda_gc": lam_global,
        "variant": variant,
    }


def chain_neighbors(bead: int, n: int) -> list[int]:
    return [b for b in (bead - 1, bead + 1) if 0 <= b < n]


def encode_turn_tetrahedral(
    sequence: str,
    interaction: InteractionModel,
    penalties: dict | None = None,
    penalty_variant: str = STRICT,
) -> EncodedModel:
    check_chain(sequence, interaction, gated=True)
    n = len(sequence)
    pens = merge_penalties(default_turn_tet_penalties(n, penalty_variant), penalties)
    lam1, lam2 = pens["lambda_1"], pens["lambda_2"]
    lam_turn, lam_gc = pens["lambda_turn"], pens["lambda_gc"]

    pairs = interaction_pair_range(TURN_TETRAHEDRAL, n)
    for i, j in pairs:
        bound = 4.0 * (j - i - 1) * lam2 + abs(interaction.energy(sequence[i], sequence[j]))
        if lam1 <= bound:
            raise InputError(
                f"lambda_1={lam1} does not dominate pair ({i},{j}): needs > {bound}"
            )

    next_var = 0
    turns: list[list] = [
        [1 if a == TET_FIRST_TURN_DIR else 0 for a in range(4)],
    ]
    if n >= 3:
        turns.append([1 if a == TET_SECOND_TURN_DIR else 0 for a in range(4)])
    for t in range(3, n):
        block = []
        for a in range(4):
            # the reflection through the two fixed bonds swaps directions 0
            # and 1; pinning direction 1 off at the third turn removes it
            if t == 3 and a == TET_MIRROR_FIXED_DIR:
                block.append(0)
            else:
                block.append(f"v{next_var}")
                next_var += 1
        turns.append(block)
    interaction_qubits = {}
    for i, j in pairs:
        interaction_qubits[(i, j)] = next_var
        next_var += 1
    num_vars = next_var

    # literals[t - 1][a]: direction a of turn t; a turn's step along direction
    # a is +literal on odd turns (A->B moves) and -literal on even ones
    literals = [[turn_literal(bit) for bit in block] for block in turns]
    steps = {}
    for t in range(1, n):
        sign = 1.0 if t % 2 == 1 else -1.0
        steps[t] = [{key: sign * c for key, c in lit.items()} for lit in literals[t - 1]]
    squared_distance = squared_distances(steps)

    acc = TermAccumulator()

    # one-hot penalty on free turns
    for t in range(3, n):
        expr: Poly = {(): -1.0}
        for lit in literals[t - 1]:
            poly_add(expr, lit)
        acc.add_poly(poly_product([expr, expr]), lam_turn)

    # growth constraint: consecutive turns may not repeat a direction
    for t in range(1, n - 1):
        for a in range(4):
            acc.add_poly(poly_product([literals[t - 1][a], literals[t][a]]), lam_gc)

    # gated contact terms with neighborhood overlap penalties
    for (i, j), q in interaction_qubits.items():
        eps = interaction.energy(sequence[i], sequence[j])
        inner: Poly = {(): eps - lam1}
        poly_add(inner, squared_distance(i, j), lam1)
        for r in chain_neighbors(j, n):
            inner[()] += 2.0 * lam2
            poly_add(inner, squared_distance(min(i, r), max(i, r)), -lam2)
        for m in chain_neighbors(i, n):
            inner[()] += 2.0 * lam2
            poly_add(inner, squared_distance(min(m, j), max(m, j)), -lam2)
        acc.add_poly(poly_product([{(q,): 1.0}, inner]))

    objective = acc.build(num_vars)
    layout = {
        "type": "turn-tetrahedral",
        "L": None,
        "energy_shift": 0.0,
        "turns": turns,
        "interaction_qubits": {pair_key(i, j): q for (i, j), q in interaction_qubits.items()},
    }
    return EncodedModel(
        model=TURN_TETRAHEDRAL,
        objective=objective,
        sequence=sequence,
        interaction=interaction,
        penalties=pens,
        layout=layout,
    )
