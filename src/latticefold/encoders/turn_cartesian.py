"""Turn-based encoding on the cubic lattice, dense 3-bit turns.

A walk of N beads is N-1 turns; the first turn is fixed and the second keeps
a single free bit, breaking the lattice symmetry.  Bead positions are signed
sums of turn indicators, so the squared distance D(j,k) is a polynomial of
degree 6 and the slack-enforced overlap penalty (2^mu - D - alpha)^2 reaches
degree 12: this model is the expensive one to quadratize.

Hamiltonian blocks:
  H_turn  the two 3-bit patterns that encode no direction
  H_back  consecutive opposite turns (immediate backtracking)
  H_olap  for even-separation pairs >= 4, a binary slack block alpha_jk
          turns D(j,k) >= 1 into the equality 2^mu - D - alpha = 0
  H_int   one gating qubit per contact-capable pair applies eps*(2 - D)
"""

from __future__ import annotations

import math

from ..core import TermAccumulator, poly_add, poly_product
from .interactions import InteractionModel
from .model import (
    CART_FIRST_TURN,
    CART_INVALID_PATTERNS,
    CART_OPPOSITE_PAIRS,
    CART_PATTERN_TO_STEP,
    TURN_CARTESIAN,
    EncodedModel,
    Poly,
    check_chain,
    interaction_pair_range,
    merge_penalties,
    pair_key,
    squared_distances,
    turn_literal,
)

DEFAULT_TURN_CART_PENALTIES = {"lambda_back": 20.0, "lambda_turn": 20.0, "lambda_olap": 20.0}


def slack_bit_count(separation: int) -> int:
    """mu_jk: bits in the binary bound of the squared separation; zero for
    odd separations (those pairs cannot overlap)."""
    if (separation % 2) == 1:
        return 0
    return math.ceil(math.log2(separation * separation))


def _pattern_indicator(block, pattern) -> Poly:
    """Product over the 3 bits of (b or 1-b) matching the pattern."""
    factors = []
    for bit, want in zip(block, pattern):
        lit = turn_literal(bit)
        if want:
            factors.append(lit)
        else:
            inv = {(): 1.0}
            poly_add(inv, lit, -1.0)
            factors.append(inv)
    return poly_product(factors)


def encode_turn_cartesian(
    sequence: str,
    interaction: InteractionModel,
    penalties: dict | None = None,
) -> EncodedModel:
    check_chain(sequence, interaction, gated=True)
    n = len(sequence)
    pens = merge_penalties(DEFAULT_TURN_CART_PENALTIES, penalties)
    lam_back, lam_turn, lam_olap = pens["lambda_back"], pens["lambda_turn"], pens["lambda_olap"]

    # variable allocation: turn bits, gating qubits, slack blocks
    next_var = 0
    turns: list[list] = [list(CART_FIRST_TURN)]
    if n >= 3:
        turns.append([f"v{next_var}", 0, 1])
        next_var += 1
    for _ in range(3, n):
        turns.append([f"v{next_var}", f"v{next_var + 1}", f"v{next_var + 2}"])
        next_var += 3

    gated_pairs = [
        (j, k)
        for j, k in interaction_pair_range(TURN_CARTESIAN, n)
        if interaction.energy(sequence[j], sequence[k]) != 0.0
    ]
    interaction_qubits = {}
    for j, k in gated_pairs:
        interaction_qubits[(j, k)] = next_var
        next_var += 1

    slack_blocks = {}
    for j in range(n):
        for k in range(j + 4, n):
            mu = slack_bit_count(k - j)
            if mu == 0:
                continue
            slack_blocks[(j, k)] = list(range(next_var, next_var + mu))
            next_var += mu
    num_vars = next_var

    indicators = {
        t: {p: _pattern_indicator(turns[t - 1], p) for p in CART_PATTERN_TO_STEP}
        for t in range(1, n)
    }
    invalid = {
        t: [_pattern_indicator(turns[t - 1], p) for p in CART_INVALID_PATTERNS]
        for t in range(1, n)
    }

    # signed per-axis step polynomial of each turn
    axis_step: dict[int, list[Poly]] = {}
    for t in range(1, n):
        per_axis = [dict(), dict(), dict()]
        for pattern, step in CART_PATTERN_TO_STEP.items():
            for a in range(3):
                if step[a]:
                    poly_add(per_axis[a], indicators[t][pattern], float(step[a]))
        axis_step[t] = per_axis
    squared_distance = squared_distances(axis_step)

    acc = TermAccumulator()

    # H_turn
    for t in range(1, n):
        for ind in invalid[t]:
            acc.add_poly(ind, lam_turn)

    # H_back
    for t in range(1, n - 1):
        for p_fwd, p_rev in CART_OPPOSITE_PAIRS:
            acc.add_poly(poly_product([indicators[t][p_fwd], indicators[t + 1][p_rev]]), lam_back)
            acc.add_poly(poly_product([indicators[t][p_rev], indicators[t + 1][p_fwd]]), lam_back)

    # H_olap: (2^mu - D - alpha)^2 per even pair
    for (j, k), bits in slack_blocks.items():
        mu = len(bits)
        expr: Poly = {(): float(2**mu)}
        poly_add(expr, squared_distance(j, k), -1.0)
        for pos, bit in enumerate(bits):
            expr[(bit,)] = expr.get((bit,), 0.0) - float(2 ** (mu - 1 - pos))
        acc.add_poly(poly_product([expr, expr]), lam_olap)

    # H_int: q_jk * eps * (2 - D)
    for (j, k), q in interaction_qubits.items():
        eps = interaction.energy(sequence[j], sequence[k])
        contact: Poly = {(): 2.0}
        poly_add(contact, squared_distance(j, k), -1.0)
        acc.add_poly(poly_product([{(q,): 1.0}, contact]), eps)

    objective = acc.build(num_vars)
    layout = {
        "type": "turn-cartesian",
        "L": None,
        "energy_shift": 0.0,
        "turns": turns,
        "interaction_qubits": {pair_key(j, k): q for (j, k), q in interaction_qubits.items()},
        "slack_blocks": {pair_key(j, k): bits for (j, k), bits in slack_blocks.items()},
    }
    return EncodedModel(
        model=TURN_CARTESIAN,
        objective=objective,
        sequence=sequence,
        interaction=interaction,
        penalties=pens,
        layout=layout,
    )
