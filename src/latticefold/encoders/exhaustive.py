"""Exact ground states of turn-encoded models by enumerating turn sequences.

Turn models have compact configuration cores (4^(N-3) or 2*6^(N-3) valid
turn words) but far more free variables once gating qubits and slack bits are
counted, so flat assignment enumeration is hopeless while turn enumeration is
cheap.  Given the turns, every auxiliary variable is conditionally optimal in
closed form: each gating qubit appears in exactly one gated term (take it iff
the gate value is negative) and each slack block has a unique integer
minimizer.  The returned assignments are therefore true global minimizers of
the full objective, provided no invalid-turn-word assignment can dip below
the valid-word minimum; the penalty-dominance margin that guarantees this is
asserted, not assumed.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import TIE_TOL, InputError
from .model import (
    CART_PATTERN_TO_STEP,
    TURN_CARTESIAN,
    TURN_TETRAHEDRAL,
    EncodedModel,
    interaction_pair_range,
    parse_pair_key,
    turn_var,
)
from .turn_tetrahedral import chain_neighbors

MAX_CONFIGS = 1 << 24


def turn_tet_block_energies(blocks: np.ndarray, model: EncodedModel) -> np.ndarray:
    """Exact objective minima over gate settings for arbitrary 4-bit turn
    blocks, one-hot or not: the soundness probe for penalty margins.

    blocks: (configs, n_turns, 4) 0/1 array including the fixed turns.
    """
    return _tet_block_scores(blocks, model)[0]


def _tet_block_scores(blocks: np.ndarray, model: EncodedModel):
    """(energies minimized over the gates, {pair: gate value}) of turn blocks.

    On one-hot blocks the lambda_turn term adds an exact 0.0, so the energies
    are those of the turn words alone.
    """
    n = len(model.sequence)
    pens = model.penalties
    lam1, lam2 = pens["lambda_1"], pens["lambda_2"]
    lam_turn, lam_gc = pens["lambda_turn"], pens["lambda_gc"]
    m = blocks.shape[0]
    # signed direction counts per bead fit int16 (|count| < n); their
    # differences are squared in int32
    counts = np.zeros((m, 4, n), dtype=np.int16)
    for bead in range(1, n):
        sign = 1 if bead % 2 == 1 else -1
        counts[:, :, bead] = counts[:, :, bead - 1] + sign * blocks[:, bead - 1, :]
    energies = np.zeros(m)
    free_sums = blocks[:, 2:, :].sum(axis=2) if n >= 4 else np.zeros((m, 0))
    energies += lam_turn * ((free_sums - 1) ** 2).sum(axis=1)
    if n >= 3:
        energies += lam_gc * (blocks[:, :-1, :] * blocks[:, 1:, :]).sum(axis=(1, 2))
    dcache: dict[tuple[int, int], np.ndarray] = {}

    def dist(a: int, b: int) -> np.ndarray:
        key = (min(a, b), max(a, b))
        if key not in dcache:
            diff = counts[:, :, key[1]].astype(np.int32) - counts[:, :, key[0]]
            dcache[key] = np.sum(diff * diff, axis=1)
        return dcache[key]

    gate_values = {}
    for i, j in interaction_pair_range(model.model, n):
        eps = model.interaction.energy(model.sequence[i], model.sequence[j])
        inner = eps + lam1 * (dist(i, j).astype(np.float64) - 1.0)
        for r in chain_neighbors(j, n):
            inner += lam2 * (2.0 - dist(i, r))
        for mm in chain_neighbors(i, n):
            inner += lam2 * (2.0 - dist(mm, j))
        gate_values[(i, j)] = inner
        energies += np.minimum(inner, 0.0)
    return energies, gate_values


def turn_ground_states(model: EncodedModel):
    """(minimum energy, all minimizing assignments) of a turn model.

    Turn words are mixed-radix codes over each turn's direction choices,
    first turn least significant, scored in chunks of 2^18; every word
    within TIE_TOL of the least energy is kept, in code order.
    """
    if model.model == TURN_TETRAHEDRAL:
        choices, score, build, floor = _tet_pieces(model)
    elif model.model == TURN_CARTESIAN:
        choices, score, build, floor = _cart_pieces(model)
    else:
        raise InputError("turn_ground_states needs a turn-encoded model")
    total = math.prod(len(c) for c in choices)
    if total > MAX_CONFIGS:
        raise InputError(f"{total} turn words exceed the enumeration budget")

    best = np.inf
    kept: list[tuple[float, np.ndarray, dict]] = []
    for lo in range(0, total, 1 << 18):
        rest = np.arange(lo, min(lo + (1 << 18), total), dtype=np.int64)
        dirs = np.empty((len(rest), len(choices)), dtype=np.int8)
        for t, opts in enumerate(choices):
            dirs[:, t] = np.array(opts, dtype=np.int8)[rest % len(opts)]
            rest = rest // len(opts)
        energies, values = score(dirs)
        cmin = float(energies.min())
        if cmin < best - TIE_TOL:
            best = cmin
            kept = []
        best = min(best, cmin)
        for idx in np.flatnonzero(energies <= best + TIE_TOL):
            kept.append((float(energies[idx]), dirs[idx].copy(),
                         {p: v[idx] for p, v in values.items()}))

    # re-filter: rows kept before later chunks lowered the minimum
    assignments = [a for energy, row, vals in kept if energy <= best + TIE_TOL
                   for a in build(row, vals)]
    if floor is not None and floor <= best:
        raise InputError(
            "penalty margin too small: invalid turn words could undercut the enumerated minimum"
        )
    _cross_check(model, assignments, best)
    return best, assignments


def _turn_bits(model: EncodedModel, row: np.ndarray, patterns) -> np.ndarray:
    """Assignment with the free turn bits of the word `row` set: direction d
    of a turn has bit pattern patterns[d]; every other variable is 0."""
    a = np.zeros(model.num_vars, dtype=np.uint8)
    for block, d in zip(model.layout["turns"], row):
        for bit, val in zip(block, patterns[d]):
            var = turn_var(bit)
            if var is not None:
                a[var] = val
    return a


def _expand_gates(base_assignment: np.ndarray, free_gate_vars: list[int]):
    if not free_gate_vars:
        return [base_assignment]
    out = []
    for mask in range(1 << len(free_gate_vars)):
        a = base_assignment.copy()
        for b, var in enumerate(free_gate_vars):
            a[var] = (mask >> b) & 1
        out.append(a)
    return out


def _turn_choices(model: EncodedModel) -> list:
    """Per-turn direction lists: a single fixed direction or the directions
    whose one-hot slot is a free variable."""
    choices = []
    for block in model.layout["turns"]:
        dirs = [a for a, bit in enumerate(block) if turn_var(bit) is not None]
        if not dirs:
            dirs = [a for a, bit in enumerate(block) if bit == 1]
        choices.append(dirs)
    return choices


def _tet_pieces(model: EncodedModel):
    """(turn choices, scorer, assignment builder, invalid-word floor) of a
    turn-tet model.  Each gate is set iff its value is negative, and every
    zero-value gate is taken both ways.  No floor is asserted: the
    tetrahedral margins are probed with `turn_tet_block_energies`."""
    one_hot = np.eye(4, dtype=np.int8)
    qubits = {parse_pair_key(k): v for k, v in model.layout["interaction_qubits"].items()}

    def build(row, gate_values):
        a = _turn_bits(model, row, one_hot)
        free_gates = []
        for pair, q in qubits.items():
            v = gate_values[pair]
            if v < -TIE_TOL:
                a[q] = 1
            elif abs(v) <= TIE_TOL:
                free_gates.append(q)
        return _expand_gates(a, free_gates)

    return _turn_choices(model), lambda dirs: _tet_block_scores(one_hot[dirs], model), build, None


def _cart_pieces(model: EncodedModel):
    """(turn choices, scorer, assignment builder, invalid-word floor) of a
    turn-cart model.  The scorer's per-pair values are squared distances; a
    gate is set at a contact and each slack block closes its overlap
    equality.  An invalid turn word costs lambda_turn and can recoup at most
    the sum of all gated energies, which is the floor."""
    n = len(model.sequence)
    pens = model.penalties
    gates = {}  # pair -> (gating qubit, pair energy)
    for key, q in model.layout["interaction_qubits"].items():
        j, k = parse_pair_key(key)
        gates[(j, k)] = (q, model.interaction.energy(model.sequence[j], model.sequence[k]))
    slack_of = {parse_pair_key(k): v for k, v in model.layout["slack_blocks"].items()}
    # direction d is the d-th entry of the turn table; opp[d] is the direction of its negated step
    dir_steps = tuple(CART_PATTERN_TO_STEP.values())
    steps = np.array(dir_steps, dtype=np.int16)
    opp = np.array([dir_steps.index(tuple(-x for x in s)) for s in dir_steps], dtype=np.int8)
    # the first turn is +x; the second turn's free bit is 0 (+z) or 1 (+x)
    choices = ([0], [4, 0], *[range(6)] * (n - 3))[: n - 1]

    def score(dirs):
        pos = np.zeros((len(dirs), 3, n), dtype=np.int16)
        for bead in range(1, n):
            pos[:, :, bead] = pos[:, :, bead - 1] + steps[dirs[:, bead - 1]]
        energies = np.zeros(len(dirs))
        energies += pens["lambda_back"] * (dirs[:, 1:] == opp[dirs[:, :-1]]).sum(axis=1)
        dists = {}
        for j, k in [*slack_of, *gates]:
            d = pos[:, :, k].astype(np.int32) - pos[:, :, j].astype(np.int32)
            dists[(j, k)] = np.sum(d * d, axis=1)
        for pair in slack_of:
            energies += pens["lambda_olap"] * (dists[pair] == 0)
        for pair, (_, eps) in gates.items():
            energies += np.where(dists[pair] == 1, eps, 0.0)
        return energies, dists

    def build(row, dists):
        a = _turn_bits(model, row, tuple(CART_PATTERN_TO_STEP))
        for pair, (q, _) in gates.items():
            if dists[pair] == 1:
                a[q] = 1
        for pair, bits in slack_of.items():
            mu = len(bits)
            alpha = int(np.clip(2**mu - int(dists[pair]), 0, 2**mu - 1))
            for p, var in enumerate(bits):
                a[var] = (alpha >> (mu - 1 - p)) & 1
        return [a]

    floor = pens["lambda_turn"] - sum(abs(eps) for _, eps in gates.values())
    return choices, score, build, floor


def _cross_check(model: EncodedModel, assignments, best: float) -> None:
    scale = max(1.0, abs(best))
    for e in model.objective.evaluate_batch(np.array(assignments[:64])):
        if abs(e - best) > 1e-7 * scale + TIE_TOL:
            raise AssertionError(
                f"enumerated minimizer evaluates to {float(e)}, expected {best}"
            )
