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

import numpy as np

from ..core import InputError
from .model import (
    CART_PATTERN_TO_STEP,
    TURN_CARTESIAN,
    EncodedModel,
    interaction_pair_range,
    parse_pair_key,
    turn_var,
)
from .turn_tetrahedral import chain_neighbors

MAX_CONFIGS = 1 << 24
_TIE_TOL = 1e-9

# the Cartesian turn alphabet of `model`, indexed: direction d has pattern
# CART_DIR_PATTERNS[d], step CART_DIR_STEPS[d] and reverse CART_OPPOSITE[d]
CART_DIR_PATTERNS = tuple(CART_PATTERN_TO_STEP)
CART_DIR_STEPS = tuple(CART_PATTERN_TO_STEP.values())
CART_OPPOSITE = tuple(CART_DIR_STEPS.index(tuple(-x for x in step)) for step in CART_DIR_STEPS)


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


def _unravel_base(codes: np.ndarray, base: int, digits: int) -> np.ndarray:
    out = np.empty((len(codes), digits), dtype=np.int8)
    rest = codes.copy()
    for d in range(digits):
        out[:, d] = rest % base
        rest //= base
    return out


def turn_ground_states(model: EncodedModel, tie_tol: float = _TIE_TOL):
    """(minimum energy, all minimizing assignments) of a turn model."""
    if model.layout["type"] == "turn-tetrahedral":
        return _tet_ground_states(model, tie_tol)
    if model.layout["type"] == "turn-cartesian":
        return _cart_ground_states(model, tie_tol)
    raise InputError("turn_ground_states needs a turn-encoded model")


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


def _tet_ground_states(model: EncodedModel, tie_tol: float):
    n = len(model.sequence)
    n_turns = n - 1
    choices = _turn_choices(model)
    total = 1
    for c in choices:
        total *= len(c)
    if total > MAX_CONFIGS:
        raise InputError(f"{total} turn words exceed the enumeration budget")

    best = np.inf
    kept: list[tuple[float, np.ndarray, dict]] = []
    gates = interaction_pair_range(model.model, n)
    one_hot = np.eye(4, dtype=np.int8)
    chunk = 1 << 18
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        dirs = np.empty((len(codes), n_turns), dtype=np.int8)
        rest = codes
        for t, opts in enumerate(choices):
            if len(opts) == 1:
                dirs[:, t] = opts[0]
            else:
                dirs[:, t] = np.array(opts, dtype=np.int8)[rest % len(opts)]
                rest = rest // len(opts)
        energies, gate_values = _tet_block_scores(one_hot[dirs], model)
        cmin = float(energies.min())
        if cmin < best - tie_tol:
            best = cmin
            kept = []
        best = min(best, cmin)
        for idx in np.flatnonzero(energies <= best + tie_tol):
            kept.append(
                (float(energies[idx]), dirs[idx].copy(),
                 {p: float(gate_values[p][idx]) for p in gates})
            )

    assignments = []
    qubits = {parse_pair_key(k): v for k, v in model.layout["interaction_qubits"].items()}
    for energy, dirs_row, inner in kept:
        # re-filter: rows kept before later chunks lowered the minimum
        if energy > best + tie_tol:
            continue
        a = np.zeros(model.num_vars, dtype=np.uint8)
        for t in range(3, n):
            a[turn_var(model.layout["turns"][t - 1][dirs_row[t - 1]])] = 1
        free_gates = []
        for pair, q in qubits.items():
            v = inner[pair]
            if v < -tie_tol:
                a[q] = 1
            elif abs(v) <= tie_tol:
                free_gates.append(q)
        assignments.extend(_expand_gates(a, free_gates))
    _cross_check(model, assignments, best, tie_tol)
    return best, assignments


def _cart_ground_states(model: EncodedModel, tie_tol: float):
    n = len(model.sequence)
    pens = model.penalties
    lam_back, lam_olap = pens["lambda_back"], pens["lambda_olap"]
    n_turns = n - 1
    free = max(0, n - 3)
    second_choices = (4, 0) if n >= 3 else ()  # q4=0 -> +z, q4=1 -> +x
    total = max(1, len(second_choices)) * 6**free
    if total > MAX_CONFIGS:
        raise InputError(f"{total} turn words exceed the enumeration budget")

    gated = [
        (j, k)
        for j, k in interaction_pair_range(TURN_CARTESIAN, n)
        if model.interaction.energy(model.sequence[j], model.sequence[k]) != 0.0
    ]
    overlap_pairs = [
        (j, k) for j in range(n) for k in range(j + 4, n) if (k - j) % 2 == 0
    ]
    qubit_of = {parse_pair_key(k): v for k, v in model.layout["interaction_qubits"].items()}
    slack_of = {parse_pair_key(k): v for k, v in model.layout["slack_blocks"].items()}

    steps = np.array(CART_DIR_STEPS, dtype=np.int16)
    best = np.inf
    kept: list[tuple[float, np.ndarray]] = []
    chunk = 1 << 18
    for lo in range(0, total, chunk):
        codes = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        dirs = np.empty((len(codes), n_turns), dtype=np.int8)
        dirs[:, 0] = 0
        rest = codes
        if n >= 3:
            dirs[:, 1] = np.where(rest % 2 == 0, second_choices[0], second_choices[1])
            rest = rest // 2
        if free:
            dirs[:, 2:] = _unravel_base(rest, 6, free)
        pos = np.zeros((len(codes), 3, n), dtype=np.int16)
        for bead in range(1, n):
            pos[:, :, bead] = pos[:, :, bead - 1] + steps[dirs[:, bead - 1]]
        energies = np.zeros(len(codes))
        if n_turns >= 2:
            opp = np.array(CART_OPPOSITE, dtype=np.int8)
            backs = dirs[:, 1:] == opp[dirs[:, :-1]]
            energies += lam_back * backs.sum(axis=1)
        dists = {}

        def dist(i, j):
            if (i, j) not in dists:
                d = pos[:, :, j].astype(np.int32) - pos[:, :, i].astype(np.int32)
                dists[(i, j)] = np.sum(d * d, axis=1)
            return dists[(i, j)]

        for j, k in overlap_pairs:
            energies += lam_olap * (dist(j, k) == 0)
        gains = {}
        for j, k in gated:
            eps = model.interaction.energy(model.sequence[j], model.sequence[k])
            gains[(j, k)] = np.where(dist(j, k) == 1, eps, 0.0)
            energies += gains[(j, k)]

        cmin = float(energies.min())
        if cmin < best - tie_tol:
            best = cmin
            kept = []
        best = min(best, cmin)
        for idx in np.flatnonzero(energies <= best + tie_tol):
            a = np.zeros(model.num_vars, dtype=np.uint8)
            row = dirs[idx]
            if n >= 3:
                a[0] = 1 if row[1] == 0 else 0
            for t in range(3, n):
                pattern = CART_DIR_PATTERNS[row[t - 1]]
                block = model.layout["turns"][t - 1]
                for bit, val in zip(block, pattern):
                    a[turn_var(bit)] = val
            for j, k in gated:
                if dists[(j, k)][idx] == 1:
                    a[qubit_of[(j, k)]] = 1
            for (j, k), bits in slack_of.items():
                mu = len(bits)
                alpha = int(np.clip(2**mu - int(dists[(j, k)][idx]), 0, 2**mu - 1))
                for p, var in enumerate(bits):
                    a[var] = (alpha >> (mu - 1 - p)) & 1
            kept.append((float(energies[idx]), a))

    assignments = [a for e, a in kept if e <= best + tie_tol]
    # invalid turn words cost lambda_turn each and can recoup at most the sum
    # of all gated energies; refuse silently optimistic results
    max_gain = sum(
        abs(model.interaction.energy(model.sequence[j], model.sequence[k])) for j, k in gated
    )
    if pens["lambda_turn"] - max_gain <= best:
        raise InputError(
            "penalty margin too small: invalid turn words could undercut the enumerated minimum"
        )
    _cross_check(model, assignments, best, tie_tol)
    return best, assignments


def _cross_check(model: EncodedModel, assignments, best: float, tie_tol: float) -> None:
    scale = max(1.0, abs(best))
    for e in model.objective.evaluate_batch(np.array(assignments[:64])):
        if abs(e - best) > 1e-7 * scale + tie_tol:
            raise AssertionError(
                f"enumerated minimizer evaluates to {float(e)}, expected {best}"
            )
