"""Reference copies of the turn encoders and of the one-hot turn-word
enumeration of the tetrahedral ground states, for differential tests.

Each encoder carries its own polynomial helpers and its own squared-distance
closure, recomputed per call; the tetrahedral enumeration scores turn words
with its own copy of the gate terms and re-scores kept rows with a third copy
of the energy formula.  The package's versions share one algebra, one
turn-layout reader, one memoised distance builder and one gate evaluator;
they must give the same term items in the same order, the same offset and
layout, and the same exact ground states.
"""

import numpy as np

from latticefold.core import InputError, TermAccumulator
from latticefold.encoders.exhaustive import MAX_CONFIGS, _expand_gates
from latticefold.encoders.interactions import InteractionModel
from latticefold.encoders.model import (
    CART_FIRST_TURN,
    CART_PATTERN_TO_STEP,
    TET_FIRST_TURN_DIR,
    TET_MIRROR_FIXED_DIR,
    TET_SECOND_TURN_DIR,
    TURN_CARTESIAN,
    TURN_TETRAHEDRAL,
    EncodedModel,
    interaction_pair_range,
)
from latticefold.encoders.turn_cartesian import DEFAULT_TURN_CART_PENALTIES, slack_bit_count
from latticefold.encoders.turn_tetrahedral import STRICT, chain_neighbors, default_turn_tet_penalties

Poly = dict[tuple[int, ...], float]

# the package derives these two tables from CART_PATTERN_TO_STEP; these are
# the literal tables they replaced
CART_OPPOSITE_PAIRS = (
    ((1, 0, 1), (0, 1, 1)),
    ((1, 0, 0), (0, 1, 0)),
    ((0, 0, 1), (1, 1, 1)),
)
CART_INVALID_PATTERNS = ((0, 0, 0), (1, 1, 0))


def poly_product(polys, scale: float = 1.0) -> Poly:
    out: Poly = {(): scale}
    for poly in polys:
        nxt: Poly = {}
        for k1, c1 in out.items():
            for k2, c2 in poly.items():
                key = tuple(sorted(set(k1) | set(k2)))
                nxt[key] = nxt.get(key, 0.0) + c1 * c2
        out = nxt
    return out


def add_product(acc: TermAccumulator, p1: Poly, p2: Poly, scale: float = 1.0) -> None:
    """acc += scale * p1 * p2, one `acc.add` per pair of terms."""
    for k1, c1 in p1.items():
        for k2, c2 in p2.items():
            acc.add(set(k1) | set(k2), c1 * c2 * scale)


def _literal(layout_bit) -> Poly:
    """Polynomial for one layout bit: constant or a single variable."""
    if isinstance(layout_bit, str):
        return {(int(layout_bit[1:]),): 1.0}
    return {(): float(layout_bit)} if layout_bit else {}


def _pattern_indicator(block, pattern) -> Poly:
    """Product over the 3 bits of (b or 1-b) matching the pattern."""
    factors = []
    for bit, want in zip(block, pattern):
        lit = _literal(bit)
        if want:
            factors.append(lit)
        else:
            inv = {(): 1.0}
            for k, c in lit.items():
                inv[k] = inv.get(k, 0.0) - c
            factors.append(inv)
    return poly_product(factors)


def _poly_add(dst: Poly, src: Poly, scale: float = 1.0) -> None:
    for k, c in src.items():
        dst[k] = dst.get(k, 0.0) + c * scale


def encode_turn_cartesian(
    sequence: str,
    interaction: InteractionModel,
    penalties: dict | None = None,
) -> EncodedModel:
    n = len(sequence)
    if n < 2:
        raise InputError("sequence must have at least 2 residues")
    interaction.validate_sequence(sequence)
    if not interaction.all_nonpositive():
        raise InputError(
            "turn-based encodings need all pair energies <= 0 (gated interaction terms)"
        )
    pens = dict(DEFAULT_TURN_CART_PENALTIES)
    pens.update(penalties or {})
    lam_back, lam_turn, lam_olap = pens["lambda_back"], pens["lambda_turn"], pens["lambda_olap"]
    if min(lam_back, lam_turn, lam_olap) <= 0:
        raise InputError("penalty multipliers must be strictly positive")

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
                    _poly_add(per_axis[a], indicators[t][pattern], float(step[a]))
        axis_step[t] = per_axis

    def squared_distance(j: int, k: int) -> Poly:
        """D(j,k) over turns j+1..k (0-based beads)."""
        out: Poly = {}
        for a in range(3):
            diff: Poly = {}
            for t in range(j + 1, k + 1):
                _poly_add(diff, axis_step[t][a])
            _poly_add(out, poly_product([diff, diff]))
        return out

    acc = TermAccumulator()

    # H_turn
    for t in range(1, n):
        for ind in invalid[t]:
            acc.add_poly(ind, lam_turn)

    # H_back
    for t in range(1, n - 1):
        for p_fwd, p_rev in CART_OPPOSITE_PAIRS:
            add_product(acc, indicators[t][p_fwd], indicators[t + 1][p_rev], lam_back)
            add_product(acc, indicators[t][p_rev], indicators[t + 1][p_fwd], lam_back)

    # H_olap: (2^mu - D - alpha)^2 per even pair
    for (j, k), bits in slack_blocks.items():
        mu = len(bits)
        expr: Poly = {(): float(2**mu)}
        _poly_add(expr, squared_distance(j, k), -1.0)
        for pos, bit in enumerate(bits):
            expr[(bit,)] = expr.get((bit,), 0.0) - float(2 ** (mu - 1 - pos))
        acc.add_poly(poly_product([expr, expr]), lam_olap)

    # H_int: q_jk * eps * (2 - D)
    for (j, k), q in interaction_qubits.items():
        eps = interaction.energy(sequence[j], sequence[k])
        contact: Poly = {(): 2.0}
        _poly_add(contact, squared_distance(j, k), -1.0)
        add_product(acc, {(q,): 1.0}, contact, eps)

    objective = acc.build(num_vars)
    layout = {
        "type": "turn-cartesian",
        "L": None,
        "energy_shift": 0.0,
        "turns": turns,
        "interaction_qubits": {f"{j},{k}": q for (j, k), q in interaction_qubits.items()},
        "slack_blocks": {f"{j},{k}": bits for (j, k), bits in slack_blocks.items()},
    }
    return EncodedModel(
        model=TURN_CARTESIAN,
        objective=objective,
        sequence=sequence,
        interaction=interaction,
        penalties=pens,
        layout=layout,
    )


def encode_turn_tetrahedral(
    sequence: str,
    interaction: InteractionModel,
    penalties: dict | None = None,
    penalty_variant: str = STRICT,
) -> EncodedModel:
    n = len(sequence)
    if n < 2:
        raise InputError("sequence must have at least 2 residues")
    interaction.validate_sequence(sequence)
    if not interaction.all_nonpositive():
        raise InputError(
            "turn-based encodings need all pair energies <= 0 (gated interaction terms)"
        )
    pens = default_turn_tet_penalties(n, penalty_variant)
    if penalties:
        pens.update(penalties)
    lam1, lam2 = pens["lambda_1"], pens["lambda_2"]
    lam_turn, lam_gc = pens["lambda_turn"], pens["lambda_gc"]
    if min(lam1, lam2, lam_turn, lam_gc) <= 0:
        raise InputError("penalty multipliers must be strictly positive")

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

    def literal(t: int, a: int) -> Poly:
        bit = turns[t - 1][a]
        if isinstance(bit, str):
            return {(int(bit[1:]),): 1.0}
        return {(): float(bit)} if bit else {}

    def signed_counts(i: int, j: int) -> list[Poly]:
        """Per-direction signed turn counts between beads i < j (0-based)."""
        counts: list[Poly] = [dict() for _ in range(4)]
        for t in range(i + 1, j + 1):
            sign = 1.0 if t % 2 == 1 else -1.0
            for a in range(4):
                for key, c in literal(t, a).items():
                    counts[a][key] = counts[a].get(key, 0.0) + sign * c
        return counts

    def squared_distance(i: int, j: int) -> Poly:
        out: Poly = {}
        for diff in signed_counts(i, j):
            for key, c in poly_product([diff, diff]).items():
                out[key] = out.get(key, 0.0) + c
        return out

    acc = TermAccumulator()

    # one-hot penalty on free turns
    for t in range(3, n):
        block = [literal(t, a) for a in range(4)]
        expr: Poly = {(): -1.0}
        for lit in block:
            for key, c in lit.items():
                expr[key] = expr.get(key, 0.0) + c
        acc.add_poly(poly_product([expr, expr]), lam_turn)

    # growth constraint: consecutive turns may not repeat a direction
    for t in range(1, n - 1):
        for a in range(4):
            add_product(acc, literal(t, a), literal(t + 1, a), lam_gc)

    # gated contact terms with neighborhood overlap penalties
    for (i, j), q in interaction_qubits.items():
        eps = interaction.energy(sequence[i], sequence[j])
        inner: Poly = {(): eps - lam1}
        for key, c in squared_distance(i, j).items():
            inner[key] = inner.get(key, 0.0) + lam1 * c
        for r in chain_neighbors(j, n):
            lo, hi = min(i, r), max(i, r)
            inner[()] = inner.get((), 0.0) + 2.0 * lam2
            for key, c in squared_distance(lo, hi).items():
                inner[key] = inner.get(key, 0.0) - lam2 * c
        for m in chain_neighbors(i, n):
            lo, hi = min(m, j), max(m, j)
            inner[()] = inner.get((), 0.0) + 2.0 * lam2
            for key, c in squared_distance(lo, hi).items():
                inner[key] = inner.get(key, 0.0) - lam2 * c
        add_product(acc, {(q,): 1.0}, inner)

    objective = acc.build(num_vars)
    layout = {
        "type": "turn-tetrahedral",
        "L": None,
        "energy_shift": 0.0,
        "turns": turns,
        "interaction_qubits": {f"{i},{j}": q for (i, j), q in interaction_qubits.items()},
    }
    return EncodedModel(
        model=TURN_TETRAHEDRAL,
        objective=objective,
        sequence=sequence,
        interaction=interaction,
        penalties=pens,
        layout=layout,
    )


def _tet_signed_counts(dirs: np.ndarray, n: int) -> np.ndarray:
    """(configs, 4, n) cumulative signed direction counts per bead."""
    m = dirs.shape[0]
    counts = np.zeros((m, 4, n), dtype=np.int16)
    for bead in range(1, n):
        t = bead  # turn t moves bead t-1 -> bead t
        sign = 1 if t % 2 == 1 else -1
        counts[:, :, bead] = counts[:, :, bead - 1]
        for a in range(4):
            counts[:, a, bead] += sign * (dirs[:, t - 1] == a)
    return counts


def _tet_sq_distance(counts: np.ndarray, i: int, j: int) -> np.ndarray:
    diff = counts[:, :, j].astype(np.int32) - counts[:, :, i].astype(np.int32)
    return np.sum(diff * diff, axis=1)


def turn_tet_energies(dirs: np.ndarray, model: EncodedModel):
    """Energies of one-hot turn words plus the per-pair gate values."""
    n = len(model.sequence)
    pens = model.penalties
    lam1, lam2, lam_gc = pens["lambda_1"], pens["lambda_2"], pens["lambda_gc"]
    counts = _tet_signed_counts(dirs, n)
    energies = np.zeros(dirs.shape[0])
    if n >= 3:
        same = dirs[:, :-1] == dirs[:, 1:]
        energies += lam_gc * same.sum(axis=1)
    gate_values = {}
    dcache: dict[tuple[int, int], np.ndarray] = {}

    def dist(a: int, b: int) -> np.ndarray:
        key = (min(a, b), max(a, b))
        if key not in dcache:
            dcache[key] = _tet_sq_distance(counts, *key)
        return dcache[key]

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


def tet_ground_states(model: EncodedModel, tie_tol: float = 1e-9):
    """(minimum energy, all minimizing assignments) of a turn-tet model."""
    n = len(model.sequence)
    n_turns = n - 1
    choices = []
    for block in model.layout["turns"]:
        dirs = [a for a, bit in enumerate(block) if isinstance(bit, str)]
        if not dirs:
            dirs = [a for a, bit in enumerate(block) if bit == 1]
        choices.append(dirs)
    total = 1
    for c in choices:
        total *= len(c)
    if total > MAX_CONFIGS:
        raise InputError(f"{total} turn words exceed the enumeration budget")

    best = np.inf
    best_rows: list[tuple[np.ndarray, dict]] = []
    gates = interaction_pair_range(model.model, n)
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
        energies, gate_values = turn_tet_energies(dirs, model)
        cmin = float(energies.min())
        if cmin < best - tie_tol:
            best = cmin
            best_rows = []
        best = min(best, cmin)
        for idx in np.flatnonzero(energies <= best + tie_tol):
            best_rows.append(
                (dirs[idx].copy(), {p: float(gate_values[p][idx]) for p in gates})
            )

    assignments = []
    qubits = {tuple(map(int, k.split(","))): v for k, v in model.layout["interaction_qubits"].items()}
    for dirs_row, inner in best_rows:
        # re-filter: rows kept before later chunks lowered the minimum
        energy = _row_energy_tet(dirs_row, inner, model)
        if energy > best + tie_tol:
            continue
        a = np.zeros(model.num_vars, dtype=np.uint8)
        for t in range(3, n):
            block = model.layout["turns"][t - 1]
            a[int(block[dirs_row[t - 1]][1:])] = 1
        free_gates = []
        for pair, q in qubits.items():
            v = inner[pair]
            if v < -tie_tol:
                a[q] = 1
            elif abs(v) <= tie_tol:
                free_gates.append(q)
        assignments.extend(_expand_gates(a, free_gates))
    return best, assignments


def _row_energy_tet(dirs_row: np.ndarray, inner: dict, model: EncodedModel) -> float:
    pens = model.penalties
    gc = sum(1 for a, b in zip(dirs_row[:-1], dirs_row[1:]) if a == b)
    return pens["lambda_gc"] * gc + sum(min(0.0, v) for v in inner.values())
