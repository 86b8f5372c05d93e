"""Heuristic and exact minimization: simulated annealing with multi-flip
coloring parallelism, parallel tempering, and exhaustive brute force.

SA and PT share one Metropolis kernel over a block of rows (restarts or
replicas).  Every uniform is a pure function of (master seed, role,
restart/replica, sweep, variable).  The problem's coefficients are split
onto two power-of-two grids (`PolynomialObjective.halves`) and scattered
into `[Q; c]`: a colour class's fields are two exact products, and each row
carries its energy as an exact pair that never drifts; a reported energy is
offset + (E_hi + E_lo), as `evaluate_batch` gives it.  So no row depends on
the rows sharing its block or on the BLAS: SA results are bit-identical
however restarts are split into blocks or spread over `jobs` processes.
"""

from __future__ import annotations

import hashlib
import time
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BOOLEAN,
    ISING,
    TIE_TOL,
    InputError,
    PolynomialObjective,
    assignment_strings,
    code_bits,
    energy_blocks,
    energy_sum,
    finite_float,
    is_int,
    ising_to_qubo,
    read_lines,
    write_csv,
)


class ResourceRefusal(RuntimeError):
    """Raised when an exact method would exceed its enumeration budget."""


# ---------------------------------------------------------------------------
# counter-based randomness (splitmix64 mixing chain)
# ---------------------------------------------------------------------------

_M0 = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / (1 << 53)


# `counter_uniforms` mixes and converts about this many cells at a time (whole
# entries of the first axis: variables in the kernel's table), so a chunk and
# the shift buffer stay in cache
_MIX_CELLS = 1 << 15


def _mix(x, shift=None):
    """The splitmix64 finaliser (Steele, Lea & Flood, OOPSLA 2014), in place on
    a uint64 array; `shift`, an array of x's shape, holds the shifted copies."""
    for bits, mult in ((30, _M1), (27, _M2), (31, None)):
        x ^= np.right_shift(x, np.uint64(bits), out=shift)
        if mult is not None:
            x *= mult
    return x


def stable_seed(seed: int, role: str) -> int:
    """Deterministic sub-seed for a named role."""
    digest = hashlib.sha256(f"{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _absorbed(c):
    """A counter's term of the chain, (c + 1) * M0 mod 2^64."""
    term = np.asarray(c, dtype=np.int64).astype(np.uint64)
    term += np.uint64(1)  # in place, so a 0-d term stays an array, which wraps silently
    term *= _M0
    return term


def _counter_state(key, *counters) -> np.ndarray:
    """uint64 mixer state after absorbing `counters`, in order, into `key`.

    `key` is an int seed or a state returned by an earlier call, so a shared
    counter prefix is mixed once: `_counter_state(_counter_state(k, a), b)`
    equals `_counter_state(k, a, b)` element for element.
    """
    with np.errstate(over="ignore"):
        if isinstance(key, np.ndarray):
            x = key
        else:
            x = _mix(np.asarray(np.uint64(key & 0xFFFFFFFFFFFFFFFF) + _M0, dtype=np.uint64))
        for c in counters:
            x = _mix(np.bitwise_xor(x, _absorbed(c)))
        return x


def counter_uniforms(key, *counters, out=None) -> np.ndarray:
    """Uniforms in [0,1) indexed by broadcastable integer counters.

    `key` is an int seed or a `_counter_state` that already holds a prefix of
    the counters.  With `out`, a float64 array of the counters' broadcast
    shape, the last counter is absorbed, mixed and converted in `out`'s own
    memory, which is returned: no full-size temporary.
    """
    x = _counter_state(key, *counters[:-1])
    term = _absorbed(counters[-1]) if counters else np.uint64(0)
    bits = np.asarray(np.bitwise_xor(x, term, out=None if out is None else out.view(np.uint64)))
    cells = bits.view(np.float64)
    chunks, floats = np.atleast_1d(bits, cells)
    step = max(1, _MIX_CELLS // max(1, chunks[:1].size))
    shift = np.empty_like(chunks[:step])
    for a in range(0, len(chunks), step):
        chunk = chunks[a:a + step]
        buf = shift[:len(chunk)]
        if counters:
            _mix(chunk, buf)
        chunk >>= np.uint64(11)
        # through the shift buffer: numpy copies an operand that overlaps its output
        floats[a:a + step] = np.multiply(chunk, _INV53, out=buf.view(np.float64))
    return cells[()] if out is None else out  # all-scalar counters give a scalar, as numpy does


# ---------------------------------------------------------------------------
# configs and results
# ---------------------------------------------------------------------------

def _check_ints(cfg, *names: str) -> None:
    """InputError unless each named field is an int, not a bool: the seed is hashed
    as text (True and 1 name two streams), and the summary writes a count as given."""
    for name in names:
        value = getattr(cfg, name)
        if not is_int(value):
            raise InputError(f"{name} {value!r} is not an integer")


@dataclass(frozen=True)
class SaConfig:
    cooling_rate: float
    sweeps: int
    restarts: int
    seed: int
    t0: float | None = None  # None selects the automatic probe

    def __post_init__(self) -> None:
        _check_ints(self, "seed", "sweeps", "restarts")
        if not (0.0 < self.cooling_rate < 1.0):
            raise InputError("cooling_rate must lie strictly inside (0, 1)")
        if self.sweeps < 1 or self.restarts < 1:
            raise InputError("sweeps and restarts must be positive")
        if self.t0 is not None and finite_float(self.t0, "t0") <= 0:
            raise InputError("fixed start temperature must be positive")


@dataclass(frozen=True)
class PtConfig:
    num_temps: int = 400
    t_min: float = 1.0
    t_max: float = 1e4
    sweeps: int = 1000
    measure_sweeps: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        _check_ints(self, "seed", "num_temps", "sweeps", "measure_sweeps")
        if self.num_temps < 1:
            raise InputError("need at least one temperature")
        if finite_float(self.t_min, "t_min") <= 0:
            raise InputError("t_min must be positive")
        if self.num_temps > 1 and not finite_float(self.t_max, "t_max") > self.t_min:
            raise InputError("need 0 < t_min < t_max")
        if not (0 < self.measure_sweeps <= self.sweeps):
            raise InputError("need 0 < measure_sweeps <= sweeps")


def temperature_ladder(cfg: PtConfig) -> np.ndarray:
    """Geometric ladder T_i = t_min * r^i with r = (t_max/t_min)^(1/(M-1))."""
    if cfg.num_temps == 1:
        return np.array([cfg.t_min])
    r = (cfg.t_max / cfg.t_min) ** (1.0 / (cfg.num_temps - 1))
    return cfg.t_min * r ** np.arange(cfg.num_temps)


@dataclass
class SampleSet:
    """Solver output: one record per restart (SA) or measured sweep (PT)."""

    space: str
    bits: np.ndarray  # (records, num_vars) uint8
    energies: np.ndarray
    replicas: np.ndarray
    sweeps: np.ndarray
    run_seconds: float
    tau_seconds: float
    meta: dict = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        return self.bits.shape[1]

    @property
    def best_energy(self) -> float:
        return float(self.energies.min()) if len(self.energies) else float("inf")

    def to_csv(self, path, manifest_name: str = "-") -> None:
        write_csv(path, manifest_name, ("assignment", "energy", "replica", "sweep"), zip(
            assignment_strings(self.bits), self.energies.astype(np.float64).tolist(),
            self.replicas.astype(np.int64).tolist(), self.sweeps.astype(np.int64).tolist()))

    def summary(self) -> dict:
        return {
            "num_vars": self.num_vars,
            "space": self.space,
            "records": len(self.energies),
            "best_energy": self.best_energy,
            "run_seconds": self.run_seconds,
            "tau_seconds": self.tau_seconds,
            **self.meta,
        }


def _is_fraction(text: str) -> bool:
    try:
        return 0.0 <= float(text) <= 1.0
    except ValueError:
        return False


def sample_set_from_csv(path) -> SampleSet:
    """Read a `to_csv` file; InputError names the first malformed line."""
    bits, energies, replicas, sweeps = [], [], [], []
    for lineno, line in enumerate(read_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("assignment"):
            continue
        where = f"{path} line {lineno}"
        fields = line.split(",")
        if len(fields) == 5 and _is_fraction(fields[4]):  # `unembed` output; not kept
            fields.pop()
        if len(fields) != 4:
            raise InputError(f"{where}: expected 4 fields assignment,energy,replica,sweep, "
                             f"or 5 with a chain_break_fraction in [0, 1], got {line!r}")
        bs, e, rep, sw = fields
        if bs.strip("01"):
            raise InputError(f"{where}: assignment {bs!r} is not a string of 0s and 1s")
        if bits and len(bs) != len(bits[0]):
            raise InputError(f"{where}: assignment has {len(bs)} bits, earlier rows have {len(bits[0])}")
        energies.append(finite_float(e, f"{where}: energy"))
        try:
            replicas.append(int(rep))
            sweeps.append(int(sw))
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from exc
        bits.append(bs)
    if not bits:
        raise InputError(f"no samples in {path}")
    arr = (np.frombuffer("".join(bits).encode(), dtype=np.uint8) - ord("0")).reshape(len(bits), len(bits[0]))
    return SampleSet(
        space=BOOLEAN,
        bits=arr,
        energies=np.array(energies),
        replicas=np.array(replicas),
        sweeps=np.array(sweeps),
        run_seconds=0.0,
        tau_seconds=0.0,
    )


# ---------------------------------------------------------------------------
# compiled quadratic form + graph coloring
# ---------------------------------------------------------------------------

@dataclass
class ColorClasses:
    """Partition of variables into internally coupling-free classes."""

    classes: list


def color_graph(obj: PolynomialObjective) -> ColorClasses:
    """Greedy independence partition of the objective's conflict graph.

    Deterministic: highest-degree-first ordering with lowest-feasible-color
    assignment.  Variables sharing any term land in different classes.
    """
    n = obj.num_vars
    adj: list[set] = [set() for _ in range(n)]
    for key in obj.terms:
        for a_i in range(len(key)):
            for b_i in range(a_i + 1, len(key)):
                adj[key[a_i]].add(key[b_i])
                adj[key[b_i]].add(key[a_i])
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    color = [-1] * n
    for v in order:
        used = {color[u] for u in adj[v] if color[u] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    num_colors = max(color, default=-1) + 1
    classes = [
        np.array([v for v in range(n) if color[v] == c], dtype=np.int64)
        for c in range(num_colors)
    ]
    return ColorClasses(classes=classes)


def _aligned_empty(shape, fill=None) -> np.ndarray:
    """A C-ordered float64 array whose data starts on a 64-byte boundary, so
    the kernel's speed does not depend on where earlier allocations left the
    heap; filled from `fill` (broadcast) if given."""
    nbytes = 8 * int(np.prod(shape))
    buf = np.empty(nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + nbytes].view(np.float64).reshape(shape)
    if fill is not None:
        out[...] = fill
    return out


class _Compiled:
    """A quadratic problem in Boolean space in the kernel's layout: its
    `[Q; c]` under each half of its coefficients' split, one fused block of
    rows per colour class."""

    def __init__(self, problem):
        if not isinstance(problem, PolynomialObjective):
            raise InputError(f"cannot solve a {type(problem).__name__}")
        if problem.degree > 2:
            raise InputError(
                f"solver requires degree <= 2, got degree {problem.degree}; quadratize first"
            )
        self.space = problem.space
        qubo = ising_to_qubo(problem) if problem.space == ISING else problem
        n = qubo.num_vars
        self.n = n
        self.offset = qubo.offset
        self.colors = color_graph(qubo).classes
        # kernel layout: state row k is variable order[k], so a colour class is a
        # slice, then a row of ones for c; per class, its columns of the split [Q; c]
        self.order = np.concatenate([np.zeros(0, dtype=np.int64), *self.colors])
        self.inverse = np.argsort(self.order)
        # each half's [Q; c] in kernel order: a coupling in its two cells, a field (i,)
        # in the c row; the keys are unique, so no cell sums two terms
        cells = np.array([(key[0], key[-1]) for key in qubo.terms], dtype=np.int64).reshape(-1, 2)
        i, j = self.inverse[cells].T
        hi, lo = parts = np.zeros((2, n + 1, n))
        for part, half in zip(parts, qubo.halves):
            part[np.where(i == j, n, i), j] = half
            part[j[i != j], i[i != j]] = half[i != j]
        ends = np.cumsum([len(cls) for cls in self.colors]).tolist()
        self.slices = [slice(a, b) for a, b in zip([0, *ends], ends)]
        # a class's columns of both parts, transposed and stacked: the C-ordered
        # (2|class|, n + 1) left factor of its products [hi.T; lo.T] @ state
        self.fused = [_aligned_empty((2 * (s.stop - s.start), n + 1), np.hstack([hi[:, s], lo[:, s]]).T)
                      for s in self.slices]

    @property
    def blocks(self):
        """Per class, (slice, hi, lo): (n + 1, |class|) views of its fused block's halves."""
        return [(s, *(half.T for half in np.split(f, 2))) for s, f in zip(self.slices, self.fused)]


# a product of at most this many multiply-adds stays on OpenBLAS's small-matrix path: at
# n + 1 = 190 and 432 rows, 12 rows (0.98 M) took 35.0 us and 13 rows 50.8 us, as threads woke
SMALL_PRODUCT = 10**6


def _products(comp: _Compiled, state: np.ndarray) -> list:
    """Per class, `(slice, d, pieces)`: `np.matmul(piece, state, out=part)` for each
    `(piece, part)` fills `d`, a view of one aligned buffer, with [hi.T; lo.T] @ state.
    A piece has at most max(|class|, b) rows, b = SMALL_PRODUCT // state.size cut
    to a multiple of 4: one product per class where that stays on the small path,
    and never more than two.  OpenBLAS takes rows 4 at a time: at n + 1 = 298 and
    216 rows, pieces of 15 and 1 rows took 45.7 us, of 12 and 4 rows 36.5 us."""
    most = SMALL_PRODUCT // max(1, state.size) // 4 * 4
    out = _aligned_empty((max(map(len, comp.fused), default=0), state.shape[1]))
    steps = []
    for cls, f in zip(comp.slices, comp.fused):
        size, d = max(len(f) // 2, most), out[:len(f)]
        steps.append((cls, d, [(f[a:a + size], d[a:a + size]) for a in range(0, len(f), size)]))
    return steps


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------

def _atiqullah_t0(comp: _Compiled, rows: np.ndarray, key: int):
    """Per-restart start temperature from every single flip of ceil(100/n)
    random states, at least max(100, n) energy changes (after Ben-Ameur,
    Comput. Optim. Appl. 29, 2004): (mean + 3 std) / ln(1/chi), with chi the
    share of changes <= 0.

    With no variable there is nothing to flip; such a run never reads its
    temperature, and every restart gets 1.
    """
    n = comp.n
    if not n:
        return np.ones(len(rows))
    states = -(-100 // n)
    # in the kernel's layout, as `_metropolis` holds a state: variable-major, and a
    # class's fields are its exact products d_hi and d_lo, of which only the sum rounds
    state = _aligned_empty((n + 1, len(rows) * states), 1.0)
    state[:n] = (counter_uniforms(key, rows[None, :, None], np.arange(states)[None, None, :],
                                  comp.order[:, None, None]) < 0.5).reshape(n, -1)
    # flipping i changes the energy by (1 - 2 b_i)(c_i + (b Q)_i), as Q's diagonal is 0
    samples = np.empty((n, state.shape[1]))
    for cls, d, pieces in _products(comp, state):
        for piece, part in pieces:
            np.matmul(piece, state, out=part)
        d_hi, d_lo = np.split(d, 2)
        samples[cls] = (1.0 - 2.0 * state[cls]) * (d_hi + d_lo)
    samples = samples[comp.inverse].T.reshape(len(rows), -1)  # per row, in variable order
    mean = samples.mean(axis=1)
    std = samples.std(axis=1, ddof=1)
    chi = (samples <= 0.0).mean(axis=1)
    t0 = np.ones(len(rows))
    normal = (chi > 0.0) & (chi < 1.0) & (mean + 3 * std > 0.0)
    t0[normal] = (mean[normal] + 3 * std[normal]) / np.log(1.0 / chi[normal])
    all_accepted = chi >= 1.0
    t0[all_accepted] = np.maximum(1e3 * std[all_accepted], 1.0)
    return t0


def _metropolis(comp: _Compiled, keys, rows: np.ndarray, sweeps: int, temps: np.ndarray, cooling: float):
    """Colour-class Metropolis sweeps over a block of rows (restarts or replicas).

    Yields `(sweep, state, pair)` for the random initial state (as sweep 0),
    then after each sweep; `state[:, comp.inverse]` are the bits, and a row
    of `pair` is the state's exact energy under the hi and the lo part of the
    split, so its energy is offset + (E_hi + E_lo).  Row r's labels, its counter
    id and temperature, start as `rows[r]` and `temps[r]` (copied); sending
    `(a, b)`, two arrays of rows, makes rows a[i] and b[i] trade labels.  A class is
    proposed at once at its entry temperature; temperatures advance by
    `cooling` per proposed variable (1.0 keeps a fixed ladder).
    The state is held variable-major, (n + 1, rows), so a class's bits and
    uniforms are contiguous blocks and its fields the products of `_products`;
    the yielded `state` is its (rows, n + 1) transposed view.
    """
    key_init, key_prop = keys
    n = comp.n
    ids = np.array(rows)
    neg_temps = -temps  # -(t * c) is -t * c exactly, so cooling it matches cooling temps
    table = _aligned_empty((n, len(rows)))  # refilled in place by every sweep
    state = _aligned_empty((n + 1, len(rows)), 1.0)
    np.less(counter_uniforms(key_init, rows[None, :], comp.order[:, None], out=table), 0.5, out=state[:n])
    products = _products(comp, state)
    pair = np.zeros((len(rows), 2))
    for cls, d, pieces in products:  # a part's energy is x . (fields + c) / 2
        for piece, part in pieces:
            np.matmul(piece, state, out=part)
            part += piece[:, -1:]
        for k, fields in enumerate(np.split(d, 2)):
            pair[:, k] += np.einsum("ir,ir->r", state[cls], fields) / 2
    yield 0, state.T, pair

    # per class, views of the step's buffers (sign, exponent, signed flips) and of d_hi and d_lo
    buffers = _aligned_empty((3, max((len(d) for _, d, _ in products), default=0) // 2, len(rows)))
    steps = [(pieces, state[cls], table[cls], *buffers[:, :len(d) // 2], *np.split(d, 2), cooling ** (len(d) // 2))
             for cls, d, pieces in products]
    for sweep in range(sweeps):
        # a sweep's uniforms are one table keyed by variable, after the (key, id, sweep) prefix
        counter_uniforms(_counter_state(key_prop, ids[None, :], sweep), comp.order[:, None], out=table)
        # -ΔE/T overflows at a tiny T, and is ±inf or 0/0 = NaN at a T cooled to 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for pieces, bits, spent, sign, expo, flips, d_hi, d_lo, cool in steps:
                np.subtract(1.0, bits, out=sign)
                sign -= bits
                for piece, part in pieces:
                    np.matmul(piece, state, out=part)
                np.add(d_hi, d_lo, out=expo)
                expo *= sign  # ΔE, as sign * d_hi + sign * d_lo rounds: sign is ±1
                # -ΔE/T; where ΔE <= 0, exp gives at least 1, above every uniform
                np.divide(expo, neg_temps, out=expo)
                np.exp(expo, out=expo)
                # float 0/1, not bool: numpy casts a bool operand of a float op element by element
                np.less(spent, expo, out=flips)
                flips *= sign  # +1 sets a bit, -1 clears it
                # the spent uniforms hold the accepted hi parts of ΔE; each part's sums are exact in any order
                np.multiply(d_hi, flips, out=spent)
                d_lo *= flips
                pair[:, 1] += d_lo.sum(axis=0)
                bits += flips
                neg_temps *= cool
        pair[:, 0] += table.sum(axis=0)
        exchange = yield sweep, state.T, pair
        if exchange is not None:
            a, b = exchange
            for label in (ids, neg_temps):
                label[a], label[b] = label[b], label[a]


def _sa_rows(comp: _Compiled, cfg: SaConfig, rows: np.ndarray):
    n = comp.n
    if cfg.t0 is not None:
        temps = np.full(len(rows), float(cfg.t0))
    else:
        temps = _atiqullah_t0(comp, rows, stable_seed(cfg.seed, "sa-probe"))

    keys = (stable_seed(cfg.seed, "sa-init"), stable_seed(cfg.seed, "sa-accept"))
    best = np.full((len(rows), 2), np.inf)
    best_state = np.zeros((len(rows), n), dtype=np.int8)
    best_sweep = np.zeros(len(rows), dtype=np.int64)
    for sweep, state, pair in _metropolis(comp, keys, rows, cfg.sweeps, temps, cfg.cooling_rate):
        # an exact energy difference, rounded once: a state within TIE_TOL keeps the first
        improved = (pair - best).sum(axis=1) < -TIE_TOL
        best[improved] = pair[improved]
        best_state[improved] = state[improved, :n]
        best_sweep[improved] = sweep
    return best_state[:, comp.inverse].astype(np.uint8), energy_sum(comp.offset, best.T), best_sweep


# a block's kernel state and uniform table hold about this many float64 cells each (8 MB)
SA_BLOCK_CELLS = 1 << 20


def _sa_blocks(restarts: int, n: int, workers: int) -> list[np.ndarray]:
    """Restart indices split evenly into one block per worker, or into more
    blocks where one block would exceed SA_BLOCK_CELLS cells."""
    blocks = max(workers, -(-restarts * n // SA_BLOCK_CELLS))
    return np.array_split(np.arange(restarts, dtype=np.int64), min(blocks, restarts))


def simulated_annealing(problem, cfg: SaConfig, jobs: int = 1) -> SampleSet:
    """Best-seen assignment per restart; restarts run as vectorized rows.

    Proposals sweep the color classes in a fixed order, proposing every
    variable of the active class simultaneously at the class-entry
    temperature.  Restarts are split evenly into one block per worker
    (`jobs`, capped at the CPU count), and into more blocks only where a
    block would exceed SA_BLOCK_CELLS cells.  Randomness is keyed by absolute
    restart index and no row's arithmetic depends on its block, so results
    are bit-identical however restarts are split or spread over processes.
    """
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    comp = _Compiled(problem)
    start = time.perf_counter()
    workers = min(jobs, os.cpu_count() or 1)
    chunks = _sa_blocks(cfg.restarts, comp.n, workers)
    if workers == 1 or len(chunks) == 1:
        parts = [_sa_rows(comp, cfg, rows) for rows in chunks]
    else:
        # imported here: the pool's modules cost every other process ~6 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            parts = list(pool.map(_sa_rows, [comp] * len(chunks), [cfg] * len(chunks), chunks))
    bits, energies, sweeps = (np.concatenate(column) for column in zip(*parts))
    wall = time.perf_counter() - start
    return SampleSet(
        space=comp.space,
        bits=bits,
        energies=energies,
        replicas=np.arange(cfg.restarts, dtype=np.int64),
        sweeps=sweeps,
        run_seconds=wall,
        tau_seconds=wall / cfg.restarts,
        meta={"solver": "sa", "restarts": cfg.restarts, "seed": cfg.seed,
              "cooling_rate": cfg.cooling_rate, "sa_sweeps": cfg.sweeps,
              "colour_classes": len(comp.colors)},
    )


# ---------------------------------------------------------------------------
# parallel tempering
# ---------------------------------------------------------------------------

@dataclass
class PtResult:
    sample_set: SampleSet  # the lowest-T slot's measured sweeps, then the best state
    energy_trajectory: np.ndarray  # (sweeps, num_temps) float32, post-swap


def _problem_fingerprint(comp: _Compiled) -> str:
    h = hashlib.sha256()
    h.update(np.int64(comp.n).tobytes())
    for _, *parts in comp.blocks:
        for part in parts:
            h.update(part.tobytes())
    return h.hexdigest()[:16]


def parallel_tempering(problem, cfg: PtConfig) -> PtResult:
    """Replica-exchange Monte Carlo on a fixed geometric temperature ladder.

    Every sweep performs coloring-parallel Metropolis in all replicas, then
    attempts swaps on alternating even/odd adjacent ladder pairs.  Slots are
    pinned to temperatures; a swap trades two kernel rows' labels (counter id
    and temperature), and `where[slot]` is the row holding the slot's state.
    """
    comp = _Compiled(problem)
    ladder = temperature_ladder(cfg)
    m = cfg.num_temps
    n = comp.n
    key_swap = stable_seed(cfg.seed, "pt-swap")
    start = time.perf_counter()
    where = np.arange(m, dtype=np.int64)

    best = np.full(2, np.inf)
    trajectory = np.zeros((cfg.sweeps, m), dtype=np.float32)
    measure_from = cfg.sweeps - cfg.measure_sweeps
    measure_states = np.zeros((cfg.measure_sweeps, n), dtype=np.uint8)
    measure_energies = np.zeros(cfg.measure_sweeps)

    keys = (stable_seed(cfg.seed, "pt-init"), stable_seed(cfg.seed, "pt-accept"))
    kernel = _metropolis(comp, keys, where, cfg.sweeps, ladder, 1.0)
    next(kernel)  # the initial state is not a record
    exchange = None
    for sweep in range(cfg.sweeps):
        _, state, pair = kernel.send(exchange)
        lows = np.arange(sweep % 2, m - 1, 2)  # empty with one temperature
        highs = lows + 1
        # 1/T overflows near T = 1e-308, and NaN (inf - inf, 0 * inf) never swaps
        with np.errstate(over="ignore", invalid="ignore"):
            diff = (pair[where[lows]] - pair[where[highs]]).sum(axis=1)
            exponent = diff * (1.0 / ladder[lows] - 1.0 / ladder[highs])
            p_swap = np.where(exponent >= 0.0, 1.0, np.exp(exponent))
        u = counter_uniforms(key_swap, np.full(len(lows), sweep), lows)
        do = u < p_swap
        exchange = where[lows[do]], where[highs[do]]
        where[lows[do]], where[highs[do]] = exchange[1], exchange[0]
        slots = pair[where]  # the energy pairs in slot order
        energies = energy_sum(comp.offset, slots.T)
        trajectory[sweep] = energies
        gaps = (slots - slots[0]).sum(axis=1)  # the sweep's lowest slot: first within TIE_TOL of its min
        slot = int(np.argmax(gaps <= gaps.min() + TIE_TOL))
        if (slots[slot] - best).sum() < -TIE_TOL:  # the rule `_sa_rows` keeps its best by
            best, best_state = slots[slot], state[where[slot], :n].copy()
        if sweep >= measure_from:
            measure_states[sweep - measure_from] = state[where[0], :n]
            measure_energies[sweep - measure_from] = energies[0]

    wall = time.perf_counter() - start
    ss = SampleSet(
        space=comp.space,
        bits=np.vstack([measure_states[:, comp.inverse], best_state[None, comp.inverse]]).astype(np.uint8),
        energies=np.append(measure_energies, energy_sum(comp.offset, best)),
        replicas=np.concatenate([np.zeros(cfg.measure_sweeps, dtype=np.int64), [-1]]),
        sweeps=np.concatenate([np.arange(measure_from, cfg.sweeps), [cfg.sweeps]]),
        run_seconds=wall,
        tau_seconds=wall,
        meta={"solver": "pt", "seed": cfg.seed, "num_temps": m,
              "t_min": cfg.t_min, "t_max": cfg.t_max, "pt_sweeps": cfg.sweeps,
              "measure_sweeps": cfg.measure_sweeps, "problem_fingerprint": _problem_fingerprint(comp),
              "colour_classes": len(comp.colors)},
    )
    return PtResult(ss, trajectory)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def brute_force(obj, free_var_limit: int = 30):
    """Exhaustive minimum and the complete set of degenerate minimizers.

    Returns the least energy over all 2^n assignments and every assignment
    within `TIE_TOL` of it, as uint8 rows in ascending code order (bit i of a
    code is variable i).  The energies are `core.energy_blocks`'s, variables
    0..ceil(n/2)-1 the low half, rounded as `evaluate_batch` rounds them; a
    state whose energy is NaN (its terms overflow float64) is no minimizer.
    """
    boolean = ising_to_qubo(obj) if obj.space == ISING else obj
    n = boolean.num_vars
    if n > free_var_limit:
        raise ResourceRefusal(f"{n} free variables exceed the brute-force limit of {free_var_limit}")

    nl = (n + 1) // 2
    running, found_codes, found_energies = np.inf, [], []
    for low_codes, high_blocks in energy_blocks(boolean, nl):
        for high_codes, parts in high_blocks:
            energies = energy_sum(boolean.offset, parts)
            least = float(np.fmin.reduce(energies, axis=None))  # the least non-NaN energy
            running = min(running, least)
            if least <= running + TIE_TOL:  # else no state of the block is within reach
                h, l = np.nonzero(energies <= running + TIE_TOL)
                found_codes.append((high_codes[h] << nl) | low_codes[l])
                found_energies.append(energies[h, l])
    codes = np.concatenate(found_codes)
    codes = np.sort(codes[np.concatenate(found_energies) <= running + TIE_TOL])
    return running, list(np.ascontiguousarray(code_bits(codes, n)))


def brute_force_samples(obj, free_var_limit: int = 30) -> SampleSet:
    """`brute_force` as a SampleSet: one record per minimizer, each at the
    least energy; run and tau seconds are the enumeration's."""
    start = time.perf_counter()
    energy, minimizers = brute_force(obj, free_var_limit=free_var_limit)
    wall = time.perf_counter() - start
    return SampleSet(
        space=obj.space,
        bits=np.array(minimizers, dtype=np.uint8),
        energies=np.full(len(minimizers), energy),
        replicas=np.arange(len(minimizers)),
        sweeps=np.zeros(len(minimizers), dtype=np.int64),
        run_seconds=wall,
        tau_seconds=wall,
        meta={"solver": "brute", "minimizers": len(minimizers)},
    )
