"""Heuristic and exact minimization: simulated annealing with multi-flip
coloring parallelism, parallel tempering, and exhaustive brute force.

SA and PT share one Metropolis kernel over a block of rows (restarts or
replicas).  Every uniform is a pure function of (master seed, role,
restart/replica, sweep, variable).  `[Q; c]` is split onto two power-of-two
grids (`_exact_split`): a colour class's fields are two exact products, and
each row carries its energy as an exact pair that never drifts.  Reported
energies are `einsum`s with a fixed per-row order.  So no row depends on
the rows sharing its block or on the BLAS: SA results are bit-identical
however restarts are split into blocks or spread over `jobs` processes.
"""

from __future__ import annotations

import hashlib
import time
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    BOOLEAN,
    ISING,
    TIE_TOL,
    InputError,
    PolynomialObjective,
    code_bits,
    finite_float,
    ising_to_qubo,
    read_lines,
    rounding_gamma,
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


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> np.uint64(30))) * _M1
    x = (x ^ (x >> np.uint64(27))) * _M2
    return x ^ (x >> np.uint64(31))


def stable_seed(seed: int, role: str) -> int:
    """Deterministic sub-seed for a named role."""
    digest = hashlib.sha256(f"{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


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
            arr = (np.asarray(c, dtype=np.int64).astype(np.uint64) + np.uint64(1)) * _M0
            x = _mix(np.bitwise_xor(x, arr))
        return x


def counter_uniforms(key, *counters) -> np.ndarray:
    """Uniforms in [0,1) indexed by broadcastable integer counters.

    `key` is an int seed or a `_counter_state` that already holds a prefix of
    the counters.
    """
    return (_counter_state(key, *counters) >> np.uint64(11)).astype(np.float64) * _INV53


# ---------------------------------------------------------------------------
# configs and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaConfig:
    cooling_rate: float
    sweeps: int
    restarts: int
    seed: int
    t0: float | None = None  # None selects the automatic probe

    def __post_init__(self) -> None:
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

    @property
    def best_bits(self) -> np.ndarray:
        return self.bits[int(np.argmin(self.energies))]

    def to_csv(self, path, manifest_name: str = "-") -> None:
        with open(path, "w") as fh:
            fh.write(f"# manifest={manifest_name}\n")
            fh.write("assignment,energy,replica,sweep\n")
            for row, e, rep, sw in zip(self.bits, self.energies, self.replicas, self.sweeps):
                bitstring = "".join("1" if b else "0" for b in row)
                fh.write(f"{bitstring},{float(e)!r},{int(rep)},{int(sw)}\n")

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
        try:
            energies.append(float(e))
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

    def verify(self, obj: PolynomialObjective) -> bool:
        member = {}
        for ci, cls in enumerate(self.classes):
            for v in cls:
                member[v] = ci
        for key in obj.terms:
            for a_i in range(len(key)):
                for b_i in range(a_i + 1, len(key)):
                    if member[key[a_i]] == member[key[b_i]]:
                        return False
        return True


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


def _exact_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error-free split `a = hi + lo + r` of a matrix (after Ozaki, Ogita,
    Oishi & Rump, Numer. Algorithms 59, 2012).

    hi lies on one power-of-two grid g = 2^(e - 52), 2 * sum|a| < 2^e, and lo
    on the grid chosen the same way for a - hi.  A sum of entries of one part,
    each taken at most twice, is a multiple of its grid below 2^53 grid steps,
    so it is exact in any order (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    2008): `bits @ hi`, `bits @ lo` and energies summed from them have the same
    bits under any BLAS, row count or order.  |r| <= a.size * sum|a| * 2^-102.
    """
    def on_grid(x):
        _, e = np.frexp(2.0 * np.abs(x).sum())
        grid = np.ldexp(1.0, e - 52)
        return np.rint(x / grid) * grid

    hi = on_grid(a)
    return hi, on_grid(a - hi)  # a - hi is exact: |a - hi| <= grid / 2


class _Compiled:
    """Dense symmetric form of a quadratic problem in Boolean space."""

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
        self.c = np.zeros(n)
        self.Q = np.zeros((n, n))
        for key, coeff in qubo.terms.items():
            if len(key) == 1:
                self.c[key[0]] += coeff
            else:
                i, j = key
                self.Q[i, j] += coeff
                self.Q[j, i] += coeff
        self.colors = color_graph(qubo).classes
        # kernel layout: state column k is variable order[k], so a colour class
        # is a slice, then a constant 1 for c; per class, its columns of the split [Q; c]
        self.order = np.concatenate([np.zeros(0, dtype=np.int64), *self.colors])
        self.inverse = np.argsort(self.order)
        hi, lo = _exact_split(np.vstack([self.Q[self.order], self.c])[:, self.order])
        ends = np.cumsum([len(cls) for cls in self.colors]).tolist()
        self.blocks = [(slice(a, b), hi[:, a:b].copy(), lo[:, a:b].copy())  # C order: BLAS's fast layout here
                       for a, b in zip([0, *ends], ends)]

    # einsum, not BLAS @, on C-ordered rows: a fixed reduction order whatever the rows
    def energies(self, bits: np.ndarray) -> np.ndarray:
        b = bits.astype(np.float64, order="C")
        return self.offset + np.einsum("ri,i->r", b, self.c) + 0.5 * np.einsum("ri,ij,rj->r", b, self.Q, b)

    def local_fields(self, bits: np.ndarray) -> np.ndarray:
        return self.c + np.einsum("rn,nm->rm", bits.astype(np.float64, order="C"), self.Q)


# ---------------------------------------------------------------------------
# simulated annealing
# ---------------------------------------------------------------------------

def _atiqullah_t0(comp: _Compiled, rows: np.ndarray, key_state: int, key_var: int):
    """Per-restart start temperature from max(100, n) greedy probe flips on
    random states.

    With no variable there is nothing to flip; such a run never reads its
    temperature, and every restart gets 1.
    """
    n = comp.n
    if not n:
        return np.ones(len(rows))
    probe_n = max(100, n)
    bits = (counter_uniforms(key_state, rows[:, None], np.arange(n)[None, :]) < 0.5).astype(np.int8)
    fields = comp.local_fields(bits)
    samples = np.empty((len(rows), probe_n))
    accepted = np.zeros(len(rows))
    row_state = _counter_state(key_var, rows)
    for step in range(probe_n):
        u = counter_uniforms(row_state, step)
        vars_ = np.minimum((u * n).astype(np.int64), n - 1)
        picked = bits[np.arange(len(rows)), vars_].astype(np.float64)
        delta_e = (1.0 - 2.0 * picked) * fields[np.arange(len(rows)), vars_]
        samples[:, step] = delta_e
        take = delta_e <= 0.0
        accepted += take
        flip = np.where(take, 1.0 - 2.0 * picked, 0.0)
        bits[np.arange(len(rows)), vars_] = np.where(take, 1 - bits[np.arange(len(rows)), vars_], bits[np.arange(len(rows)), vars_])
        fields += flip[:, None] * comp.Q[vars_, :]
    mean = samples.mean(axis=1)
    std = samples.std(axis=1, ddof=1)
    chi = accepted / probe_n
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
    split, so its energy is offset + E_hi + E_lo.  The arrays are updated in
    place, so the caller may exchange rows between sweeps.  A class is
    proposed at once at its entry temperature; temperatures advance by
    `cooling` per proposed variable (1.0 keeps a fixed ladder).
    """
    key_init, key_prop = keys
    n = comp.n
    state = np.ones((len(rows), n + 1))
    state[:, :n] = counter_uniforms(key_init, rows[:, None], comp.order[None, :]) < 0.5
    pair = np.zeros((len(rows), 2))
    for cls, *parts in comp.blocks:  # a part's energy is x . (fields + c) / 2
        for k, part in enumerate(parts):
            pair[:, k] += np.einsum("ri,ri->r", state[:, cls], state @ part + part[-1]) / 2
    yield 0, state, pair

    # the (key, row) and (key, row, sweep) prefixes of the proposal counters
    # are mixed once; a sweep's uniforms are one table keyed by variable
    row_state = _counter_state(key_prop, rows[:, None])
    for sweep in range(sweeps):
        table = counter_uniforms(_counter_state(row_state, sweep), comp.order[None, :])
        for cls, hi, lo in comp.blocks:
            bits = state[:, cls]
            sign = 1.0 - 2.0 * bits
            # two products of width |class|, not one of 2|class|: each keeps the
            # M*N*K of the old field update, the size OpenBLAS sets its threads by
            d_hi, d_lo = sign * (state @ hi), sign * (state @ lo)  # the two parts of ΔE
            with np.errstate(over="ignore"):
                accepted = table[:, cls] < np.exp(np.maximum(d_hi + d_lo, 0.0) / -temps[:, None])
            # the spent uniforms hold the accepted hi parts; each part's sums are exact in any order
            np.multiply(d_hi, accepted, out=table[:, cls])
            pair[:, 1] += np.einsum("ri,ri->r", d_lo, accepted)
            state[:, cls] = bits != accepted
            temps = temps * cooling ** (cls.stop - cls.start)
        pair[:, 0] += table.sum(axis=1)
        yield sweep, state, pair


def _sa_rows(comp: _Compiled, cfg: SaConfig, rows: np.ndarray):
    n = comp.n
    if cfg.t0 is not None:
        temps = np.full(len(rows), float(cfg.t0))
    else:
        temps = _atiqullah_t0(comp, rows, stable_seed(cfg.seed, "sa-probe-state"),
                              stable_seed(cfg.seed, "sa-probe"))

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
    best_bits = best_state[:, comp.inverse]
    # report the unsplit coefficients' energies; the pair omits the split's residual
    return best_bits.astype(np.uint8), comp.energies(best_bits), best_sweep


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
    comp = _Compiled(problem)
    start = time.perf_counter()
    workers = max(1, min(jobs, os.cpu_count() or 1))
    chunks = _sa_blocks(cfg.restarts, comp.n, workers)
    if workers == 1 or len(chunks) == 1:
        parts = [_sa_rows(comp, cfg, rows) for rows in chunks]
    else:
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
    h.update(np.round(comp.c, 12).tobytes())
    h.update(np.round(comp.Q, 12).tobytes())
    return h.hexdigest()[:16]


def parallel_tempering(problem, cfg: PtConfig) -> PtResult:
    """Replica-exchange Monte Carlo on a fixed geometric temperature ladder.

    Every sweep performs coloring-parallel Metropolis in all replicas, then
    attempts swaps on alternating even/odd adjacent ladder pairs.  Slots are
    pinned to temperatures; a swap exchanges configurations.
    """
    comp = _Compiled(problem)
    ladder = temperature_ladder(cfg)
    m = cfg.num_temps
    n = comp.n
    key_swap = stable_seed(cfg.seed, "pt-swap")
    start = time.perf_counter()
    rows = np.arange(m, dtype=np.int64)

    best = np.full(2, np.inf)
    trajectory = np.zeros((cfg.sweeps, m), dtype=np.float32)
    measure_from = cfg.sweeps - cfg.measure_sweeps
    measure_states = np.zeros((cfg.measure_sweeps, n), dtype=np.uint8)

    keys = (stable_seed(cfg.seed, "pt-init"), stable_seed(cfg.seed, "pt-accept"))
    kernel = _metropolis(comp, keys, rows, cfg.sweeps, ladder, 1.0)
    next(kernel)  # the initial state is not a record
    for sweep, state, pair in kernel:
        lows = np.arange(sweep % 2, m - 1, 2)  # empty with one temperature
        highs = lows + 1
        exponent = (pair[lows] - pair[highs]).sum(axis=1) * (1.0 / ladder[lows] - 1.0 / ladder[highs])
        with np.errstate(over="ignore"):
            p_swap = np.where(exponent >= 0.0, 1.0, np.exp(exponent))
        u = counter_uniforms(key_swap, np.full(len(lows), sweep), lows)
        do = u < p_swap
        swap_lo, swap_hi = lows[do], highs[do]
        for arr in (state, pair):
            arr[swap_lo], arr[swap_hi] = arr[swap_hi].copy(), arr[swap_lo].copy()

        trajectory[sweep] = comp.offset + pair.sum(axis=1)
        gaps = (pair - pair[0]).sum(axis=1)  # the sweep's lowest row: first within TIE_TOL of its min
        row = int(np.argmax(gaps <= gaps.min() + TIE_TOL))
        if (pair[row] - best).sum() < -TIE_TOL:  # the rule `_sa_rows` keeps its best by
            best, best_state = pair[row].copy(), state[row, :n].copy()
        if sweep >= measure_from:
            measure_states[sweep - measure_from] = state[0, :n]

    wall = time.perf_counter() - start
    measure_states = measure_states[:, comp.inverse]
    best_bits = best_state[comp.inverse]
    measure_energies = comp.energies(measure_states)
    best_e = float(comp.energies(best_bits[None, :])[0])
    ss = SampleSet(
        space=comp.space,
        bits=np.vstack([measure_states, best_bits[None, :]]).astype(np.uint8),
        energies=np.concatenate([measure_energies, [best_e]]),
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

BRUTE_BLOCK_CELLS = 1 << 20


def _monomials(codes: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """0/1 table of each monomial (a variable bit mask) on each half-state code."""
    return ((codes[:, None] & masks[None, :]) == masks[None, :]).astype(np.float64)


def brute_force(obj, free_var_limit: int = 30):
    """Exhaustive minimum and the complete set of degenerate minimizers.

    Returns the least `evaluate_batch` energy over all 2^n assignments and
    every assignment within `TIE_TOL` of it, as uint8 rows in ascending code
    order (bit i of a code is variable i).

    Enumeration is blocked (after Bouillaguet et al., CHES 2010): variables
    0..nl-1, nl = ceil(n/2), are the low half and the rest the high half.
    A term T splits into a low monomial T_l and a high monomial T_h, so its
    coefficient is one entry C[h, l] of a (high monomials x low monomials)
    matrix, and for every degree

        E = offset + M_h C M_l^T

    where M_h and M_l are the 0/1 monomial tables over the 2^(n-nl) high and
    2^nl low half-states; E[h, l] is the state with code h * 2^nl + l.  E is
    formed in blocks of low and high codes, W = C M_l^T once per low block
    and one BLAS product M_h W per high block, so no table exceeds
    BRUTE_BLOCK_CELLS entries.

    Blocked energies round differently from `evaluate_batch`.  Both add exact
    products c_T * {0, 1}, so each is within gamma_k * S of the real energy,
    S = |offset| + sum |c_T|: k = len(terms) for `evaluate_batch`, and k = H +
    L + 1 for the blocked form (a length-L dot product, a length-H one, the
    offset) with H x L the shape of C.  delta = gamma_K * S, K = len(terms) +
    H + L + 2 (one more for the threshold's own addition), bounds their
    difference.  So a state within TIE_TOL of the least exact energy is
    within TIE_TOL + 2 delta of the least blocked energy, and of the running
    minimum, which only falls.  Those candidates are rescored with
    `evaluate_batch`, whose energy of a row does not depend on the other rows;
    the result is the one scoring all 2^n states with it would give.
    """
    boolean = ising_to_qubo(obj) if obj.space == ISING else obj
    n = boolean.num_vars
    if n > free_var_limit:
        raise ResourceRefusal(
            f"{n} free variables exceed the brute-force limit of {free_var_limit}"
        )

    nl = (n + 1) // 2
    low_of: dict[int, int] = {0: 0}  # monomial mask -> column of C
    high_of: dict[int, int] = {0: 0}  # monomial mask -> row of C
    entries = []
    for key, coeff in boolean.terms.items():
        mask = sum(1 << i for i in key)
        low = low_of.setdefault(mask & ((1 << nl) - 1), len(low_of))
        high = high_of.setdefault(mask >> nl, len(high_of))
        entries.append((high, low, coeff))
    C = np.zeros((len(high_of), len(low_of)))
    for high, low, coeff in entries:
        C[high, low] = coeff
    low_masks = np.fromiter(low_of, dtype=np.int64)
    high_masks = np.fromiter(high_of, dtype=np.int64)

    s_bound = abs(boolean.offset) + sum(abs(c) for c in boolean.terms.values())
    delta = rounding_gamma(len(boolean.terms) + C.shape[0] + C.shape[1] + 2) * s_bound
    window = TIE_TOL + 2.0 * delta

    lows, highs = 1 << nl, 1 << (n - nl)
    width = min(lows, max(1, BRUTE_BLOCK_CELLS // max(C.shape)))
    rows = max(1, min(BRUTE_BLOCK_CELLS // width, BRUTE_BLOCK_CELLS // C.shape[0]))
    running = np.inf
    found_codes, found_energies = [], []
    for l0 in range(0, lows, width):
        low_codes = np.arange(l0, min(l0 + width, lows))
        W = C @ _monomials(low_codes, low_masks).T
        for h0 in range(0, highs, rows):
            high_codes = np.arange(h0, min(h0 + rows, highs))
            energies = _monomials(high_codes, high_masks) @ W
            energies += boolean.offset
            running = min(running, float(energies.min()))
            h, l = np.nonzero(energies <= running + window)
            found_codes.append((high_codes[h] << nl) | low_codes[l])
            found_energies.append(energies[h, l])
    codes = np.concatenate(found_codes)
    codes = np.sort(codes[np.concatenate(found_energies) <= running + window])

    exact = boolean.evaluate_batch(code_bits(codes, n))
    best = float(exact.min())
    minimizers = np.ascontiguousarray(code_bits(codes[exact <= best + TIE_TOL], n))
    return best, list(minimizers)
