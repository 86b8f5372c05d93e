"""Reference copies of the term-by-term exact solvers, of the two-stage
problem loader, of the field and coupling table builders, of the per-chain
unembedding, of the incremental-field Metropolis kernel, of the allocating
exact split, of the whole-table reduction check and of the
configuration-exchange parallel tempering, for differential tests.

`exact_energies` is offset + the correctly rounded sum of each row's terms
(`math.fsum`), which `evaluate_batch` must equal wherever the split of the
coefficients leaves no remainder.
`quadratize` recounts every pair of every high-degree term after each
substitution, `brute_force` scores every state with `exact_energies` (a
float64 term loop, `evaluate_batch`, only picks the candidates),
`ising_to_qubo` adds every contribution through
`TermAccumulator.add`, `problem_from_dict` checks every document term
before it sums them through `TermAccumulator.add`, `ising_problem_from_dict`,
`qubo_to_ising` and `apply_embedding` sum into a field table and a coupling
table that `ising_from_tables` joins, and `unembed` draws one tie coin per
chain.  The package's versions use an incremental pair index, a blocked
matrix product, a direct fill of the term dict, one pass over the document
terms, one term dict that `IsingProblem` orders fields first, and one coin
draw per sample; they must return the same outputs bit for bit.  `metropolis` keeps a (rows x n)
field array that every colour class updates with a BLAS product, and a
float64 energy that it re-evaluates every FULL_REEVAL_FLIPS proposals,
failing on a drift above its tolerance; the package's kernel computes each
class's fields from the bits, carries an exact energy pair
(`pair_energies`), and must visit the same states.  `dense_form` builds the
dense Q and c that `_Compiled` held before it built its split straight from
the term cells, `kernel_matrix` the `[Q; c]` it split (of one half's
coefficients, the half that `_Compiled` scatters now), and `dense_energies`
the einsum evaluator it reported energies with.  `exact_split` makes a
new array at each step where the package's split rounds and scales in
place; the parts must be equal bit for bit.  `verify_quadratization` scans
every case, sampling VERIFY_SAMPLES rows where n is above the budget and
holding all rows at once, and takes each scanned cost as the correctly
rounded difference of the two states' terms; the package proves the gap
where its per-auxiliary certificate holds, scans in blocks where it does
not and n is within the budget, and refuses the reduction elsewhere, so
each of its passes must be a pass here, a certificate at most the scanned
gap, and a scanned gap equal.
`parallel_tempering` exchanges whole configurations and energy pairs between
the kernel's rows, so each row keeps its counter id and temperature; the
package's PT exchanges the two rows' labels instead and must return the same
records, trajectory and fingerprint byte for byte.
"""

import hashlib
import math
from collections import Counter
from itertools import combinations

import numpy as np

from latticefold import core
from latticefold.core import (
    BOOLEAN,
    ISING,
    TIE_TOL,
    IsingProblem,
    InputError,
    PolynomialObjective,
    TermAccumulator,
    code_bits,
)
from latticefold.reduction import QuadratizationResult, resolve_alpha
from latticefold.solvers import (
    PtResult,
    SampleSet,
    _Compiled,
    _counter_state,
    _metropolis,
    counter_uniforms,
    stable_seed,
    temperature_ladder,
)

FULL_REEVAL_FLIPS = 10_000
DRIFT_TOL = 1e-6


def evaluate_batch(obj, bits):
    bits = np.asarray(bits, dtype=np.float64)
    energies = np.full(bits.shape[0], obj.offset, dtype=np.float64)
    for key, coeff in obj.terms.items():
        prod = bits[:, key[0]].copy()
        for i in key[1:]:
            prod *= bits[:, i]
        energies += coeff * prod
    return energies


def term_table(obj, bits):
    """Row r, column t: the exact product c_T * prod_T of term t at row r."""
    bits = np.asarray(bits, dtype=np.float64)
    table = np.ones((len(bits), len(obj.terms)))
    for t, key in enumerate(obj.terms):
        for i in key:
            table[:, t] *= bits[:, i]
    return table * np.fromiter(obj.terms.values(), np.float64, len(obj.terms))


def exact_energies(obj, bits):
    """offset + the correctly rounded sum (`math.fsum`) of each row's terms:
    offset + fl(S), S the exact value of the polynomial."""
    return np.array([obj.offset + math.fsum(row) for row in term_table(obj, bits).tolist()],
                    dtype=np.float64)


def exact_differences(obj, bits, base):
    """fl(S(bits) - S(base)) per row, correctly rounded by `math.fsum`."""
    return np.array([math.fsum(a + [-x for x in b])
                     for a, b in zip(term_table(obj, bits).tolist(), term_table(obj, base).tolist())],
                    dtype=np.float64)


def split_leaves_no_remainder(obj):
    """Whether hi + lo of `exact_split` of the coefficient vector is every
    coefficient exactly."""
    coeffs = np.fromiter(obj.terms.values(), np.float64, len(obj.terms))
    hi, lo = exact_split(coeffs)
    return all(math.fsum((c, -h, -l)) == 0.0 for c, h, l in zip(coeffs, hi, lo))


def near_minimum(approx, obj, tie_tol):
    """Indices of the rows whose term-loop energies `approx` can lie within
    `tie_tol` of the least exact one: each is within obj.rounding_bound of
    the real energy, and so is each correctly rounded one."""
    return np.flatnonzero(approx <= approx.min() + tie_tol + 4.0 * obj.rounding_bound)


def quadratize(hubo, alpha_policy="worst_case"):
    alpha = resolve_alpha(hubo, alpha_policy)
    if hubo.degree <= 2:
        qubo = PolynomialObjective(
            num_vars=hubo.num_vars, terms=dict(hubo.terms), offset=hubo.offset
        )
        return QuadratizationResult(qubo=qubo, aux_map=[], alpha=alpha)

    terms = {frozenset(k): c for k, c in hubo.terms.items()}
    next_var = hubo.num_vars
    aux_of_pair = {}
    aux_map = []

    while True:
        high = [k for k in terms if len(k) > 2]
        if not high:
            break
        counts = Counter()
        for key in high:
            for pair in combinations(sorted(key), 2):
                counts[pair] += 1
        best_pair = min(counts, key=lambda p: (-counts[p], p))
        i, j = best_pair
        if best_pair in aux_of_pair:
            aux = aux_of_pair[best_pair]
        else:
            aux = next_var
            next_var += 1
            aux_of_pair[best_pair] = aux
            aux_map.append((aux, best_pair))
        new_terms = {}
        for key, coeff in terms.items():
            if len(key) > 2 and i in key and j in key:
                key = (key - {i, j}) | {aux}
            new_terms[key] = new_terms.get(key, 0.0) + coeff
        terms = {k: c for k, c in new_terms.items() if c != 0.0}

    acc = TermAccumulator()
    acc.offset = hubo.offset
    for key, coeff in terms.items():
        acc.add(tuple(sorted(key)), coeff)
    for aux, (i, j) in aux_map:
        acc.add((i, j), alpha)
        acc.add((i, aux), -2.0 * alpha)
        acc.add((j, aux), -2.0 * alpha)
        acc.add((aux,), 3.0 * alpha)
    qubo = acc.build(next_var)
    return QuadratizationResult(qubo=qubo, aux_map=aux_map, alpha=alpha)


def ising_to_qubo(p):
    acc = TermAccumulator()
    acc.offset = p.offset
    for i, h in p.fields.items():
        acc.add((i,), 2.0 * h)
        acc.offset -= h
    for (i, j), jij in p.couplings.items():
        acc.add((i, j), 4.0 * jij)
        acc.add((i,), -2.0 * jij)
        acc.add((j,), -2.0 * jij)
        acc.offset += jij
    return acc.build(p.num_vars)


def ising_from_tables(num_vars, fields, couplings, offset):
    """Fields {i: h_i} first, then couplings {(i, j): J_ij}, each in table
    order; zeros dropped."""
    terms = {(i,): h for i, h in fields.items() if h != 0.0}
    terms.update((key, jij) for key, jij in couplings.items() if jij != 0.0)
    return IsingProblem(num_vars=num_vars, terms=terms, offset=offset)


def qubo_to_ising(q):
    fields, couplings = {}, {}
    offset = q.offset
    for key, c in q.terms.items():
        if len(key) == 1:
            i = key[0]
            fields[i] = fields.get(i, 0.0) + c / 2.0
            offset += c / 2.0
        else:
            i, j = key
            couplings[(i, j)] = couplings.get((i, j), 0.0) + c / 4.0
            fields[i] = fields.get(i, 0.0) + c / 4.0
            fields[j] = fields.get(j, 0.0) + c / 4.0
            offset += c / 4.0
    return ising_from_tables(q.num_vars, fields, couplings, offset)


def apply_embedding(ising, emb, hw, chain_strength):
    """(embedded Ising problem, node order, chain edge count) of a valid
    embedding."""
    node_order = tuple(emb.physical_nodes())
    idx = {p: i for i, p in enumerate(node_order)}
    fields, couplings = {}, {}

    def add_coupling(u, v, value):
        key = (min(u, v), max(u, v))
        couplings[key] = couplings.get(key, 0.0) + value

    for logical, h in ising.fields.items():
        chain = emb.chains[logical]
        share = h / len(chain)
        for p in chain:
            fields[idx[p]] = fields.get(idx[p], 0.0) + share
    for (i, j), jij in ising.couplings.items():
        connecting = sorted(
            (min(idx[u], idx[v]), max(idx[u], idx[v]))
            for u in emb.chains[i] for v in emb.chains[j] if hw.has_edge(u, v)
        )
        add_coupling(*connecting[0], jij)
    chain_edges = 0
    for chain in emb.chains.values():
        chain = sorted(chain)
        for a in range(len(chain)):
            for b in range(a + 1, len(chain)):
                if hw.has_edge(chain[a], chain[b]):
                    add_coupling(idx[chain[a]], idx[chain[b]], -abs(chain_strength))
                    chain_edges += 1
    offset = ising.offset + abs(chain_strength) * chain_edges
    return ising_from_tables(len(node_order), fields, couplings, offset), node_order, chain_edges


def problem_terms(raw_terms, num_vars):
    """(variables, coefficient) of each document term; InputError names a bad one."""
    if not isinstance(raw_terms, list):
        raise InputError("problem terms must be a list")
    terms = []
    for i, t in enumerate(raw_terms):
        try:
            vars_ = t["vars"]
            if not (isinstance(vars_, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in vars_)):
                raise TypeError(f"variables {vars_!r} are not a list of integers")
            coeff = float(t["coeff"])
        except KeyError as exc:
            raise InputError(f"problem term {i} has no {exc} key") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed problem term {i}: {exc}") from exc
        if not all(0 <= v < num_vars for v in vars_):
            raise InputError(f"problem term {i}: variables {vars_} out of range for {num_vars} vars")
        if not np.isfinite(coeff):
            raise InputError(f"problem term {i}: coefficient {coeff} is not finite")
        terms.append((vars_, coeff))
    return terms


def problem_from_dict(doc):
    """The two-stage loader: every term checked by `problem_terms`, then
    summed through `TermAccumulator.add`.  A sum that overflows, of a term or
    of the offset, is named by the constructor's check, as in the package."""
    try:
        num_vars = doc["num_vars"]
        offset = float(doc.get("offset", 0.0))
        space = doc.get("space", BOOLEAN)
        raw_terms = doc.get("terms", [])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed problem document: {exc}") from exc
    if (not isinstance(num_vars, int) or isinstance(num_vars, bool) or num_vars < 0
            or not np.isfinite(offset) or space not in (BOOLEAN, ISING)):
        raise InputError(
            f"malformed problem document: num_vars={num_vars!r}, offset={offset}, space={space!r}"
        )
    acc = TermAccumulator()
    acc.offset = offset
    for i, (vars_, c) in enumerate(problem_terms(raw_terms, num_vars)):
        if space == ISING and not (len(vars_) in (1, 2) and len(set(vars_)) == len(vars_)):
            raise InputError(f"problem term {i}: an ising term names one or two distinct spins, got {vars_}")
        acc.add(vars_, c)
    try:
        if space == ISING:
            terms = sorted(acc.terms.items(), key=lambda kv: len(kv[0]))
            return IsingProblem(num_vars=num_vars, terms={k: c for k, c in terms if c != 0.0},
                                offset=acc.offset)
        return acc.build(num_vars)
    except ValueError as exc:
        raise InputError(f"malformed problem document: {exc}") from exc


def ising_problem_from_dict(doc):
    """The Ising branch of `problem_from_dict` with its own field and coupling
    tables, each summed in document order."""
    num_vars = int(doc["num_vars"])
    fields, couplings = {}, {}
    for i, (vars_, c) in enumerate(problem_terms(doc["terms"], num_vars)):
        key = tuple(sorted(vars_))
        if len(key) == 1:
            fields[key[0]] = fields.get(key[0], 0.0) + c
        elif len(key) == 2 and key[0] != key[1]:
            couplings[key] = couplings.get(key, 0.0) + c
        else:
            raise InputError(f"problem term {i}: an ising term names one or two distinct spins, got {vars_}")
    return ising_from_tables(num_vars, fields, couplings, float(doc.get("offset", 0.0)))


def unembed(physical_bits, emb, node_order, seed=0, sample_index=0):
    """Majority vote per chain, a tie broken by its own coin,
    counter_uniforms(key, sample_index, var)."""
    bits = np.asarray(physical_bits)
    if bits.shape != (len(node_order),):
        raise InputError(f"sample covers {bits.shape} nodes, embedding uses {len(node_order)}")
    idx = {p: i for i, p in enumerate(node_order)}
    logical = np.zeros(max(emb.chains) + 1, dtype=np.uint8)
    broken = 0
    key = stable_seed(seed, "unembed-ties")
    for var, chain in sorted(emb.chains.items()):
        votes = [int(bits[idx[p]]) for p in chain]
        ones = sum(votes)
        if 0 < ones < len(votes):
            broken += 1
        if ones * 2 > len(votes):
            logical[var] = 1
        elif ones * 2 < len(votes):
            logical[var] = 0
        else:
            logical[var] = counter_uniforms(key, sample_index, var) < 0.5
    return logical, broken / len(emb.chains)


def brute_force(obj, tie_tol=1e-9, chunk=1 << 18):
    """Every state scored with `exact_energies`; the term loop only picks
    the candidates, a superset of the rows within `tie_tol` of the least
    exact energy (`near_minimum`)."""
    boolean = ising_to_qubo(obj) if isinstance(obj, IsingProblem) else obj
    n = boolean.num_vars
    keep_codes = []
    shifts = np.arange(n, dtype=np.uint64)
    best = np.inf
    for lo in range(0, 1 << n, chunk):
        hi = min(lo + chunk, 1 << n)
        codes = np.arange(lo, hi, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.float64)
        near = near_minimum(evaluate_batch(boolean, bits), boolean, tie_tol)
        energies = exact_energies(boolean, bits[near])
        best = min(best, float(energies.min()))
        keep_codes.extend(zip(codes[near].tolist(), energies.tolist()))
    final = [c for c, e in keep_codes if e <= best + tie_tol]
    assignments = [
        ((np.uint64(c) >> shifts) & np.uint64(1)).astype(np.uint8) for c in sorted(final)
    ]
    return best, assignments


def splitmix_uniforms(key, *counters):
    """`solvers.counter_uniforms` as it was before its chain went in place:
    each splitmix64 step on whole arrays, then one conversion."""
    def mix(x):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    m0 = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        x = mix(np.asarray(np.uint64(key & 0xFFFFFFFFFFFFFFFF) + m0, dtype=np.uint64))
        for c in counters:
            x = mix(x ^ ((np.asarray(c, dtype=np.int64).astype(np.uint64) + np.uint64(1)) * m0))
    return (x >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def dense_form(problem, coeffs=None):
    """(Q, c) of a quadratic problem in Boolean space: Q dense and symmetric
    with a zero diagonal, c its fields, filled from one cell per term with its
    coefficient, or with `coeffs[t]` for term t."""
    qubo = core.ising_to_qubo(problem) if problem.space == ISING else problem
    n = qubo.num_vars
    cells = np.array([(key[0], key[-1]) for key in qubo.terms], dtype=np.int64).reshape(-1, 2)
    upper = np.zeros((n, n))
    upper[cells[:, 0], cells[:, 1]] = np.fromiter(qubo.terms.values(), np.float64, len(cells)) if coeffs is None else coeffs
    c = upper.diagonal().copy()
    np.fill_diagonal(upper, 0.0)
    return upper + upper.T, c


def kernel_matrix(comp, Q, c):
    """`[Q; c]` in the kernel's order, rows and columns permuted by
    `comp.order`, c the last row: the matrix `_Compiled` used to split."""
    return np.vstack([Q[comp.order], c])[:, comp.order]


def dense_energies(offset, Q, c, bits):
    """offset + c.x + x Q x / 2 per row, as einsums with a fixed order per row."""
    b = bits.astype(np.float64, order="C")
    return offset + np.einsum("ri,i->r", b, c) + 0.5 * np.einsum("ri,ij,rj->r", b, Q, b)


def metropolis(comp, dense, keys, rows, sweeps, temps, cooling):
    """Yields `(sweep, bits, fields, energies)` for the random initial state
    (as sweep 0), then after each sweep; bits are in variable order, and
    `dense` is the `dense_form` of comp's problem."""
    key_init, key_prop = keys
    n = comp.n
    Q, c = dense
    flip_rounding = (
        0.5 * np.finfo(np.float64).eps * len(comp.colors) / max(n, 1)
        * (abs(comp.offset) + np.abs(c).sum() + np.abs(np.triu(Q)).sum())
    )
    bits = (counter_uniforms(key_init, rows[:, None], np.arange(n)[None, :]) < 0.5).astype(np.int8)
    fields = c + np.einsum("rn,nm->rm", bits.astype(np.float64), Q)
    energies = dense_energies(comp.offset, Q, c, bits)
    yield 0, bits, fields, energies

    q_classes = [Q[cls, :] for cls in comp.colors]
    row_state = _counter_state(key_prop, rows[:, None])
    flips_since_reeval = 0
    for sweep in range(sweeps):
        sweep_state = _counter_state(row_state, sweep)
        for cls, q_cls in zip(comp.colors, q_classes):
            sub_bits = bits[:, cls]
            sign = 1.0 - 2.0 * sub_bits
            delta_e = sign * fields[:, cls]
            u = counter_uniforms(sweep_state, cls[None, :])
            with np.errstate(over="ignore"):
                prob = np.where(delta_e <= 0.0, 1.0, np.exp(-np.maximum(delta_e, 0.0) / temps[:, None]))
            accepted = u < prob
            flips = np.where(accepted, sign, 0.0)
            bits[:, cls] = sub_bits ^ accepted
            fields += flips @ q_cls
            energies += np.sum(np.where(accepted, delta_e, 0.0), axis=1)
            temps = temps * cooling ** len(cls)
            flips_since_reeval += len(cls)
        if flips_since_reeval >= FULL_REEVAL_FLIPS:
            exact = dense_energies(comp.offset, Q, c, bits)
            drift = np.abs(exact - energies).max()
            tol = DRIFT_TOL + flips_since_reeval * flip_rounding
            if drift > tol:
                raise AssertionError(f"incremental energy drift {drift} exceeds {tol}")
            energies[:] = exact
            flips_since_reeval = 0
        yield sweep, bits, fields, energies


def pair_energies(comp, state):
    """The exact (E_hi, E_lo) of kernel-layout states, c.x + x Q x / 2 for
    each part of the split `[Q; c]`, as one product and one einsum per part."""
    x = state[:, :comp.n]
    pair = []
    for k in (1, 2):
        part = np.hstack([np.zeros((comp.n + 1, 0))] + [block[k] for block in comp.blocks])
        pair.append(x @ part[-1] + 0.5 * np.einsum("ri,ij,rj->r", x, part[:-1], x))
    return np.stack(pair, axis=1)


def exact_split(a):
    """`core._exact_split` as it was before its rounding went in place:
    each step on the grid makes a new array."""
    def on_grid(x):
        _, e = np.frexp(2.0 * np.abs(x).sum())
        grid = np.ldexp(1.0, e - 52)
        return np.rint(x / grid) * grid

    hi = on_grid(a)
    return hi, on_grid(a - hi)


# rows of each sampled scan
VERIFY_SAMPLES = 100_000


def verify_quadratization(hubo, result, budget=20):
    """`reduction.verify_quadratization` before its scans ran in chunks:
    (exhaustive, checked, max_discrepancy, min_inconsistency_gap), each
    sampled flip's cost taken as the difference of two full energies."""
    n = hubo.num_vars
    n_aux = len(result.aux_map)
    exhaustive = n <= budget
    if exhaustive:
        bits = code_bits(np.arange(1 << n), n)
    else:
        bits = np.random.default_rng(0).integers(0, 2, size=(VERIFY_SAMPLES, n), dtype=np.uint8)
    hubo_e = hubo.evaluate_batch(bits)
    qubo_e = result.qubo.evaluate_batch(result.lift(bits))
    max_disc = float(np.abs(hubo_e - qubo_e).max()) if len(bits) else 0.0
    gap = float("inf")
    checked = len(bits)
    if n_aux:
        if exhaustive and n + n_aux <= 30:
            total = 1 << (n + n_aux)
            mask = (1 << n) - 1
            lift_e = evaluate_batch(result.qubo, result.lift(bits))
            for lo in range(0, total, 1 << 20):
                codes = np.arange(lo, min(lo + (1 << 20), total))
                joint = code_bits(codes, n + n_aux)
                aux_ok = np.ones(len(codes), dtype=bool)
                for aux, (i, j) in result.aux_map:
                    aux_ok &= joint[:, aux] == (joint[:, i] & joint[:, j])
                bad = ~aux_ok
                if bad.any():
                    # the term loop picks the candidates; each difference is within
                    # 3 rounding bounds of the real one
                    approx = evaluate_batch(result.qubo, joint[bad]) - lift_e[codes[bad] & mask]
                    near = joint[bad][approx <= approx.min() + 8.0 * result.qubo.rounding_bound]
                    exact = exact_differences(result.qubo, near, result.lift(near[:, :n]))
                    gap = min(gap, float(exact.min()))
            checked = total
        else:
            rng = np.random.default_rng(1)
            m = VERIFY_SAMPLES
            joint = result.lift(rng.integers(0, 2, size=(m, n), dtype=np.uint8))
            base = result.qubo.evaluate_batch(joint)
            flip_at = rng.integers(0, n_aux, size=m)
            broken = joint.T.copy()
            aux_vars = np.array([aux for aux, _ in result.aux_map])
            broken[aux_vars[flip_at], np.arange(m)] ^= 1
            gap = float((result.qubo.evaluate_batch(broken.T) - base).min())
            checked = m
    return exhaustive, int(checked), max_disc, float(gap)


def problem_fingerprint(comp):
    """sha256 of n and each class's hi and lo columns, in class order."""
    h = hashlib.sha256()
    h.update(np.int64(comp.n).tobytes())
    for _, *parts in comp.blocks:
        for part in parts:
            h.update(part.tobytes())
    return h.hexdigest()[:16]


def parallel_tempering(problem, cfg):
    """`solvers.parallel_tempering` with each slot pinned to one kernel row:
    a swap copies the two rows' states and energy pairs, and the kernel's
    counter ids and temperatures never move."""
    comp = _Compiled(problem)
    ladder = temperature_ladder(cfg)
    m = cfg.num_temps
    n = comp.n
    key_swap = stable_seed(cfg.seed, "pt-swap")
    rows = np.arange(m, dtype=np.int64)

    best = np.full(2, np.inf)
    trajectory = np.zeros((cfg.sweeps, m), dtype=np.float32)
    measure_from = cfg.sweeps - cfg.measure_sweeps
    measure_states = np.zeros((cfg.measure_sweeps, n), dtype=np.uint8)
    measure_energies = np.zeros(cfg.measure_sweeps)

    keys = (stable_seed(cfg.seed, "pt-init"), stable_seed(cfg.seed, "pt-accept"))
    kernel = _metropolis(comp, keys, rows, cfg.sweeps, ladder, 1.0)
    next(kernel)
    for sweep, state, pair in kernel:
        lows = np.arange(sweep % 2, m - 1, 2)
        highs = lows + 1
        exponent = (pair[lows] - pair[highs]).sum(axis=1) * (1.0 / ladder[lows] - 1.0 / ladder[highs])
        with np.errstate(over="ignore"):
            p_swap = np.where(exponent >= 0.0, 1.0, np.exp(exponent))
        u = counter_uniforms(key_swap, np.full(len(lows), sweep), lows)
        do = u < p_swap
        swap_lo, swap_hi = lows[do], highs[do]
        for arr in (state, pair):
            arr[swap_lo], arr[swap_hi] = arr[swap_hi].copy(), arr[swap_lo].copy()

        energies = comp.offset + pair.sum(axis=1)
        trajectory[sweep] = energies
        gaps = (pair - pair[0]).sum(axis=1)
        row = int(np.argmax(gaps <= gaps.min() + TIE_TOL))
        if (pair[row] - best).sum() < -TIE_TOL:
            best, best_state = pair[row].copy(), state[row, :n].copy()
        if sweep >= measure_from:
            measure_states[sweep - measure_from] = state[0, :n]
            measure_energies[sweep - measure_from] = energies[0]

    ss = SampleSet(
        space=comp.space,
        bits=np.vstack([measure_states[:, comp.inverse], best_state[None, comp.inverse]]).astype(np.uint8),
        energies=np.append(measure_energies, comp.offset + best.sum()),
        replicas=np.concatenate([np.zeros(cfg.measure_sweeps, dtype=np.int64), [-1]]),
        sweeps=np.concatenate([np.arange(measure_from, cfg.sweeps), [cfg.sweeps]]),
        run_seconds=0.0,
        tau_seconds=0.0,
        meta={"problem_fingerprint": problem_fingerprint(comp)},
    )
    return PtResult(ss, trajectory)
