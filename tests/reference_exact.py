"""Reference copies of the term-by-term exact solvers and of the
incremental-field Metropolis kernel, for differential tests.

`quadratize` recounts every pair of every high-degree term after each
substitution, `brute_force` scores every state with a float64 term loop
(`evaluate_batch`), and `ising_to_qubo` adds every contribution through
`TermAccumulator.add`.  The package's versions use an incremental pair index,
a blocked matrix product and a direct fill of the term dict; they must return
the same outputs bit for bit.  `metropolis` keeps a (rows x n) field array
that every colour class updates with a BLAS product, and a float64 energy
that it re-evaluates every FULL_REEVAL_FLIPS proposals, failing on a drift
above its tolerance; the package's kernel computes each class's fields from
the bits, carries an exact energy pair (`pair_energies`), and must visit the
same states.
"""

from collections import Counter
from itertools import combinations

import numpy as np

from latticefold.core import IsingProblem, QuadraticObjective, TermAccumulator
from latticefold.reduction import QuadratizationResult, resolve_alpha
from latticefold.solvers import _counter_state, counter_uniforms

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


def quadratize(hubo, alpha_policy="worst_case"):
    alpha = resolve_alpha(hubo, alpha_policy)
    if hubo.degree <= 2:
        qubo = QuadraticObjective(
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
    qubo = acc.build(next_var, quadratic=True)
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
    return acc.build(p.num_vars, quadratic=True)


def brute_force(obj, tie_tol=1e-9, chunk=1 << 18):
    boolean = ising_to_qubo(obj) if isinstance(obj, IsingProblem) else obj
    n = boolean.num_vars
    if n == 0:
        return boolean.offset, [np.zeros(0, dtype=np.uint8)]
    best = np.inf
    keep_codes = []
    keep_energies = []
    shifts = np.arange(n, dtype=np.uint64)
    for lo in range(0, 1 << n, chunk):
        hi = min(lo + chunk, 1 << n)
        codes = np.arange(lo, hi, dtype=np.uint64)
        bits = ((codes[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.float64)
        energies = evaluate_batch(boolean, bits)
        chunk_min = float(energies.min())
        if chunk_min < best - tie_tol:
            best = chunk_min
            near = np.flatnonzero(energies <= best + tie_tol)
            keep_codes = [int(codes[i]) for i in near]
            keep_energies = [float(energies[i]) for i in near]
        else:
            best = min(best, chunk_min)
            near = np.flatnonzero(energies <= best + tie_tol)
            keep_codes.extend(int(codes[i]) for i in near)
            keep_energies.extend(float(energies[i]) for i in near)
    final = [c for c, e in zip(keep_codes, keep_energies) if e <= best + tie_tol]
    assignments = [
        ((np.uint64(c) >> shifts) & np.uint64(1)).astype(np.uint8) for c in sorted(final)
    ]
    return best, assignments


def metropolis(comp, keys, rows, sweeps, temps, cooling):
    """Yields `(sweep, bits, fields, energies)` for the random initial state
    (as sweep 0), then after each sweep; bits are in variable order."""
    key_init, key_prop = keys
    n = comp.n
    flip_rounding = (
        0.5 * np.finfo(np.float64).eps * len(comp.colors) / max(n, 1)
        * (abs(comp.offset) + np.abs(comp.c).sum() + np.abs(np.triu(comp.Q)).sum())
    )
    bits = (counter_uniforms(key_init, rows[:, None], np.arange(n)[None, :]) < 0.5).astype(np.int8)
    fields = comp.local_fields(bits)
    energies = comp.energies(bits)
    yield 0, bits, fields, energies

    q_classes = [comp.Q[cls, :] for cls in comp.colors]
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
            exact = comp.energies(bits)
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
        part = np.hstack([block[k] for block in comp.blocks])
        pair.append(x @ part[-1] + 0.5 * np.einsum("ri,ij,rj->r", x, part[:-1], x))
    return np.stack(pair, axis=1)
