"""HUBO -> QUBO degree reduction via iterated pair substitution.

One auxiliary variable b_aux stands in for a product b_i*b_j; the penalty

    alpha * (b_i b_j - 2 b_aux (b_i + b_j) + 3 b_aux)

is zero exactly when b_aux = b_i*b_j and at least alpha otherwise, so any
alpha above the mass of the substituted terms, sum |c_T| over the terms of
degree > 2, preserves the minimum and the set of original-variable
minimizers (`verify_quadratization` proves it).  Pairs are chosen greedily
by how many high-order terms they appear in (ties to the lexicographically
smallest pair).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    BOOLEAN,
    InputError,
    PolynomialObjective,
    TermAccumulator,
    code_bits,
    finite_float,
)

WORST_CASE = "worst_case"
# rows of the sampled gap scan, each with one auxiliary flipped
VERIFY_SAMPLES = 100_000
# rows per chunk of every verification scan: bounds their memory
VERIFY_CHUNK = 32_768


@dataclass(frozen=True)
class QuadratizationResult:
    qubo: PolynomialObjective  # of degree <= 2
    aux_map: list  # (aux index, (i, j)) in creation order
    alpha: float

    def aux_map_doc(self) -> list:
        return [{"aux": a, "pair": [i, j]} for a, (i, j) in self.aux_map]

    def lift(self, rows: np.ndarray) -> np.ndarray:
        """(m, num_vars) uint8 rows: the original-variable `rows` followed by
        each auxiliary's consistent value, with contiguous columns (see
        `code_bits`)."""
        cols = np.empty((rows.shape[1] + len(self.aux_map), len(rows)), dtype=np.uint8)
        cols[: rows.shape[1]] = rows.T
        for aux, (i, j) in self.aux_map:
            np.bitwise_and(cols[i], cols[j], out=cols[aux])
        return cols.T


def worst_case_alpha(hubo: PolynomialObjective) -> float:
    """1 + total absolute coefficient mass: no inconsistency can ever pay."""
    return 1.0 + float(sum(abs(c) for c in hubo.terms.values()))


def resolve_alpha(hubo: PolynomialObjective, alpha_policy) -> float:
    if alpha_policy == WORST_CASE:
        return worst_case_alpha(hubo)
    if isinstance(alpha_policy, str):
        if not alpha_policy.startswith("fixed:"):
            raise InputError(f"unknown alpha policy {alpha_policy!r}")
        alpha_policy = alpha_policy.split(":", 1)[1]
    alpha = finite_float(alpha_policy, "penalty strength")
    if alpha <= 0:
        raise InputError(f"penalty strength must be positive, got {alpha}")
    return alpha


def scaled_alpha(lambda_global: float) -> float:
    """Reduction penalty tied to the model's own penalty scale: 1.1 times it."""
    return 1.1 * lambda_global


def quadratize(hubo: PolynomialObjective, alpha_policy=WORST_CASE) -> QuadratizationResult:
    """Reduce to degree <= 2; degree <= 2 input is returned as it is.

    Each round substitutes the pair held by the most terms of degree > 2
    (ties to the smallest pair), found by a pair -> terms index and a heap on
    (-count, pair).  Putting aux in place of (i, j) in a term changes only its
    pairs with i or j, which it leaves, and with aux, which it joins while its
    degree stays above 2; each new pair is pushed once, with its final count.
    Other counts only fall, so a stale popped entry is pushed again at its
    current count.  aux is a fresh variable, so no substituted term coincides
    with another and no pair is chosen twice: the QUBO terms keep the input
    terms' coefficients and order.
    """
    if hubo.space != BOOLEAN:
        raise InputError("quadratize expects a Boolean-space problem")
    alpha = resolve_alpha(hubo, alpha_policy)
    if hubo.degree <= 2:
        return QuadratizationResult(qubo=hubo, aux_map=[], alpha=alpha)

    keys = [set(k) for k in hubo.terms]
    holders: dict[tuple[int, int], set[int]] = {}  # pair -> terms of degree > 2 holding it
    for t, key in enumerate(hubo.terms):
        if len(key) > 2:
            for pair in combinations(key, 2):
                holders.setdefault(pair, set()).add(t)
    heap = [(-len(held), pair) for pair, held in holders.items()]
    heapq.heapify(heap)

    aux_map: list = []
    while heap:
        neg_count, pair = heapq.heappop(heap)
        held = holders.get(pair)
        if held is None:
            continue
        if len(held) != -neg_count:  # the count fell since the push
            heapq.heappush(heap, (-len(held), pair))
            continue
        del holders[pair]
        i, j = pair
        aux = hubo.num_vars + len(aux_map)
        aux_map.append((aux, pair))
        joined: dict[int, set[int]] = {}  # x -> terms joining (x, aux)
        for t in held:
            key = keys[t]
            key.difference_update(pair)
            for x in key:
                for old in ((x, i) if x < i else (i, x), (x, j) if x < j else (j, x)):
                    rest = holders[old]
                    rest.discard(t)
                    if not rest:
                        del holders[old]
                if len(key) > 1:
                    joined.setdefault(x, set()).add(t)
            key.add(aux)
        for x, ts in joined.items():
            holders[(x, aux)] = ts
            heapq.heappush(heap, (-len(ts), (x, aux)))

    acc = TermAccumulator()
    acc.terms = {tuple(sorted(key)): c for key, c in zip(keys, hubo.terms.values())}
    acc.offset = hubo.offset
    for aux, (i, j) in aux_map:
        acc.add((i, j), alpha)
        acc.add((i, aux), -2.0 * alpha)
        acc.add((j, aux), -2.0 * alpha)
        acc.add((aux,), 3.0 * alpha)
    qubo = acc.build(hubo.num_vars + len(aux_map))
    return QuadratizationResult(qubo=qubo, aux_map=aux_map, alpha=alpha)


@dataclass(frozen=True)
class VerificationReport:
    gap_bound: float  # least extra cost of an inconsistent auxiliary setting: proven or scanned
    gap_source: str  # "certificate", "exhaustive" or "sampled"
    checked: int  # rows the gap scan ran over; 0 under the certificate
    lift_residual: float  # bound on |QUBO(x, lift(x)) - HUBO(x)| over every x
    tolerance: float  # bound on lift_residual of a sound reduction

    @property
    def ok(self) -> bool:
        return self.lift_residual <= self.tolerance and self.gap_bound > 0.0


def lift_residual(hubo: PolynomialObjective, result: QuadratizationResult) -> float:
    """Sum |r_M| over the monomials M of QUBO(x, lift(x)) - HUBO(x), offset
    included: a bound on |QUBO(x, lift(x)) - HUBO(x)| over all 2^n x.

    Each auxiliary stands for the product of the original variables it
    expands to, recursively, so a QUBO term is the monomial over the union of
    its variables' expansions (x^2 = x).  Each residual coefficient and the
    total are `math.fsum`s, correctly rounded: a sound reduction gives 0.
    """
    stands_for = {v: frozenset((v,)) for v in range(hubo.num_vars)}
    for aux, (i, j) in result.aux_map:
        stands_for[aux] = stands_for[i] | stands_for[j]
    parts: dict[tuple[int, ...], list[float]] = {(): [result.qubo.offset, -hubo.offset]}
    for key, c in result.qubo.terms.items():
        monomial = tuple(sorted(frozenset().union(*(stands_for[v] for v in key))))
        parts.setdefault(monomial, []).append(c)
    for key, c in hubo.terms.items():
        parts.setdefault(key, []).append(-c)
    return math.fsum(abs(math.fsum(cs)) for cs in parts.values())


def _flip_terms(result: QuadratizationResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The QUBO terms holding each auxiliary, in term order: (K, n_aux) tables
    of the coefficient, the term's other variable (the auxiliary itself for
    its field) and 1 for its field, padded with zero coefficients to the K
    terms of the auxiliary held most."""
    n = result.qubo.num_vars - len(result.aux_map)
    held: list[list] = [[] for _ in result.aux_map]
    for key, c in result.qubo.terms.items():
        for v in key:
            if v >= n:
                held[v - n].append((c, key[0] + key[-1] - v, len(key) == 1))
    k = max(map(len, held), default=0)
    coeff = np.zeros((k, len(held)))
    other = np.tile(np.arange(n, n + len(held)), (k, 1))
    field = np.zeros((k, len(held)), dtype=np.uint8)
    for a, terms in enumerate(held):
        for p, (c, v, f) in enumerate(terms):
            coeff[p, a], other[p, a], field[p, a] = c, v, f
    return coeff, other, field


def _flip_gap(terms, joint: np.ndarray, flip_at: np.ndarray) -> float:
    """Least energy change when row r of `joint` (consistent lifts) flips
    auxiliary number flip_at[r].

    Flipping a changes the energy by (1 - 2a) * sum over the terms T holding a
    of c_T * (the product of T's other variables), summed in term order; a
    zero padding coefficient leaves a sum as it is.
    """
    coeff, other, field = terms
    n_aux = coeff.shape[1]
    cols = joint.T  # contiguous, one row per variable (see `QuadratizationResult.lift`)
    r = np.arange(len(flip_at))
    change = np.zeros(len(flip_at))
    for p in range(len(coeff)):
        x = cols[other[p][flip_at], r]
        x |= field[p][flip_at]
        change += coeff[p][flip_at] * x
    flipped = cols[joint.shape[1] - n_aux + flip_at, r]
    return float(np.where(flipped, -change, change).min())


def verify_quadratization(hubo: PolynomialObjective, result: QuadratizationResult,
                          budget: int = 20) -> VerificationReport:
    """Prove that `result`, which `quadratize` made of `hubo`, keeps its
    minimizers.

    `lift_residual` proves QUBO(x, lift(x)) = HUBO(x) for all 2^n x, within
    the tolerance: 1e-9 plus the rounding bounds of both objectives
    (`PolynomialObjective.rounding_bound`), which grow with alpha.  The gap
    certificate proves QUBO(x, a) - QUBO(x, lift(x)) >= gap_bound = alpha - M
    - tolerance for every inconsistent auxiliary setting a, with M = sum |c_T|
    over the HUBO terms of degree > 2.

    Proof: the QUBO is the HUBO with each substituted pair replaced by its
    auxiliary, plus alpha times each auxiliary's penalty, 0 when it equals
    the product of its pair and at least 1 otherwise.  Let b be the first
    auxiliary, in creation order, where a differs from the lift.  Its pair
    holds originals and earlier auxiliaries, which equal the lift, so b's
    penalty costs at least alpha; no penalty costs less than 0.  Only the
    substituted terms, of degree > 2, hold an auxiliary, and each moves by at
    most |c_T|.

    The margin covers, to first order in u = eps / 2, the rounding of
    - M, a float64 sum of at most len(hubo.terms) magnitudes: within the
      HUBO's rounding bound, which leaves u * sum |c_T| over;
    - the merges: no term keeps a variable of a pair it gave up, so only a
      substituted pair's alpha merges into a HUBO coefficient; that sum and
      3 * alpha are one rounding each, u * sum |c_T| + 4 u alpha n_aux in all;
    - the bound's two subtractions, 2 u alpha when it is positive;
    - a float64 QUBO(x, a): b's penalty switches off terms of 2 alpha or
      more, so its error is at most the QUBO's rounding bound less
      2 alpha gamma_k, k = len(QUBO terms) > 3 n_aux, and that rest,
      (6 n_aux + 2) u alpha or more, pays for the alpha parts above.
    The lift's energy is exact here; a scan rounds a float64 one too, by up
    to one more QUBO rounding bound, which the margin does not hold (the
    differential tests check every exhaustive gap against the bound).
    Python floats make an overflow inf or NaN, not positive, where
    `math.fsum` would raise.

    Where the bound is not positive, the gap is scanned and gap_bound is the
    least cost found: over every joint assignment, against the lift of each
    original code, when n <= budget and n + n_aux <= 30; otherwise over
    VERIFY_SAMPLES random assignments, each with one random auxiliary
    flipped, its cost summed from the terms holding it (`_flip_gap`), not
    taken as the difference of two energies.  A scan runs in VERIFY_CHUNK-row
    chunks, so none holds more rows of bits at once.
    """
    n = hubo.num_vars
    n_aux = len(result.aux_map)
    tolerance = 1e-9 + float(hubo.rounding_bound) + float(result.qubo.rounding_bound)
    mass = sum(abs(float(c)) for key, c in hubo.terms.items() if len(key) > 2)
    gap, source, checked = result.alpha - mass - tolerance, "certificate", 0
    if not n_aux:
        gap = float("inf")
    elif not gap > 0.0 and n <= budget and n + n_aux <= 30:
        gap, source, checked = float("inf"), "exhaustive", 1 << (n + n_aux)
        mask = (1 << n) - 1
        refs = np.concatenate([  # the lift's energy of each original code
            result.qubo.evaluate_batch(result.lift(code_bits(np.arange(lo, min(lo + VERIFY_CHUNK, mask + 1)), n)))
            for lo in range(0, mask + 1, VERIFY_CHUNK)])
        for lo in range(0, checked, VERIFY_CHUNK):
            codes = np.arange(lo, min(lo + VERIFY_CHUNK, checked))
            joint = code_bits(codes, n + n_aux)
            aux_ok = np.ones(len(codes), dtype=bool)
            for aux, (i, j) in result.aux_map:
                aux_ok &= joint[:, aux] == (joint[:, i] & joint[:, j])
            bad = ~aux_ok
            if bad.any():  # np.minimum keeps a NaN (an overflowing energy), which fails the report
                e = result.qubo.evaluate_batch(joint[bad])
                gap = float(np.minimum(gap, (e - refs[codes[bad] & mask]).min()))
    elif not gap > 0.0:
        gap, source, checked = float("inf"), "sampled", VERIFY_SAMPLES
        rng = np.random.default_rng(1)
        sample_bits = rng.integers(0, 2, size=(checked, n), dtype=np.uint8)
        flip_at = rng.integers(0, n_aux, size=checked)  # each row flips one auxiliary
        terms = _flip_terms(result)
        for lo in range(0, checked, VERIFY_CHUNK):
            joint = result.lift(sample_bits[lo:lo + VERIFY_CHUNK])
            gap = float(np.minimum(gap, _flip_gap(terms, joint, flip_at[lo:lo + VERIFY_CHUNK])))
    return VerificationReport(gap, source, checked, lift_residual(hubo, result), tolerance)
