"""HUBO -> QUBO degree reduction via iterated pair substitution.

One auxiliary variable b_aux stands in for a product b_i*b_j; the penalty

    alpha * (b_i b_j - 2 b_aux (b_i + b_j) + 3 b_aux)

is zero exactly when b_aux = b_i*b_j and at least alpha otherwise, so any
alpha above the largest mass of substituted terms that one violated
auxiliary can move (`aux_masses`) keeps the minimum and the set of
original-variable minimizers (`verify_quadratization` proves it).  Pairs
are chosen greedily by how many high-order terms they appear in (ties to
the lexicographically smallest pair).
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
    energy_blocks,
    finite_float,
)

WORST_CASE = "worst_case"


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
    gap_source: str  # "certificate" or "exhaustive"
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


def substituted_keys(hubo: PolynomialObjective, aux_map) -> list[tuple[int, ...]]:
    """The key each HUBO term has in the QUBO, in term order: `aux_map`
    replayed over `hubo.terms`.  Each auxiliary, in creation order, takes the
    place of its pair in every term of degree > 2 holding both, as in
    `quadratize`."""
    keys = [set(key) for key in hubo.terms]
    holding: dict[int, set[int]] = {}  # variable -> terms that held it at degree > 2
    for t, key in enumerate(keys):
        for v in key if len(key) > 2 else ():
            holding.setdefault(v, set()).add(t)
    for aux, (i, j) in aux_map:
        for t in holding.get(i, set()) & holding.get(j, set()):
            key = keys[t]
            if len(key) > 2 and i in key and j in key:
                key.difference_update((i, j))
                key.add(aux)
                holding.setdefault(aux, set()).add(t)
    return [tuple(sorted(key)) for key in keys]


def aux_masses(hubo: PolynomialObjective, aux_map) -> dict[int, float]:
    """m_b for each auxiliary b: sum |c_T| over the HUBO terms whose
    substituted key holds an auxiliary built from b, b included, added in
    term order, so each m_b is at most M, the float64 sum over every term of
    degree > 2."""
    built_from: dict[int, frozenset] = {}  # aux -> the auxiliaries it is built from, itself included
    for aux, pair in aux_map:
        built_from[aux] = frozenset((aux,)).union(*(built_from.get(v, ()) for v in pair))
    masses = dict.fromkeys(built_from, 0.0)
    for key, c in zip(substituted_keys(hubo, aux_map), hubo.terms.values()):
        for b in frozenset().union(*(built_from.get(v, ()) for v in key)):
            masses[b] += abs(float(c))
    return masses


def verify_quadratization(hubo: PolynomialObjective, result: QuadratizationResult,
                          budget: int = 20) -> VerificationReport:
    """Prove that `result` keeps the minimizers of `hubo`, or refuse it.

    `lift_residual` proves QUBO(x, lift(x)) = HUBO(x) for all 2^n x, within
    the tolerance: 1e-9 plus the rounding bounds of both objectives
    (`PolynomialObjective.rounding_bound`), which grow with alpha.  The gap
    certificate proves QUBO(x, a) - QUBO(x, lift(x)) >= gap_bound = alpha -
    max_b m_b - tolerance for every inconsistent auxiliary setting a, with
    m_b from `aux_masses`.  It holds only where `quadratize(hubo,
    result.alpha)` rebuilds `result` exactly, since it reads the penalty
    form from `quadratize`; otherwise it is -inf.

    Proof: the QUBO is the HUBO with each substituted pair replaced by its
    auxiliary, plus alpha times each auxiliary's penalty, 0 when it equals
    the product of its pair and at least 1 otherwise; no penalty costs less
    than 0.  Let D be the auxiliaries where a differs from the lift, and call
    b in D lowest when neither variable of its pair is in D.  A lowest b's
    pair is at the lift, so b's penalty costs at least alpha.  Each
    auxiliary in D is built from a lowest one, since a pair variable in D
    was made earlier.  Only the substituted terms, of degree > 2, hold an
    auxiliary, a term moves only when its key meets D, by at most |c_T|, and
    then it lies in m_b of a lowest b.  So with k >= 1 lowest auxiliaries
    the cost is at least k alpha - sum of their m_b >= alpha - max_b m_b
    when that is positive (Rosenberg 1975; Boros & Hammer, Discrete Appl.
    Math. 123, 2002).

    The margin covers, to first order in u = eps / 2, the rounding of
    - m_b <= M, M a float64 sum of at most len(hubo.terms) magnitudes:
      within the HUBO's rounding bound, which leaves u * sum |c_T| over;
    - the merges: no term keeps a variable of a pair it gave up, so only a
      substituted pair's alpha merges into a HUBO coefficient; that sum and
      3 * alpha are one rounding each, u * sum |c_T| + 4 u alpha n_aux in all;
    - the bound's two subtractions, 2 u alpha when it is positive;
    - a float64 QUBO(x, a): b's penalty switches off terms of 2 alpha or
      more, so its error is at most the QUBO's rounding bound less
      2 alpha gamma_k, k = len(QUBO terms) > 3 n_aux, and that rest,
      (6 n_aux + 2) u alpha or more, pays for the alpha parts above.
    Python floats make an overflow inf or NaN, not positive, where
    `math.fsum` would raise.

    Where the certificate is not positive, gap_bound is the least cost over
    every joint assignment against the lift of its original code, scanned if
    n <= budget and n + n_aux <= 30; anywhere else the report keeps the
    certificate, with 0 rows checked: not ok.  The scan runs on
    `core.energy_blocks` with the originals as the low half and the
    auxiliaries as the high half, and takes each half's difference from the
    lift's `half_energies`: both are exact, so only their sum rounds, and
    where the split leaves no remainder each cost is fl of the real one.
    """
    n = hubo.num_vars
    n_aux = len(result.aux_map)
    tolerance = 1e-9 + float(hubo.rounding_bound) + float(result.qubo.rounding_bound)
    mass = max(aux_masses(hubo, result.aux_map).values(), default=0.0)
    gap, source, checked = result.alpha - mass - tolerance, "certificate", 0
    if not n_aux:
        gap = float("inf")
    elif gap > 0.0 and quadratize(hubo, result.alpha) != result:
        gap = float("-inf")
    if not gap > 0.0 and n <= budget and n + n_aux <= 30:
        gap, source, checked = float("inf"), "exhaustive", 1 << (n + n_aux)
        for low_codes, high_blocks in energy_blocks(result.qubo, n):  # the originals are the low half
            lift = result.lift(code_bits(low_codes, n))
            refs = result.qubo.half_energies(lift)
            lift_codes = (lift[:, n:].astype(np.int64) << np.arange(n_aux)).sum(axis=1)
            for high_codes, parts in high_blocks:
                # E - E(lift): exact per half, one rounding; np.minimum keeps a NaN
                # (an overflowing energy), which fails the report
                costs = sum(part - ref for part, ref in zip(parts, refs))
                costs[high_codes[:, None] == lift_codes] = np.inf
                gap = float(np.minimum(gap, costs.min()))
    return VerificationReport(gap, source, checked, lift_residual(hubo, result), tolerance)
