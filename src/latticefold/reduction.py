"""HUBO -> QUBO degree reduction via iterated pair substitution.

One auxiliary variable b_aux stands in for a product b_i*b_j; the penalty

    alpha * (b_i b_j - 2 b_aux (b_i + b_j) + 3 b_aux)

is zero exactly when b_aux = b_i*b_j and at least alpha otherwise, so any
alpha above the total coefficient mass preserves the minimum and the set of
original-variable minimizers.  Pairs are chosen greedily by how many
high-order terms they appear in (ties to the lexicographically smallest
pair).
"""

from __future__ import annotations

import heapq
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
# random assignments `verify_quadratization` checks when it is not exhaustive
VERIFY_SAMPLES = 100_000


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
    exhaustive: bool
    checked: int
    max_discrepancy: float
    min_inconsistency_gap: float
    tolerance: float  # bound on max_discrepancy of a sound reduction

    @property
    def ok(self) -> bool:
        return self.max_discrepancy <= self.tolerance and self.min_inconsistency_gap > 0.0


def verify_quadratization(
    hubo: PolynomialObjective,
    result: QuadratizationResult,
    budget: int = 20,
) -> VerificationReport:
    """Check energy agreement on consistent extensions and that every
    inconsistent auxiliary setting costs energy.

    Exhaustive over the original variables when their count fits the budget
    (the inconsistency scan is exhaustive over joint assignments when
    originals + auxiliaries fit); otherwise VERIFY_SAMPLES random
    assignments from a fixed seed, and as many one-auxiliary flips.  Energies on
    both sides are float64 sums, so the discrepancy of a sound reduction is
    only rounding: the report passes it up to 1e-9 plus the rounding bounds
    of both sums (`PolynomialObjective.rounding_bound`), which grow with the
    penalty strength alpha.
    """
    n = hubo.num_vars
    n_aux = len(result.aux_map)
    exhaustive = n <= budget

    if exhaustive:
        bits = code_bits(np.arange(1 << n), n)
    else:
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(VERIFY_SAMPLES, n), dtype=np.uint8)

    lifted = result.lift(bits)
    hubo_e = hubo.evaluate_batch(bits)
    qubo_e = result.qubo.evaluate_batch(lifted)
    max_disc = float(np.abs(hubo_e - qubo_e).max()) if len(bits) else 0.0

    # inconsistency gap: cheapest violation relative to the consistent lift
    gap = float("inf")
    checked = len(bits)
    if n_aux:
        if exhaustive and n + n_aux <= 30:
            # qubo_e holds the consistent lift of every original code
            total = 1 << (n + n_aux)
            mask = (1 << n) - 1
            for lo in range(0, total, 1 << 20):
                codes = np.arange(lo, min(lo + (1 << 20), total))
                joint = code_bits(codes, n + n_aux)
                aux_ok = np.ones(len(codes), dtype=bool)
                for aux, (i, j) in result.aux_map:
                    aux_ok &= joint[:, aux] == (joint[:, i] & joint[:, j])
                bad = ~aux_ok
                if bad.any():
                    e = result.qubo.evaluate_batch(joint[bad])
                    refs = qubo_e[codes[bad] & mask]
                    gap = min(gap, float((e - refs).min()))
            checked = total
        else:
            rng = np.random.default_rng(1)
            m = VERIFY_SAMPLES
            sample_bits = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            joint = result.lift(sample_bits)
            base = result.qubo.evaluate_batch(joint)
            # each row flips one auxiliary, drawn uniformly
            flip_at = rng.integers(0, n_aux, size=m)
            broken = joint.T.copy()
            aux_vars = np.array([aux for aux, _ in result.aux_map])
            broken[aux_vars[flip_at], np.arange(m)] ^= 1
            gap = float((result.qubo.evaluate_batch(broken.T) - base).min())
            checked = m
    return VerificationReport(
        exhaustive=exhaustive,
        checked=int(checked),
        max_discrepancy=max_disc,
        min_inconsistency_gap=float(gap),
        tolerance=1e-9 + hubo.rounding_bound + result.qubo.rounding_bound,
    )
