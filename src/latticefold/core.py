"""Sparse pseudo-Boolean objectives, the QUBO/Ising pair, and file interchange.

Every encoder in this package produces a :class:`PolynomialObjective` (or its
degree-<=2 restriction :class:`QuadraticObjective`), and every solver consumes
one.  Variables are 0-indexed integers; Boolean variables take values in
{0, 1}, spins in {-1, +1}, related by ``b = (1 + s) / 2``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

BOOLEAN = "boolean"
ISING = "ising"
# absolute tolerance under which the exact searches count two energies as a
# tie: the same real sums arrive in different float association orders
TIE_TOL = 1e-9


class InputError(ValueError):
    """Invalid user-facing input (bad assignment length, bad file, ...)."""


def finite_float(value, what: str) -> float:
    """`value` as a finite float; InputError naming `what` otherwise."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise InputError(f"{what} {value!r} is not a number") from None
    if not np.isfinite(x):
        raise InputError(f"{what} {value!r} is not finite")
    return x


class TermAccumulator:
    """Mutable builder for polynomial terms.

    Accumulates coefficients on sorted, duplicate-free index tuples; exact
    zeros are dropped at build time.  Products respect Boolean idempotency.
    """

    def __init__(self) -> None:
        self.terms: dict[tuple[int, ...], float] = {}
        self.offset = 0.0

    def add(self, vars_, coeff: float) -> None:
        if coeff == 0.0:
            return
        key = tuple(sorted(set(int(v) for v in vars_)))
        if not key:
            self.offset += coeff
            return
        self.terms[key] = self.terms.get(key, 0.0) + coeff

    def add_poly(self, poly: dict[tuple[int, ...], float], scale: float = 1.0) -> None:
        """Add scale * poly.  Its keys must be sorted and duplicate-free, as
        `poly_product` and `PolynomialObjective.terms` give them; as in
        `add`, an exact-zero contribution is skipped and () goes to offset."""
        terms = self.terms
        for key, coeff in poly.items():
            c = coeff * scale
            if c == 0.0:
                continue
            if key:
                terms[key] = terms.get(key, 0.0) + c
            else:
                self.offset += c

    def add_product(self, p1: dict[tuple[int, ...], float], p2: dict[tuple[int, ...], float], scale: float = 1.0) -> None:
        """Add scale * p1 * p2.  Keys () are constants."""
        for k1, c1 in p1.items():
            for k2, c2 in p2.items():
                self.add(set(k1) | set(k2), c1 * c2 * scale)

    def build(self, num_vars: int, quadratic: bool = False) -> "PolynomialObjective":
        terms = {k: c for k, c in self.terms.items() if c != 0.0}
        cls = QuadraticObjective if quadratic else PolynomialObjective
        return cls(num_vars=num_vars, terms=terms, offset=self.offset)


def poly_add(dst: dict[tuple[int, ...], float], src: dict[tuple[int, ...], float], scale: float = 1.0) -> None:
    """dst += scale * src, in place; keys () are constants."""
    for key, coeff in src.items():
        dst[key] = dst.get(key, 0.0) + coeff * scale


# products of at least this many coefficient pairs (the product of the factor
# lengths) run on bit masks.  The mask path costs ~90 us more per call and
# overtakes the dict loop at ~128 pairs (2-CPU Xeon, numpy 2.4); the margin
# keeps the small products of the turn-tet encoder on the dict loop.
MASK_PRODUCT_PAIRS = 256
# variables a uint64 mask holds; bit 63 stays clear, so every mask is also a
# non-negative int64
MASK_BITS = 63


def poly_product(polys) -> dict[tuple[int, ...], float]:
    """Product of linear-combination dicts {index-tuple: coeff}, idempotent.

    Keys come out sorted and duplicate-free, in the order in which the loop
    over (running product term, factor term) pairs first meets them; each
    coefficient is 0.0 plus that key's pair products, added in loop order.
    Large products run on bit masks (`_mask_product`), with the same keys,
    order and float sums.
    """
    polys = list(polys)
    if math.prod(len(p) for p in polys) >= MASK_PRODUCT_PAIRS:
        labels = sorted({v for p in polys for k in p for v in k})
        if len(labels) <= MASK_BITS:
            return _mask_product(polys, labels)
    out: dict[tuple[int, ...], float] = {(): 1.0}
    for poly in polys:
        nxt: dict[tuple[int, ...], float] = {}
        for k1, c1 in out.items():
            for k2, c2 in poly.items():
                key = tuple(sorted(set(k1) | set(k2)))
                nxt[key] = nxt.get(key, 0.0) + c1 * c2
        out = nxt
    return out


def _mask_product(polys, labels: list[int]) -> dict[tuple[int, ...], float]:
    """`poly_product` with each monomial a uint64 mask over `labels`.

    Per factor: the outer OR of the masks and the outer product of the
    coefficients, both raveled in C order (the dict loop's pair order).
    An unstable argsort groups equal keys, whose least position is their first
    index in that order; `np.add.at`, unbuffered and in index order, adds each
    key's products to 0.0 in that order too.  Sorting the keys by first index
    restores the dict's insertion order.
    """
    local = {v: i for i, v in enumerate(labels)}
    masks = np.zeros(1, dtype=np.uint64)
    coeffs = np.ones(1)
    for poly in polys:
        pm = np.array([sum(1 << local[v] for v in set(k)) for k in poly], dtype=np.uint64)
        pc = np.fromiter(poly.values(), dtype=np.float64, count=len(poly))
        ored = np.bitwise_or.outer(masks, pm).ravel()
        perm = np.argsort(ored)
        ranked = ored[perm]
        new_key = np.concatenate(([True], ranked[1:] != ranked[:-1]))
        starts = np.flatnonzero(new_key)
        inverse = np.empty_like(perm)
        inverse[perm] = np.cumsum(new_key) - 1
        sums = np.zeros(len(starts))
        np.add.at(sums, inverse, np.multiply.outer(coeffs, pc).ravel())
        order = np.argsort(np.minimum.reduceat(perm, starts))
        masks, coeffs = ranked[starts][order], sums[order]
    # mask -> index tuple: bit i (column i) is labels[i], so each row's set
    # bits, read in ascending order, are its sorted variables
    bits = np.unpackbits(masks.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    flat = np.asarray(labels)[np.nonzero(bits)[1]].tolist()
    ends = np.cumsum(bits.sum(axis=1)).tolist()
    out = {}
    start = 0
    for end, c in zip(ends, coeffs.tolist()):
        out[tuple(flat[start:end])] = c
        start = end
    return out


def rounding_gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = eps / 2: a float64 sum of k + 1 terms,
    added in any order, is within gamma_k times the sum of their magnitudes
    of the exact sum."""
    ku = k * 0.5 * float(np.finfo(np.float64).eps)
    return ku / (1.0 - ku)


def code_bits(codes, num_vars: int) -> np.ndarray:
    """Bit rows of integer codes: row r holds bits 0..num_vars-1 of codes[r],
    least significant first, as a (len(codes), num_vars) uint8 array.

    The array is the transpose of a C-ordered (num_vars, len(codes)) table,
    so each variable's column is contiguous, which is how `evaluate_batch`
    reads it.
    """
    codes = np.asarray(codes, dtype=np.int64)
    cols = np.empty((num_vars, len(codes)), dtype=np.uint8)
    for i in range(num_vars):
        np.bitwise_and(codes >> i, 1, out=cols[i], casting="unsafe")
    return cols.T


@dataclass(frozen=True)
class PolynomialObjective:
    """Arbitrary-degree pseudo-Boolean objective as a sparse term table.

    ``terms`` maps sorted, duplicate-free variable-index tuples (degree >= 1)
    to nonzero real coefficients; ``offset`` carries the constant part.
    Instances are immutable after construction and safe to share across
    threads.
    """

    num_vars: int
    terms: dict[tuple[int, ...], float] = field(default_factory=dict)
    offset: float = 0.0
    space = BOOLEAN  # the values of a variable; a class constant, not a field

    def __post_init__(self) -> None:
        # the keys in one Python pass and the coefficients in one numpy call, not
        # a Python call per term; a failure is then named by the per-key checks
        n = self.num_vars
        lt = operator.lt
        for key in self.terms:
            if not (key and key[0] >= 0 and key[-1] < n and all(map(lt, key, key[1:]))):
                if not key:
                    raise ValueError("constant terms belong in offset")
                if list(key) != sorted(set(key)):
                    raise ValueError(f"term key {key} not sorted/duplicate-free")
                raise ValueError(f"term key {key} out of range for {n} vars")
        coeffs = np.fromiter(self.terms.values(), dtype=np.float64, count=len(self.terms))
        if not (np.isfinite(coeffs).all() and coeffs.all()):
            key = next(k for k, c in self.terms.items() if not (np.isfinite(c) and c != 0.0))
            raise ValueError(f"coefficient for {key} must be finite and nonzero")

    @property
    def degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def evaluate(self, assignment) -> float:
        """Energy of a Boolean assignment: one row of `evaluate_batch`."""
        bits = np.asarray(assignment)
        if bits.shape != (self.num_vars,):
            raise InputError(
                f"assignment length {bits.shape} does not match num_vars={self.num_vars}"
            )
        return float(self.evaluate_batch(bits[None, :])[0])

    def evaluate_batch(self, bits: np.ndarray) -> np.ndarray:
        """Vectorised energies for a (m, num_vars) 0/1 array.

        Each row's energy is offset plus c_T * prod_T added in term order,
        whatever the other rows are.  The input is transposed once so that
        every variable is one contiguous row; Boolean and integer inputs keep
        their dtype (products of 0/1 values are exact in any dtype), others
        are read as float64.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.num_vars:
            raise InputError(f"expected (m, {self.num_vars}) array, got {bits.shape}")
        if bits.dtype.kind not in "biu":
            bits = bits.astype(np.float64)
        cols = np.ascontiguousarray(bits.T)
        energies = np.full(bits.shape[0], self.offset, dtype=np.float64)
        scaled = np.empty_like(energies)
        for key, coeff in self.terms.items():
            prod = cols[key[0]]
            if len(key) > 1:
                prod = prod * cols[key[1]]
                for i in key[2:]:
                    prod *= cols[i]
            np.multiply(prod, coeff, out=scaled)
            energies += scaled
        return energies

    @property
    def rounding_bound(self) -> float:
        """Bound on the float64 rounding error of `evaluate_batch` at any 0/1
        assignment.

        The energy adds len(terms) exact products c_T * {0, 1} to offset; no
        partial sum exceeds S = |offset| + sum |c_T|, so the error is at most
        gamma_k * S with k = len(terms) and gamma_k = k u / (1 - k u), u =
        eps / 2 (Higham, "Accuracy and Stability of Numerical Algorithms",
        section 4.2).
        """
        return rounding_gamma(len(self.terms)) * (
            abs(self.offset) + sum(abs(c) for c in self.terms.values())
        )

    @property
    def density(self) -> float:
        """Share of the n(n-1)/2 variable pairs that appear together in at
        least one term; on a QUBO, the share of couplings that are nonzero."""
        n = self.num_vars
        if n < 2:
            return 0.0
        pairs = {pair for key in self.terms for pair in combinations(key, 2)}
        return len(pairs) / (n * (n - 1) / 2)

    def to_dict(self) -> dict:
        """The problem document; terms by (degree, indices)."""
        ordered = sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return {
            "num_vars": self.num_vars,
            "offset": self.offset,
            "terms": [{"vars": list(k), "coeff": c} for k, c in ordered],
            "space": self.space,
        }


@dataclass(frozen=True)
class QuadraticObjective(PolynomialObjective):
    """Degree-<=2 restriction of :class:`PolynomialObjective` (a QUBO)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.degree > 2:
            raise ValueError(f"QuadraticObjective requires degree <= 2, got {self.degree}")

    @property
    def quadratic(self) -> dict[tuple[int, int], float]:
        return {(k[0], k[1]): c for k, c in self.terms.items() if len(k) == 2}


class IsingProblem(QuadraticObjective):
    """Spin-space twin of a QUBO: H = sum J_ij s_i s_j + sum h_i s_i + offset,
    as a term table over spins in {-1, +1}: fields (i,) first, then couplings
    (i, j).  `evaluate_batch` reads rows of spins."""

    space = ISING

    @classmethod
    def from_tables(cls, num_vars: int, fields: dict, couplings: dict, offset: float) -> "IsingProblem":
        """Fields {i: h_i} first, then couplings {(i, j): J_ij}, each in table order; zeros dropped."""
        terms = {(i,): h for i, h in fields.items() if h != 0.0}
        terms.update((key, jij) for key, jij in couplings.items() if jij != 0.0)
        return cls(num_vars=num_vars, terms=terms, offset=offset)

    @property
    def fields(self) -> dict[int, float]:
        return {key[0]: h for key, h in self.terms.items() if len(key) == 1}

    @property
    def couplings(self) -> dict[tuple[int, int], float]:
        return {key: jij for key, jij in self.terms.items() if len(key) == 2}


def qubo_to_ising(q: PolynomialObjective) -> IsingProblem:
    """Exact change of variables b_i = (1 + s_i) / 2.

    Preserves the full energy spectrum: evaluate(q, b) == ising.evaluate(s)
    for every assignment with s = 2b - 1.
    """
    if q.space != BOOLEAN:
        raise InputError("qubo_to_ising expects a Boolean-space problem")
    if q.degree > 2:
        raise InputError(f"cannot convert degree-{q.degree} objective to Ising form")
    fields: dict[int, float] = {}
    couplings: dict[tuple[int, int], float] = {}
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
    return IsingProblem.from_tables(q.num_vars, fields, couplings, offset)


def ising_to_qubo(p: IsingProblem) -> QuadraticObjective:
    """Inverse substitution s_i = 2 b_i - 1; round trip is the identity.  Adds
    in `TermAccumulator.add`'s order and drops a sum that cancels to 0.0."""
    terms: dict[tuple[int, ...], float] = {}
    offset = p.offset
    for i, h in p.fields.items():
        terms[(i,)] = 2.0 * h
        offset -= h
    for (i, j), jij in p.couplings.items():
        terms[(i, j)] = 4.0 * jij
        terms[(i,)] = terms.get((i,), 0.0) - 2.0 * jij
        terms[(j,)] = terms.get((j,), 0.0) - 2.0 * jij
        offset += jij
    terms = {k: c for k, c in terms.items() if c != 0.0}
    return QuadraticObjective(num_vars=p.num_vars, terms=terms, offset=offset)


def coefficient_stats(q: PolynomialObjective) -> tuple[float, float, float]:
    """(j_max, j_min, resolution) over all nonzero term coefficients.

    resolution = j_max / j_min is the coupler dynamic range a device (or a
    temperature schedule) must resolve.
    """
    if not q.terms:
        raise InputError("coefficient_stats of an objective with no terms")
    mags = np.abs(np.fromiter(q.terms.values(), dtype=np.float64))
    j_max = float(mags.max())
    j_min = float(mags.min())
    return j_max, j_min, j_max / j_min


# ---------------------------------------------------------------------------
# JSON problem files: the interchange format for every CLI stage.
# ---------------------------------------------------------------------------

def _problem_terms(raw_terms, num_vars: int) -> list[tuple[list[int], float]]:
    """(variables, coefficient) of each document term; InputError names a bad one."""
    if not isinstance(raw_terms, list):
        raise InputError("problem terms must be a list")
    terms = []
    for i, t in enumerate(raw_terms):
        try:
            vars_ = [int(v) for v in t["vars"]]
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


def problem_from_dict(doc: dict):
    """Load a problem from its JSON dict; returns the matching problem type.

    Any malformed document raises InputError.
    """
    try:
        num_vars = int(doc["num_vars"])
        offset = float(doc.get("offset", 0.0))
        space = doc.get("space", BOOLEAN)
        raw_terms = doc.get("terms", [])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed problem document: {exc}") from exc
    if num_vars < 0 or not np.isfinite(offset) or space not in (BOOLEAN, ISING):
        raise InputError(
            f"malformed problem document: num_vars={num_vars}, offset={offset}, space={space!r}"
        )
    terms = _problem_terms(raw_terms, num_vars)

    if space == ISING:
        fields: dict[int, float] = {}
        couplings: dict[tuple[int, int], float] = {}
        for i, (vars_, c) in enumerate(terms):
            key = tuple(sorted(vars_))
            if len(key) == 1:
                fields[key[0]] = fields.get(key[0], 0.0) + c
            elif len(key) == 2 and key[0] != key[1]:
                couplings[key] = couplings.get(key, 0.0) + c
            else:
                raise InputError(f"problem term {i}: an ising term names one or two distinct spins, got {vars_}")
    else:
        acc = TermAccumulator()
        acc.offset = offset
        for vars_, c in terms:
            acc.add(vars_, c)
    # the constructors' own checks catch what is left: coefficient sums that overflow
    try:
        if space == ISING:
            return IsingProblem.from_tables(num_vars, fields, couplings, offset)
        return acc.build(num_vars, quadratic=max((len(k) for k in acc.terms), default=0) <= 2)
    except ValueError as exc:
        raise InputError(f"malformed problem document: {exc}") from exc


def save_problem(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj.to_dict(), fh, indent=1)
        fh.write("\n")


def read_lines(path) -> list[str]:
    """A text file's lines; InputError if its bytes do not decode."""
    with open(path) as fh:
        try:
            return fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not a text file: {exc}") from exc


def load_doc(path) -> dict:
    """The JSON object in a file; InputError if the file holds anything else."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InputError(f"{path} is not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} is not a JSON object")
    return doc


def load_problem(path) -> tuple[object, dict]:
    """Returns (problem, full document) so callers can read layout/aux data."""
    doc = load_doc(path)
    return problem_from_dict(doc), doc
