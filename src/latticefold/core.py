"""Sparse pseudo-Boolean objectives, the QUBO/Ising pair, and file interchange.

Every encoder in this package produces a :class:`PolynomialObjective`, and
every solver consumes one; a QUBO is one of degree <= 2, and
:class:`IsingProblem` is its spin-space twin.  Variables are 0-indexed
integers; Boolean variables take values in {0, 1}, spins in {-1, +1}, related
by ``b = (1 + s) / 2``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

BOOLEAN = "boolean"
ISING = "ising"
# absolute tolerance under which brute force and the SA/PT best pick count two
# energies as a tie
TIE_TOL = 1e-9


class InputError(ValueError):
    """Invalid user-facing input (bad assignment length, bad file, ...)."""


def is_int(value) -> bool:
    """Whether `value` is an integer as a JSON document gives one: not a bool."""
    return type(value) is int


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
    zeros are dropped at build time.
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

    def build(self, num_vars: int) -> "PolynomialObjective":
        return PolynomialObjective(num_vars, {k: c for k, c in self.terms.items() if c != 0.0}, self.offset)


def poly_add(dst: dict[tuple[int, ...], float], src: dict[tuple[int, ...], float], scale: float = 1.0) -> None:
    """dst += scale * src, in place; keys () are constants."""
    for key, coeff in src.items():
        dst[key] = dst.get(key, 0.0) + coeff * scale


def poly_product(polys) -> dict[tuple[int, ...], float]:
    """Product of linear-combination dicts {index-tuple: coeff}, idempotent.

    Keys come out sorted and duplicate-free, in the order in which the loop
    over (running product term, factor term) pairs first meets them; each
    coefficient is 0.0 plus that key's pair products, added in loop order.
    The loop keys each monomial by an int whose bit v is variable v, so a
    pair's key is one OR; indices must be non-negative.
    """
    out: dict[int, float] = {0: 1.0}
    for poly in polys:
        factor = []
        for key, c in poly.items():
            mask = 0
            for v in key:
                mask |= 1 << v
            factor.append((mask, c))
        nxt: dict[int, float] = {}
        get = nxt.get
        for m1, c1 in out.items():
            for m2, c2 in factor:
                m = m1 | m2
                nxt[m] = get(m, 0.0) + c1 * c2
        out = nxt
    result = {}
    for mask, c in out.items():
        key = []  # the set bits, lowest first
        while mask:
            low = mask & -mask
            key.append(low.bit_length() - 1)
            mask ^= low
        result[tuple(key)] = c
    return result


def _exact_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error-free split `a = hi + lo + r` of an array (after Ozaki, Ogita,
    Oishi & Rump, Numer. Algorithms 59, 2012).

    hi lies on one power-of-two grid g = 2^(e - 51), sum|a| < 2^e (taken at
    2^-64 scale past the largest float64), rounded to nearest but never up to
    2^1024, and lo on the grid chosen the same way for a - hi, never below
    2^-1074, the least subnormal, so tiny entries split exactly.  A sum of
    entries of one part, each taken at most twice, is a multiple of its grid
    below 2^53 grid steps, so it is exact in any order (Rump, Ogita & Oishi,
    SIAM J. Sci. Comput. 31, 2008), under any BLAS, row count or order.
    |r| <= a.size * sum|a| * 2^-102.  Each part is rounded and scaled in place.
    """
    def on_grid(x, out=None):
        with np.errstate(over="ignore"):
            shift = 0 if np.isfinite(np.abs(x).sum()) else 64
        _, e = np.frexp(np.ldexp(np.abs(x), -shift).sum())
        grid = np.ldexp(1.0, max(int(e) + shift - 51, -1074))
        out = np.divide(x, grid, out=out)
        top = np.ldexp(1.0, min(1075 - int(e) - shift, 52)) - 1.0  # binds only where rint reaches 2^1024
        np.clip(np.rint(out, out=out), -top, top, out=out)
        out *= grid
        return out

    hi = on_grid(a)
    lo = np.subtract(a, hi)  # exact: |a - hi| < grid
    return hi, on_grid(lo, out=lo)


def energy_sum(offset: float, parts) -> np.ndarray:
    """offset + (E_hi + E_lo), `parts` the exact energies [E_hi, E_lo] or [E_hi]
    under a split's halves: the one rule of every energy the program reports.
    The offset is added as offset + 0.0, so no energy is -0.0."""
    return parts[0] + (parts[1] if len(parts) > 1 else 0.0) + (offset + 0.0)


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


def assignment_strings(bits) -> list[str]:
    """Each row of a 0/1 array as a string of "0"s and "1"s: a CSV assignment."""
    chars = np.asarray(bits, dtype=np.uint8) + ord("0")
    return [row.tobytes().decode() for row in chars]


@dataclass(frozen=True)
class PolynomialObjective:
    """Arbitrary-degree pseudo-Boolean objective as a sparse term table.

    ``terms`` maps sorted, duplicate-free variable-index tuples (degree >= 1)
    to finite nonzero coefficients; ``offset`` carries the constant part and
    is finite too.
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
        if not math.isfinite(self.offset):
            raise ValueError(f"offset {self.offset} is not finite")

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

    @cached_property
    def halves(self) -> list[np.ndarray]:
        """The exact split of the coefficient vector in term order, made once:
        [hi, lo], or [hi] where lo is all zero.  Every evaluator sums these
        halves (`half_energies`, the SA/PT kernel, `energy_blocks`).  If the
        split leaves no remainder, every energy is offset + fl(S), S the exact
        value of the polynomial; if it leaves one, the evaluators still agree,
        as each evaluates hi + lo."""
        hi, lo = _exact_split(np.fromiter(self.terms.values(), np.float64, len(self.terms)))
        return [hi, lo] if lo.any() else [hi]

    def half_energies(self, bits: np.ndarray) -> list[np.ndarray]:
        """Per row of a (m, num_vars) array, the exact energy under each of
        `halves`, offset left out.  The input is transposed once, so each
        variable is one contiguous row; Boolean and integer inputs keep their
        dtype (their products are exact in any dtype), others become float64."""
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.num_vars:
            raise InputError(f"expected (m, {self.num_vars}) array, got {bits.shape}")
        if bits.dtype.kind not in "biu":
            bits = bits.astype(np.float64)
        cols = np.ascontiguousarray(bits.T)
        parts = [np.zeros(bits.shape[0]) for _ in self.halves]
        scaled = np.empty(bits.shape[0])
        for key, *coeffs in zip(self.terms, *(half.tolist() for half in self.halves)):
            prod = cols[key[0]]
            if len(key) > 1:
                prod = prod * cols[key[1]]
                for i in key[2:]:
                    prod *= cols[i]
            for part, coeff in zip(parts, coeffs):
                if coeff:  # a zero part adds 0.0, which leaves the sum as it is
                    part += np.multiply(prod, coeff, out=scaled)
        return parts

    def evaluate_batch(self, bits: np.ndarray) -> np.ndarray:
        """Vectorised energies for a (m, num_vars) 0/1 array (spins for an
        `IsingProblem`): `energy_sum` of `half_energies`, whatever the other
        rows are, so the SA/PT kernel and brute force give a state the same
        bits; offset + fl(S) where the split leaves no remainder."""
        return energy_sum(self.offset, self.half_energies(bits))

    @property
    def rounding_bound(self) -> float:
        """Bound on the float64 rounding error of a sum of the len(terms) exact
        products c_T * {0, 1} and offset, added in any order.

        No partial sum exceeds S = |offset| + sum |c_T|, so the error is at
        most gamma_k * S with k = len(terms) and gamma_k = k u / (1 - k u), u =
        eps / 2 (Higham, "Accuracy and Stability of Numerical Algorithms",
        section 4.2).  `evaluate_batch` rounds twice, so where the split
        leaves no remainder this bounds its error too; the reduction check
        reads it as the margin of a float64 energy.
        """
        ku = len(self.terms) * 0.5 * float(np.finfo(np.float64).eps)
        return ku / (1.0 - ku) * (abs(self.offset) + sum(abs(c) for c in self.terms.values()))

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


class IsingProblem(PolynomialObjective):
    """Spin-space twin of a QUBO: H = sum J_ij s_i s_j + sum h_i s_i + offset,
    as a term table over spins in {-1, +1}: fields (i,) first, then couplings
    (i, j), each in the order given.  `evaluate_batch` reads rows of spins."""

    space = ISING

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", dict(sorted(self.terms.items(), key=lambda kv: len(kv[0]))))
        super().__post_init__()
        if self.degree > 2:
            raise ValueError(f"IsingProblem requires degree <= 2, got {self.degree}")

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
    terms: dict[tuple[int, ...], float] = {}
    offset = q.offset
    for key, c in q.terms.items():
        if len(key) == 1:
            terms[key] = terms.get(key, 0.0) + c / 2.0
            offset += c / 2.0
        else:
            i, j = key
            terms[key] = terms.get(key, 0.0) + c / 4.0
            terms[(i,)] = terms.get((i,), 0.0) + c / 4.0
            terms[(j,)] = terms.get((j,), 0.0) + c / 4.0
            offset += c / 4.0
    return _from_sums(IsingProblem, q.num_vars, terms, offset, "cannot convert to Ising form")


def ising_to_qubo(p: IsingProblem) -> PolynomialObjective:
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
    return _from_sums(PolynomialObjective, p.num_vars, terms, offset, "cannot convert to Boolean form")


def _from_sums(cls, num_vars: int, terms: dict, offset: float, what: str):
    """`cls` without the sums that cancelled to 0.0; InputError(what: ...) for one that overflowed."""
    try:
        return cls(num_vars, {k: c for k, c in terms.items() if c != 0.0}, offset)
    except ValueError as exc:
        raise InputError(f"{what}: {exc}") from exc


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


# the blocked enumerator's monomial tables and energy blocks hold about this many float64 cells each
BLOCK_CELLS = 1 << 16


def energy_blocks(obj: PolynomialObjective, nl: int):
    """The exact energies of all 2^n Boolean states under each of `halves`,
    offset left out, in blocks (after Bouillaguet et al., CHES 2010).

    Variables 0..nl-1 are the low half and the rest the high half.  A term
    splits into a low and a high monomial, so a half's coefficients form a
    (high monomials x low monomials) matrix C, and its energies are E = M_h C
    M_l^T, M_h and M_l the 0/1 monomial tables of the high and low codes.
    Per block of low codes W = C M_l^T, then per block of high codes M_h W,
    each one matmul over the halves stacked, so no table exceeds about
    BLOCK_CELLS entries; each entry sums a half's coefficients, each at most
    once, so it is exact under any BLAS.

    Yields one `(low_codes, high_blocks)` pair per block of low codes;
    `high_blocks` yields `(high_codes, parts)`, parts[k][h, l] half k's
    energy at code high_codes[h] << nl | low_codes[l]: the energies are
    `energy_sum(obj.offset, parts)`.
    """
    low_of: dict[int, int] = {0: 0}  # monomial mask -> column of C
    high_of: dict[int, int] = {0: 0}  # monomial mask -> row of C
    term_masks = [sum(1 << i for i in key) for key in obj.terms]
    high_cells = [high_of.setdefault(mask >> nl, len(high_of)) for mask in term_masks]
    low_cells = [low_of.setdefault(mask & ((1 << nl) - 1), len(low_of)) for mask in term_masks]
    matrices = np.zeros((len(obj.halves), len(high_of), len(low_of)))
    matrices[:, high_cells, low_cells] = obj.halves  # the keys are unique, so no cell sums two terms
    low_masks, high_masks = (np.fromiter(of, dtype=np.int64) for of in (low_of, high_of))

    def monomials(codes, masks):  # 0/1: which monomials (variable bit masks) each code holds
        return ((codes[:, None] & masks) == masks).astype(np.float64)

    lows, highs = 1 << nl, 1 << (obj.num_vars - nl)
    width = min(lows, max(1, BLOCK_CELLS // max(len(high_of), len(low_of))))
    rows = max(1, min(BLOCK_CELLS // (width * len(matrices)), BLOCK_CELLS // len(high_of)))

    def high_blocks(w):
        for h0 in range(0, highs, rows):
            high_codes = np.arange(h0, min(h0 + rows, highs))
            yield high_codes, monomials(high_codes, high_masks) @ w

    for l0 in range(0, lows, width):
        low_codes = np.arange(l0, min(l0 + width, lows))
        yield low_codes, high_blocks(matrices @ monomials(low_codes, low_masks).T)


# ---------------------------------------------------------------------------
# JSON problem files: the interchange format for every CLI stage.
# ---------------------------------------------------------------------------

def problem_from_dict(doc: dict):
    """Load a problem from its JSON dict; returns the matching problem type.

    One pass over the document terms: num_vars must be a JSON integer (not a
    boolean) and each term's vars a list of them, each coeff is read with
    float, and a term adds to the sum of its sorted, duplicate-free key in
    document order.  An exact-zero coeff adds nothing, an empty key adds to
    offset, and a sum that cancels to 0.0 is dropped.
    Any malformed document raises InputError.
    """
    try:
        num_vars = doc["num_vars"]
        offset = float(doc.get("offset", 0.0))
        space = doc.get("space", BOOLEAN)
        raw_terms = doc.get("terms", [])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed problem document: {exc}") from exc
    if not is_int(num_vars) or num_vars < 0 or not np.isfinite(offset) or space not in (BOOLEAN, ISING):
        raise InputError(
            f"malformed problem document: num_vars={num_vars!r}, offset={offset}, space={space!r}"
        )
    if not isinstance(raw_terms, list):
        raise InputError("problem terms must be a list")
    ising = space == ISING
    terms: dict[tuple[int, ...], float] = {}
    get = terms.get
    arity_error = None
    for i, t in enumerate(raw_terms):
        try:
            vars_ = t["vars"]
            if type(vars_) is not list or not all(map(is_int, vars_)):
                raise TypeError(f"variables {vars_!r} are not a list of integers")
            coeff = float(t["coeff"])
        except KeyError as exc:
            raise InputError(f"problem term {i} has no {exc} key") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed problem term {i}: {exc}") from exc
        key = tuple(sorted(set(vars_)))
        if key and not (key[0] >= 0 and key[-1] < num_vars):
            raise InputError(f"problem term {i}: variables {vars_} out of range for {num_vars} vars")
        if not math.isfinite(coeff):
            raise InputError(f"problem term {i}: coefficient {coeff} is not finite")
        if ising and not (0 < len(key) == len(vars_) < 3):
            # raised after the loop: a fault above in any term is named first
            arity_error = arity_error or InputError(
                f"problem term {i}: an ising term names one or two distinct spins, got {vars_}")
        elif coeff == 0.0:
            continue
        elif key:
            terms[key] = get(key, 0.0) + coeff
        else:
            offset += coeff
    if arity_error:
        raise arity_error
    # the constructors' own checks catch what is left: a term or offset sum that overflows
    cls = IsingProblem if ising else PolynomialObjective
    return _from_sums(cls, num_vars, terms, offset, "malformed problem document")


def write_json(path, doc) -> None:
    """Write `doc` as every JSON file of the program is written: indent 1 and
    a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_csv(path, manifest_name: str, header, rows) -> None:
    """Write a CSV file as the program writes every one: a `# manifest=` line,
    the header, then the rows, each value as `str` gives it (a float's repr)."""
    with open(path, "w") as fh:
        fh.write(f"# manifest={manifest_name}\n{','.join(header)}\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def save_problem(path, obj) -> None:
    write_json(path, obj.to_dict())


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
