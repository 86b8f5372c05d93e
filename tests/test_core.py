import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_encoders as ref
from latticefold.core import (
    BOOLEAN,
    ISING,
    InputError,
    IsingProblem,
    PolynomialObjective,
    TermAccumulator,
    coefficient_stats,
    ising_to_qubo,
    load_problem,
    poly_product,
    problem_from_dict,
    qubo_to_ising,
    save_problem,
)

from conftest import all_assignments, build_poly, random_qubo


class TestEvaluate:
    def test_single_product_term(self):
        obj = build_poly({(0, 1): 1.0}, 2)
        assert obj.evaluate([1, 1]) == 1.0

    def test_zero_factor_annihilates(self):
        obj = build_poly({(0, 1): 1.0}, 2)
        assert obj.evaluate([0, 1]) == 0.0

    def test_matches_independent_scalar_sum(self, rng):
        # term-by-term recomputation in a separate scalar routine
        n = 10
        acc = TermAccumulator()
        acc.offset = float(rng.normal())
        for _ in range(40):
            deg = int(rng.integers(1, 5))
            key = tuple(sorted(rng.choice(n, size=deg, replace=False).tolist()))
            acc.add(key, float(rng.normal()))
        obj = acc.build(n)
        for _ in range(50):
            bits = rng.integers(0, 2, size=n)
            expected = obj.offset
            for key, coeff in obj.terms.items():
                term = coeff
                for i in key:
                    term = term * bits[i]
                expected += term
            assert obj.evaluate(bits) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        obj = build_poly({(0,): 1.0}, 1)
        with pytest.raises(InputError):
            obj.evaluate([1, 0])

    def test_linear_in_coefficients(self, rng):
        a = random_qubo(rng, 6)
        b = random_qubo(rng, 6)
        acc = TermAccumulator()
        acc.offset = 2.5 * a.offset - 1.25 * b.offset
        acc.add_poly(a.terms, 2.5)
        acc.add_poly(b.terms, -1.25)
        combo = acc.build(6)
        for bits in all_assignments(6)[::7]:
            expected = 2.5 * a.evaluate(bits) - 1.25 * b.evaluate(bits)
            assert combo.evaluate(bits) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# +-1 and +-0.5 make exact cancellations common; -0.0 checks the sign of zero
COEFFS = st.one_of(st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, -0.0]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def product_factors(draw):
    """Short and long factor lists, over a small or a large variable pool
    (the large one gives masks beyond 63 bits); keys may be (), unsorted or
    repeat a variable."""
    if draw(st.booleans()):  # at least 256 coefficient pairs
        lengths = draw(st.sampled_from([[32, 48], [40, 40], [11, 11, 11], [1, 36, 36]]))
    else:
        lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    pool = draw(st.sampled_from([6, 126]))
    key = st.lists(st.integers(0, pool - 1), max_size=3).map(tuple)
    return [draw(st.dictionaries(key, COEFFS, min_size=n, max_size=n)) for n in lengths]


@st.composite
def cancelling_qubos(draw):
    """QUBOs over at most 8 variables whose repeated terms may cancel to
    nothing, and whose halves and quarters may cancel in an Ising field."""
    n = draw(st.integers(1, 8))
    coeff = st.one_of(st.sampled_from([1.0, -1.0, 2.0, -2.0, 4.0, -4.0, 0.5, -0.5]),
                      st.floats(-1e3, 1e3).filter(lambda x: abs(x) > 1e-3))
    acc = TermAccumulator()
    acc.offset = draw(coeff)
    var = st.integers(0, n - 1)
    for i, j, c in draw(st.lists(st.tuples(var, var, coeff), max_size=24)):
        acc.add((i, j), c)  # i == j is a linear term
    return acc.build(n)


class TestPolyProduct:
    @settings(max_examples=120, deadline=None)
    @given(factors=product_factors())
    def test_matches_the_dict_loop(self, factors):
        got, want = poly_product(factors), ref.poly_product(factors)
        assert list(got) == list(want)
        assert [repr(c) for c in got.values()] == [repr(c) for c in want.values()]

    # the second variable's index: 256 puts its bit past a machine word
    @pytest.mark.parametrize("hi", [1, 256])
    def test_cancelled_key_is_kept(self, hi):
        x, y = {(0,): 1.0, (hi,): -1.0}, {(hi,): 1.0, (0,): 1.0}
        got = poly_product([x, y])
        assert list(got.items()) == [((0, hi), 0.0), ((0,), 1.0), ((hi,), -1.0)]


class TestInvariants:
    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            PolynomialObjective(num_vars=2, terms={(0,): 0.0})

    def test_rejects_unsorted_keys(self):
        with pytest.raises(ValueError):
            PolynomialObjective(num_vars=3, terms={(2, 0): 1.0})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PolynomialObjective(num_vars=2, terms={(0, 5): 1.0})

    @pytest.mark.parametrize("terms, message", [
        ({(0,): 1.0, (): 2.0}, "constant terms belong in offset"),
        ({(0,): 1.0, (2, 1): 2.0, (1, 0): 1.0}, "term key (2, 1) not sorted/duplicate-free"),
        ({(1, 1): 2.0}, "term key (1, 1) not sorted/duplicate-free"),
        ({(0, 1, 1, 2): 2.0}, "term key (0, 1, 1, 2) not sorted/duplicate-free"),
        ({(0, 1): 1.0, (1, 3): 1.0, (0, 4): 1.0}, "term key (1, 3) out of range for 3 vars"),
        ({(-1, 0): 1.0}, "term key (-1, 0) out of range for 3 vars"),
        ({(0,): 1.0, (1,): float("nan"), (2,): 0.0}, "coefficient for (1,) must be finite and nonzero"),
        ({(0, 2): -float("inf")}, "coefficient for (0, 2) must be finite and nonzero"),
        ({(0,): 1.0, (1, 2): 0.0}, "coefficient for (1, 2) must be finite and nonzero"),
        ({(0,): float("nan"), (1, 0): 1.0}, "term key (1, 0) not sorted/duplicate-free"),
    ], ids=["constant", "unsorted", "repeated", "repeated-inside", "above-range", "negative",
            "nan", "minus-inf", "zero", "keys-before-coefficients"])
    def test_names_the_first_bad_term(self, terms, message):
        with pytest.raises(ValueError) as exc:
            PolynomialObjective(num_vars=3, terms=terms)
        assert str(exc.value) == message

    def test_accumulation_drops_exact_zero(self):
        acc = TermAccumulator()
        acc.add((0, 1), 2.0)
        acc.add((1, 0), -2.0)
        obj = acc.build(2)
        assert obj.terms == {}

    def test_quadratic_rejects_degree_3(self):
        with pytest.raises(ValueError, match="IsingProblem requires degree <= 2, got 3"):
            IsingProblem(num_vars=3, terms={(0,): 1.0, (0, 1, 2): 1.0})


class TestQuboIsing:
    def test_linear_term(self):
        ising = qubo_to_ising(build_poly({(0,): 1.0}, 1))
        assert ising.fields == {0: 0.5}
        assert ising.offset == 0.5

    def test_quadratic_term(self):
        ising = qubo_to_ising(build_poly({(0, 1): 4.0}, 2))
        assert ising.couplings == {(0, 1): 1.0}
        assert ising.fields == {0: 1.0, 1: 1.0}
        assert ising.offset == 1.0

    def test_exhaustive_agreement_12_vars(self, rng):
        q = random_qubo(rng, 12, n_quad=30)
        ising = qubo_to_ising(q)
        bits = all_assignments(12)
        for b in bits[:: 17]:
            s = 2 * b.astype(np.int64) - 1
            assert q.evaluate(b) == pytest.approx(ising.evaluate(s), rel=1e-12, abs=1e-12)
        # full spectrum check, vectorized
        spins = 2.0 * bits - 1.0
        e_q = q.evaluate_batch(bits)
        e_i = np.array([ising.evaluate(s) for s in spins[:256]])
        assert np.allclose(e_q[:256], e_i, rtol=1e-12, atol=1e-12)

    def test_argmin_preserved(self, rng):
        q = random_qubo(rng, 8)
        ising = qubo_to_ising(q)
        bits = all_assignments(8)
        e_q = q.evaluate_batch(bits)
        e_i = np.array([ising.evaluate(2 * b.astype(np.int64) - 1) for b in bits])
        assert np.argmin(e_q) == np.argmin(e_i)

    def test_roundtrip_zero(self):
        zero = build_poly({}, 3)
        back = ising_to_qubo(qubo_to_ising(zero))
        assert back.terms == {} and back.offset == 0.0

    def test_roundtrip_small(self):
        q = build_poly({(0,): 1.0, (0, 1): -2.0}, 2)
        back = ising_to_qubo(qubo_to_ising(q))
        assert back.terms.keys() == q.terms.keys()
        for key in q.terms:
            assert back.terms[key] == pytest.approx(q.terms[key], rel=1e-12)
        assert back.offset == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip_100_random(self, rng):
        for _ in range(100):
            q = random_qubo(rng, 10)
            back = ising_to_qubo(qubo_to_ising(q))
            assert back.terms.keys() == q.terms.keys()
            err = max(
                abs(back.terms[k] - q.terms[k]) / max(1.0, abs(q.terms[k]))
                for k in q.terms
            )
            assert err < 1e-12
            assert back.offset == pytest.approx(q.offset, abs=1e-12)

    def test_degree_3_rejected(self):
        with pytest.raises(InputError):
            qubo_to_ising(build_poly({(0, 1, 2): 1.0}, 3))

    def test_ising_input_rejected(self):
        ising = qubo_to_ising(build_poly({(0,): 1.0, (0, 1): 2.0}, 2))
        with pytest.raises(InputError, match="Boolean-space"):
            qubo_to_ising(ising)

    def test_spin_tables_are_the_term_table(self):
        # interleaved terms: fields first, then couplings, each in the order given
        terms = {(1, 2): 2.0, (2,): 1.0, (0, 1): -1.0, (1,): -0.5}
        ising = IsingProblem(3, terms, 1.5)
        assert list(ising.terms.items()) == [((2,), 1.0), ((1,), -0.5), ((1, 2), 2.0), ((0, 1), -1.0)]
        assert list(terms) == [(1, 2), (2,), (0, 1), (1,)]  # the caller's dict is not reordered
        assert list(ising.fields.items()) == [(2, 1.0), (1, -0.5)]
        assert list(ising.couplings.items()) == [((1, 2), 2.0), ((0, 1), -1.0)]
        assert ising.space == ISING and ising.to_dict()["space"] == ISING
        assert ising.evaluate([1, -1, 1]) == 1.5 + 1.0 + 0.5 - 2.0 + 1.0

    @settings(max_examples=150, deadline=None)
    @given(q=cancelling_qubos())
    def test_round_trip_keeps_every_energy(self, q):
        ising = qubo_to_ising(q)
        back = ising_to_qubo(ising)
        bits = all_assignments(q.num_vars)
        e_q = q.evaluate_batch(bits)
        # each evaluation is within its own rounding bound of the exact energy
        # of its coefficients.  The change of variables rounds too: the Ising
        # offset and fields add halves and quarters of q's coefficients (at
        # most q.rounding_bound each); back, the offset and the linear terms
        # add at most ising.rounding_bound and 4 * ising.rounding_bound
        spin_tol = 3 * q.rounding_bound + ising.rounding_bound
        assert np.all(np.abs(ising.evaluate_batch(2 * bits.astype(np.int8) - 1) - e_q) <= spin_tol)
        back_tol = spin_tol + 5 * ising.rounding_bound + back.rounding_bound
        assert np.all(np.abs(back.evaluate_batch(bits) - e_q) <= back_tol)


class TestCoefficientStats:
    def test_direct_arithmetic(self):
        q = build_poly({(0,): 1.0, (1,): -2.0, (0, 1): 0.5}, 2)
        j_max, j_min, resolution = coefficient_stats(q)
        assert (j_max, j_min, resolution) == (2.0, 0.5, 4.0)

    def test_degenerate_equal_coeffs(self):
        q = build_poly({(0,): 3.0, (1,): -3.0}, 2)
        assert coefficient_stats(q)[2] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            coefficient_stats(build_poly({}, 2))

    def test_relabel_invariance(self, rng):
        q = random_qubo(rng, 7)
        perm = rng.permutation(7)
        relabeled = build_poly(
            {tuple(sorted(int(perm[i]) for i in key)): c for key, c in q.terms.items()},
            7,
        )
        assert coefficient_stats(q) == coefficient_stats(relabeled)
        assert q.density == relabeled.density


class TestDensity:
    def test_higher_degree_term_counts_its_pairs(self):
        obj = build_poly({(0, 1, 2): 1.0, (2, 3): 1.0, (3,): 1.0}, 5)
        assert obj.density == 4 / 10

    def test_qubo_share_of_nonzero_couplings(self, rng):
        for n in (2, 7, 12):
            q = random_qubo(rng, n)
            assert q.density == sum(len(key) == 2 for key in q.terms) / (n * (n - 1) / 2)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_variables(self, n):
        assert build_poly({(0,): 1.0} if n else {}, n).density == 0.0


class TestProblemFiles:
    def test_roundtrip(self, tmp_path, rng):
        q = random_qubo(rng, 6)
        path = tmp_path / "p.json"
        save_problem(path, q)
        loaded, doc = load_problem(path)
        assert doc["space"] == BOOLEAN
        assert loaded.terms == q.terms
        assert loaded.offset == q.offset

    def test_ising_document(self, tmp_path):
        ising = IsingProblem(2, {(0,): 0.5, (0, 1): -1.0}, 2.0)
        path = tmp_path / "i.json"
        save_problem(path, ising)
        loaded, doc = load_problem(path)
        assert isinstance(loaded, IsingProblem)
        assert loaded.couplings == ising.couplings
        assert loaded.fields == ising.fields

    def test_malformed(self):
        with pytest.raises(InputError):
            problem_from_dict({"offset": 1.0})

    def test_sorted_term_order_is_stable(self, tmp_path, rng):
        q = random_qubo(rng, 6)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(p1, q)
        save_problem(p2, q)
        assert p1.read_bytes() == p2.read_bytes()
