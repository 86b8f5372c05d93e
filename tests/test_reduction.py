import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefold import core
from latticefold.core import InputError, PolynomialObjective, TermAccumulator, qubo_to_ising
from latticefold.encoders import encode, encode_turn_tetrahedral, get_model, hp_model
from latticefold.reduction import (
    QuadratizationResult,
    aux_masses,
    lift_residual,
    quadratize,
    scaled_alpha,
    substitute,
    verify_quadratization,
    worst_case_alpha,
)
from latticefold.solvers import brute_force

import reference_exact as ref
from conftest import all_assignments, build_poly

# sums of these are exact in float64, so energies compare with ==
EXACT_COEFFS = [-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0]


@pytest.fixture(scope="module")
def cli_reduction():
    """The README pipeline's reduction: turn-tet LKKKKLKKKKL under MJ at the
    worst-case alpha (43 originals, 102 auxiliaries, 1,670 QUBO terms)."""
    hubo = encode("turn-tet", "LKKKKLKKKKL", get_model("mj")).objective
    return hubo, quadratize(hubo, "worst_case")


def edited(result, edit):
    """`result` with `edit` applied to a copy of its QUBO terms."""
    terms = dict(result.qubo.terms)
    edit(terms, result)
    return QuadratizationResult(PolynomialObjective(result.qubo.num_vars, terms, result.qubo.offset),
                                result.aux_map, result.alpha)


def drop_smallest(terms, result):
    del terms[min(terms, key=lambda k: abs(terms[k]))]


def flip_penalty_sign(terms, result):
    """The first auxiliary's -2 alpha on (i, aux) becomes +2 alpha."""
    aux, (i, _) = result.aux_map[0]
    terms[(i, aux)] += 4.0 * result.alpha


def move_field_to_pair_term(terms, result):
    """4 alpha moves from the first auxiliary's field to its (i, aux) term:
    both expand to the monomial of the pair, so the lift is still exact."""
    aux, (i, _) = result.aux_map[0]
    terms[(aux,)] -= 4.0 * result.alpha
    terms[(i, aux)] += 4.0 * result.alpha


@st.composite
def small_hubos(draw):
    """At most 8 variables, terms of degree 1..5 with exact coefficients; a
    term joins only while the degrees above 2 sum to at most 12, which bounds
    the auxiliaries and keeps the QUBO's brute force at <= 20 variables."""
    n = draw(st.integers(3, 8))
    drawn = draw(st.lists(
        st.tuples(st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True),
                  st.sampled_from(EXACT_COEFFS)),
        min_size=1, max_size=12,
    ))
    acc = TermAccumulator()
    budget = 12
    for vars_, coeff in drawn:
        budget -= max(len(vars_) - 2, 0)
        if budget < 0:
            break
        acc.add(vars_, coeff)
    return acc.build(n)


class TestQuadratize:
    def test_ising_input_rejected(self):
        ising = qubo_to_ising(build_poly({(0,): 1.0, (0, 1): 2.0}, 2))
        with pytest.raises(InputError, match="Boolean-space"):
            quadratize(ising)

    def test_single_cubic_term_structure(self):
        hubo = build_poly({(0, 1, 2): 1.0}, 3)
        res = quadratize(hubo)
        assert len(res.aux_map) == 1
        aux, pair = res.aux_map[0]
        assert aux == 3 and pair == (0, 1)  # lowest lexicographic tie-break
        alpha = res.alpha
        # substituted term plus the penalty block on the substituted pair
        assert res.qubo.terms[(2, 3)] == pytest.approx(1.0)
        assert res.qubo.terms[(0, 1)] == pytest.approx(alpha)
        assert res.qubo.terms[(0, 3)] == pytest.approx(-2 * alpha)
        assert res.qubo.terms[(1, 3)] == pytest.approx(-2 * alpha)
        assert res.qubo.terms[(3,)] == pytest.approx(3 * alpha)

    def test_worst_case_alpha_formula(self):
        hubo = build_poly({(0,): 1.5, (0, 1): -2.0, (0, 1, 2): 0.5}, 3)
        assert worst_case_alpha(hubo) == pytest.approx(1.0 + 1.5 + 2.0 + 0.5)

    def test_degree2_pass_through(self):
        q = build_poly({(0,): 1.0, (0, 1): -1.0}, 2)
        res = quadratize(q)
        assert res.aux_map == []
        assert res.qubo.terms == q.terms

    def test_rerun_on_output_is_identity(self):
        hubo = build_poly({(0, 1, 2): 1.0, (1, 2, 3): -2.0}, 4)
        once = quadratize(hubo)
        twice = quadratize(once.qubo)
        assert twice.aux_map == []
        assert twice.qubo.terms == once.qubo.terms

    def test_aux_reused_across_terms(self):
        hubo = build_poly({(0, 1, 2): 1.0, (0, 1, 3): 1.0}, 4)
        res = quadratize(hubo)
        assert len(res.aux_map) == 1  # pair (0,1) serves both terms

    def test_min_and_argmin_preserved_random(self, rng):
        for _ in range(15):
            n = int(rng.integers(5, 11))
            terms = {}
            for _ in range(int(rng.integers(4, 14))):
                deg = int(rng.integers(1, 5))
                key = tuple(sorted(rng.choice(n, size=deg, replace=False).tolist()))
                terms[key] = terms.get(key, 0.0) + float(rng.normal())
            hubo = build_poly({k: v for k, v in terms.items() if v != 0.0}, n)
            if hubo.degree < 3:
                continue
            res = quadratize(hubo)
            e_h, mins_h = brute_force(hubo)
            e_q, mins_q = brute_force(res.qubo, free_var_limit=34)
            assert e_q == pytest.approx(e_h, abs=1e-9)
            proj = {tuple(a[:hubo.num_vars].tolist()) for a in mins_q}
            assert proj == {tuple(a.tolist()) for a in mins_h}

    @settings(max_examples=100, deadline=None)
    @given(hubo=small_hubos())
    def test_argmin_set_preserved(self, hubo):
        res = quadratize(hubo)
        assert res.qubo.degree <= 2
        bits = all_assignments(hubo.num_vars)
        # every consistent lift scores its HUBO energy ...
        assert res.qubo.evaluate_batch(res.lift(bits)).tolist() == hubo.evaluate_batch(bits).tolist()
        # ... and no assignment of the auxiliaries does better
        e_h, mins_h = brute_force(hubo)
        e_q, mins_q = brute_force(res.qubo)
        assert e_q == e_h
        assert {tuple(a[:hubo.num_vars].tolist()) for a in mins_q} == {tuple(a.tolist()) for a in mins_h}
        assert all(np.array_equal(res.lift(a[None, :hubo.num_vars])[0], a) for a in mins_q)

    @settings(max_examples=100, deadline=None)
    @given(hubo=small_hubos())
    def test_replayed_keys_equal_quadratize_s(self, hubo):
        # substitute's keys are the old replay of its aux_map, and at the
        # worst-case alpha no penalty cancels a HUBO coefficient, so they are
        # the QUBO's first keys, in term order
        keys, aux_map = substitute(hubo)
        res = quadratize(hubo)
        assert aux_map == res.aux_map
        assert keys == ref.substituted_keys(hubo, aux_map)
        assert keys == list(res.qubo.terms)[:len(hubo.terms)]
        assert all(len(key) <= 2 for key in keys)

    def test_nonpositive_alpha_rejected(self):
        hubo = build_poly({(0, 1, 2): 1.0}, 3)
        with pytest.raises(InputError):
            quadratize(hubo, "fixed:0")

    def test_scaled_alpha(self):
        assert scaled_alpha(100.0) == pytest.approx(110.0)


class TestVerify:
    def test_exhaustive_three_variable_example(self):
        hubo = build_poly({(0, 1, 2): 1.0}, 3)
        res = quadratize(hubo)
        report = verify_quadratization(hubo, res)
        # alpha 2 against the one substituted term's mass 1: no scan runs
        assert (report.gap_source, report.checked) == ("certificate", 0)
        assert report.lift_residual == 0.0
        assert report.gap_bound == 2.0 - 1.0 - report.tolerance > 0
        assert report.ok

    def test_turn_tet_n6_exhaustive(self):
        m = encode_turn_tetrahedral("HHHHHH", hp_model())
        res = quadratize(m.objective)
        report = verify_quadratization(m.objective, res, budget=14)
        assert report.gap_source == "certificate" and report.ok

    def test_halved_alpha_reports_negative_gap(self):
        hubo = build_poly({(0, 1, 2): -8.0}, 3)
        res = quadratize(hubo, "fixed:0.5")
        report = verify_quadratization(hubo, res)
        assert report.gap_source == "exhaustive" and report.gap_bound < 0
        assert not report.ok

    def test_halved_alpha_fails_through_the_sampled_gap(self):
        # beyond the budget nothing is scanned, sampled or exhaustive: the
        # negative certificate gap alone refuses the reduction
        hubo = build_poly({(0, 1, 2): -8.0}, 3)
        report = verify_quadratization(hubo, quadratize(hubo, "fixed:0.5"), budget=0)
        assert (report.gap_source, report.checked) == ("certificate", 0)
        assert report.lift_residual == 0.0
        assert report.gap_bound == 0.5 - 8.0 - report.tolerance and not report.ok

    def test_lift_project_roundtrip(self, rng):
        hubo = build_poly({(0, 1, 2): 1.0, (0, 2, 3): 2.0}, 4)
        res = quadratize(hubo)
        bits = rng.integers(0, 2, size=(8, 4)).astype(np.uint8)
        for row, lifted in zip(bits, res.lift(bits)):
            assert np.array_equal(lifted[:hubo.num_vars], row)
            assert res.qubo.evaluate(lifted) == pytest.approx(hubo.evaluate(row), abs=1e-9)

    def test_weak_alpha_on_the_cli_problem_fails_through_the_gap(self, cli_reduction):
        # 43 originals, above the budget: the certificate is not positive and
        # no scan runs, so the reduction is refused
        hubo, _ = cli_reduction
        report = verify_quadratization(hubo, quadratize(hubo, "fixed:1"))
        assert (report.gap_source, report.checked) == ("certificate", 0)
        assert report.lift_residual <= report.tolerance
        assert report.gap_bound <= 0.0 and not report.ok

    def test_cli_problem_verifies_with_an_exact_lift(self, cli_reduction):
        hubo, res = cli_reduction
        report = verify_quadratization(hubo, res)
        assert (report.gap_source, report.checked) == ("certificate", 0)
        assert report.ok and report.lift_residual == 0.0

    def test_random_cubic_hubo_verifies_by_the_certificate(self):
        """16 originals and 11 auxiliaries: the joint scan would run over
        2^27 rows (33.8 s measured), and the certificate needs none."""
        rng = np.random.default_rng(4)
        fields, coeffs = rng.normal(size=16), rng.normal(size=16)
        triples = list(combinations(range(16), 3))
        acc = TermAccumulator()
        for i, c in enumerate(fields):
            acc.add((i,), c)
        for t, c in zip(rng.choice(len(triples), size=16, replace=False), coeffs):
            acc.add(triples[t], c)
        hubo = acc.build(16)
        res = quadratize(hubo, "worst_case")
        assert len(res.aux_map) == 11
        report = verify_quadratization(hubo, res)
        assert (report.gap_source, report.checked) == ("certificate", 0)
        assert report.ok

    def test_per_auxiliary_masses_certify_below_the_whole_mass(self):
        """30 disjoint cubic terms over 90 variables: each auxiliary moves
        only its own term, so alpha = 2 max |c| certifies with gap max |c|,
        where the whole mass M is 15.5 times max |c|."""
        coeffs = [(k + 1) / 8 * (-1) ** k for k in range(30)]
        hubo = build_poly({(3 * k, 3 * k + 1, 3 * k + 2): c for k, c in enumerate(coeffs)}, 90)
        res = quadratize(hubo, "fixed:7.5")
        assert len(res.aux_map) == 30
        assert list(aux_masses(hubo, *substitute(hubo)).values()) == [abs(c) for c in coeffs]
        report = verify_quadratization(hubo, res)
        assert (report.gap_source, report.checked) == ("certificate", 0)
        assert report.gap_bound == 7.5 - 3.75 - report.tolerance and report.ok

    def test_masses_follow_the_auxiliaries_built_from_each(self):
        # aux 5 = x0 x1, then aux 6 = x2 x5: both quartic terms hold 6, which is
        # built from 5, so they count for both; the cubic term holds 5 only
        hubo = build_poly({(0, 1, 2, 3): 2.0, (0, 1, 2, 4): -1.0, (0, 1, 3): 0.5}, 5)
        res = quadratize(hubo)
        assert res.aux_map == [(5, (0, 1)), (6, (2, 5))]
        keys, aux_map = substitute(hubo)
        assert (keys, aux_map) == ([(3, 6), (4, 6), (3, 5)], res.aux_map)
        assert aux_masses(hubo, keys, aux_map) == {5: 3.5, 6: 3.0}

    @pytest.mark.parametrize("edit", [drop_smallest, flip_penalty_sign], ids=["dropped-term", "penalty-sign"])
    @pytest.mark.parametrize("case", ["exhaustive", "cli"])
    def test_broken_reduction_fails_the_proof_and_the_scans(self, cli_reduction, edit, case):
        if case == "cli":
            hubo, res = cli_reduction
        else:
            hubo = build_poly({(0, 1, 2): 1.0, (1, 2, 3): -2.0, (0, 3): 0.5}, 4)
            res = quadratize(hubo)
        report = verify_quadratization(hubo, edited(res, edit))
        # the QUBO is not quadratize's, so the certificate does not hold; the
        # lift proof reads the QUBO and fails
        assert report.gap_source == ("certificate" if case == "cli" else "exhaustive")
        assert report.lift_residual > report.tolerance
        assert not report.ok

    @pytest.mark.parametrize("budget", [20, 0])
    def test_penalty_moved_under_an_exact_lift_is_refused(self, budget):
        hubo = build_poly({(0, 1, 2): 1.0, (1, 2, 3): -2.0, (0, 3): 0.5}, 4)
        res = edited(quadratize(hubo), move_field_to_pair_term)
        assert lift_residual(hubo, res) == 0.0
        report = verify_quadratization(hubo, res, budget=budget)
        # the rebuild differs, so no certificate; the scan finds the setting that pays
        if budget:
            assert report.gap_source == "exhaustive" and report.gap_bound == -15.5
        else:
            assert (report.gap_source, report.checked, report.gap_bound) == ("certificate", 0, float("-inf"))
        assert not report.ok

    @pytest.mark.parametrize("budget", [20, 0], ids=["exhaustive", "refused"])
    def test_overflowing_energies_fail_as_nan(self, budget):
        # m_b = 2e308 overflows to inf, and so does the tolerance: the certificate
        # is -inf, not an error.  The split stays finite, but the lift's energy
        # at x = 1111 is 2e308, inf in float64, so the scan's costs there are
        # inf - inf, and its gap is NaN
        hubo = build_poly({(0, 1, 2): 1e308, (0, 1, 3): 1e308}, 4)
        with np.errstate(all="ignore"):
            report = verify_quadratization(hubo, quadratize(hubo, "fixed:1"), budget=budget)
        assert report.gap_source == ("exhaustive" if budget else "certificate")
        assert not report.gap_bound > 0.0 and not report.ok

    def test_lift_residual_is_the_size_of_the_fault(self):
        hubo = build_poly({(0, 1, 2): 1.0, (1, 2, 3): -2.0, (0, 3): 0.5}, 4, offset=1.5)
        res = quadratize(hubo)
        assert lift_residual(hubo, res) == 0.0
        assert lift_residual(hubo, edited(res, flip_penalty_sign)) == 4.0 * res.alpha
        shifted = QuadratizationResult(PolynomialObjective(res.qubo.num_vars, res.qubo.terms, 2.0),
                                       res.aux_map, res.alpha)
        assert lift_residual(hubo, shifted) == 0.5

    @pytest.mark.parametrize("cells", [1 << 20, 1024 * 46, 4095 * 46, 5],
                             ids=["below-one-chunk", "4-chunks", "1-chunk-plus-1", "many-chunks"])
    def test_exhaustive_report_does_not_depend_on_the_chunk(self, monkeypatch, cells):
        # the scan's chunks are the enumerator's low blocks of original codes, as
        # many as its block budget of `cells` allows against the 46 monomials of
        # the originals: all 4,096 codes in one block, 4 blocks of 1,024, one of
        # 4,095 and one of 1, and, at 5 cells, 2^19 blocks of one state each
        hubo = encode_turn_tetrahedral("HHHHHH", hp_model()).objective  # 12 originals: 4,096 codes
        res = quadratize(hubo, "fixed:1")  # 7 auxiliaries: 2^19 joint rows
        monkeypatch.setattr(core, "BLOCK_CELLS", 1 << 12)
        whole = verify_quadratization(hubo, res, budget=14)
        assert whole.gap_source == "exhaustive"
        monkeypatch.setattr(core, "BLOCK_CELLS", cells)
        assert verify_quadratization(hubo, res, budget=14) == whole

    def test_exhaustive_scan_stays_in_bounded_memory(self):
        # LKKLKK at alpha 10,000: 2^19 joint rows, which peak near 2.4 MB under
        # tracemalloc in the enumerator's blocks of about 2^16 cells
        hubo = encode("turn-tet", "LKKLKK", get_model("mj")).objective
        res = quadratize(hubo, "fixed:10000")
        tracemalloc.start()
        try:
            report = verify_quadratization(hubo, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.gap_source, report.checked, report.gap_bound) == ("exhaustive", 1 << 19, 948.0)
        assert peak < 10e6
