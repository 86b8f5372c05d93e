import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefold.core import InputError, TermAccumulator, qubo_to_ising
from latticefold.encoders import encode_turn_tetrahedral, hp_model
from latticefold.reduction import (
    QuadratizationResult,
    quadratize,
    scaled_alpha,
    verify_quadratization,
    worst_case_alpha,
)
from latticefold.solvers import brute_force

from conftest import all_assignments, build_poly

# sums of these are exact in float64, so energies compare with ==
EXACT_COEFFS = [-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0]


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
        assert report.exhaustive
        assert report.max_discrepancy <= 1e-9
        assert report.min_inconsistency_gap > 0
        assert report.ok

    def test_turn_tet_n6_exhaustive(self):
        m = encode_turn_tetrahedral("HHHHHH", hp_model())
        res = quadratize(m.objective)
        report = verify_quadratization(m.objective, res, budget=14)
        assert report.exhaustive and report.ok

    def test_halved_alpha_reports_negative_gap(self):
        hubo = build_poly({(0, 1, 2): -8.0}, 3)
        res = quadratize(hubo, "fixed:0.5")
        report = verify_quadratization(hubo, res)
        assert report.min_inconsistency_gap < 0
        assert not report.ok

    def test_lift_project_roundtrip(self, rng):
        hubo = build_poly({(0, 1, 2): 1.0, (0, 2, 3): 2.0}, 4)
        res = quadratize(hubo)
        bits = rng.integers(0, 2, size=(8, 4)).astype(np.uint8)
        for row, lifted in zip(bits, res.lift(bits)):
            assert np.array_equal(lifted[:hubo.num_vars], row)
            assert res.qubo.evaluate(lifted) == pytest.approx(hubo.evaluate(row), abs=1e-9)
