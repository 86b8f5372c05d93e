import numpy as np
import pytest

from latticefold.core import InputError, IsingProblem, TermAccumulator, qubo_to_ising
from latticefold.encoders import encode, encode_coord_tetrahedral, hp_model, mj_model, optimal_fold_energy
from latticefold.reduction import quadratize
from latticefold.solvers import (
    SA_BLOCK,
    ColorClasses,
    PtConfig,
    ResourceRefusal,
    SaConfig,
    _Compiled,
    _sa_rows,
    brute_force,
    color_graph,
    counter_uniforms,
    parallel_tempering,
    sample_set_from_csv,
    simulated_annealing,
    temperature_ladder,
)

from conftest import build_poly, random_qubo


class TestCounterRng:
    def test_deterministic_and_order_free(self):
        a = counter_uniforms(42, np.arange(10), np.arange(10) * 3)
        b = counter_uniforms(42, np.arange(10), np.arange(10) * 3)
        assert np.array_equal(a, b)
        assert len(set(np.round(a, 12))) == 10

    def test_roughly_uniform(self):
        u = counter_uniforms(7, np.arange(20000))
        assert 0.48 < u.mean() < 0.52
        assert u.min() >= 0.0 and u.max() < 1.0


class TestColoring:
    def test_no_quadratic_terms_single_class(self):
        obj = build_poly({(0,): 1.0, (1,): -1.0, (2,): 0.5}, 3)
        cc = color_graph(obj)
        assert len(cc.classes) == 1
        assert sorted(cc.classes[0].tolist()) == [0, 1, 2]

    def test_path_graph_two_classes(self):
        obj = build_poly({(0, 1): 1.0, (1, 2): 1.0}, 3)
        cc = color_graph(obj)
        assert len(cc.classes) == 2
        as_sets = {frozenset(c.tolist()) for c in cc.classes}
        assert as_sets == {frozenset({0, 2}), frozenset({1})}

    def test_random_qubo_classes_independent(self, rng):
        obj = random_qubo(rng, 25, n_quad=70)
        cc = color_graph(obj)
        assert cc.verify(obj)
        assert sorted(v for c in cc.classes for v in c.tolist()) == list(range(25))

    def test_hubo_conflicts_counted(self):
        obj = build_poly({(0, 1, 2): 1.0}, 3)
        cc = color_graph(obj)
        assert len(cc.classes) == 3


class TestBruteForce:
    def test_two_variable_example(self):
        obj = build_poly({(0,): 1.0, (1,): -1.0}, 2)
        energy, minimizers = brute_force(obj)
        assert energy == -1.0
        assert len(minimizers) == 1
        assert minimizers[0].tolist() == [0, 1]

    def test_refusal_over_limit(self):
        obj = build_poly({(i,): 1.0 for i in range(35)}, 35)
        with pytest.raises(ResourceRefusal):
            brute_force(obj)

    def test_complete_degenerate_set(self):
        obj = build_poly({(0, 1): 1.0}, 2)
        energy, minimizers = brute_force(obj)
        assert energy == 0.0
        assert len(minimizers) == 3  # everything except 11

    def test_ising_input(self):
        ising = IsingProblem(num_vars=2, couplings={(0, 1): 1.0}, fields={}, offset=0.0)
        energy, minimizers = brute_force(ising)
        assert energy == -1.0
        assert len(minimizers) == 2  # the two antiparallel states


class TestSimulatedAnnealing:
    def test_single_variable(self):
        obj = build_poly({(0,): 1.0}, 1)
        for zeta in (0.5, 0.99):
            ss = simulated_annealing(obj, SaConfig(zeta, 30, 4, seed=3))
            assert ss.best_energy == 0.0
            assert ss.best_bits.tolist() == [0]

    def test_downhill_always_taken(self):
        # with any temperature, a strictly improving flip is accepted: the
        # final best can never sit above the single-flip floor
        obj = build_poly({(0,): 5.0, (1,): 7.0}, 2)
        ss = simulated_annealing(obj, SaConfig(0.5, 5, 8, seed=0, t0=1e-9))
        assert ss.best_energy == 0.0

    def test_config_validation(self):
        with pytest.raises(InputError):
            SaConfig(cooling_rate=1.0, sweeps=10, restarts=1, seed=0)
        with pytest.raises(InputError):
            SaConfig(cooling_rate=0.5, sweeps=0, restarts=1, seed=0)

    def test_bit_identical_across_jobs(self, rng):
        obj = random_qubo(rng, 20, n_quad=50)
        # 130 restarts span three SA_BLOCK blocks, so jobs > 1 starts the pool
        for restarts in (12, 130):
            runs = [
                simulated_annealing(obj, SaConfig(0.995, 40, restarts, seed=99), jobs=j)
                for j in (1, 4, 8)
            ]
            for other in runs[1:]:
                assert np.array_equal(runs[0].bits, other.bits)
                assert np.array_equal(runs[0].energies, other.energies)
                assert np.array_equal(runs[0].sweeps, other.sweeps)

    @pytest.mark.parametrize("t0", [None, 2.0])
    def test_sa_rows_independent_of_partition(self, t0):
        # every row's arithmetic must not depend on the rows sharing its block
        m = encode_coord_tetrahedral("LKDFSAW", mj_model(), L=3)
        comp = _Compiled(m.objective)
        cfg = SaConfig(0.999, 10, 70, seed=13, t0=t0)
        rows = np.arange(cfg.restarts, dtype=np.int64)
        whole = _sa_rows(comp, cfg, rows)
        for size in (1, 7, 13, SA_BLOCK):
            parts = [_sa_rows(comp, cfg, rows[lo : lo + size]) for lo in range(0, len(rows), size)]
            for got, want in zip((np.concatenate(p) for p in zip(*parts)), whole):
                assert np.array_equal(got, want), size

    def test_reaches_ground_on_coordinate_model(self):
        hp = hp_model()
        m = encode_coord_tetrahedral("HHHHHH", hp, L=3)
        ref = optimal_fold_energy("tetrahedral", "HHHHHH", hp, m.lattice_spec())
        ss = simulated_annealing(m.objective, SaConfig(0.9995, 150, 64, seed=5))
        assert ss.best_energy == pytest.approx(ref, abs=1e-6)

    def test_rejects_hubo(self):
        hubo = build_poly({(0, 1, 2): 1.0}, 3)
        with pytest.raises(InputError):
            simulated_annealing(hubo, SaConfig(0.9, 10, 2, seed=1))

    def test_sample_energies_match_evaluate(self, rng):
        obj = random_qubo(rng, 15)
        ss = simulated_annealing(obj, SaConfig(0.99, 30, 8, seed=2))
        for bits, energy in zip(ss.bits, ss.energies):
            assert obj.evaluate(bits) == pytest.approx(energy, abs=1e-9)


class TestLargeScaleProblems:
    def test_reduced_turn_tet_solves_without_drift_error(self):
        # worst-case alpha gives sum |coefficient| ~ 4e10, so float64 rounding
        # of the incremental energy alone exceeds the unit-scale DRIFT_TOL
        hubo = encode("turn-tet", "LKKKKLKKKKL", mj_model()).objective
        qubo = quadratize(hubo, "worst_case").qubo
        ss = simulated_annealing(qubo, SaConfig(0.9998, 100, 8, seed=7))
        assert np.all(np.isfinite(ss.energies))
        res = parallel_tempering(qubo, PtConfig(num_temps=8, sweeps=100, measure_sweeps=10, seed=7))
        assert np.all(np.isfinite(res.sample_set.energies))


class TestParallelTempering:
    def test_ladder_formula(self):
        cfg = PtConfig(num_temps=400, t_min=1.0, t_max=1e4, sweeps=10, measure_sweeps=5, seed=0)
        ladder = temperature_ladder(cfg)
        r = (1e4) ** (1.0 / 399)
        assert ladder[0] == pytest.approx(1.0)
        assert ladder[-1] == pytest.approx(1e4)
        assert np.allclose(ladder[1:] / ladder[:-1], r, rtol=1e-12)

    def test_swap_probability_one_at_equal_energy(self):
        # equal-energy neighbors always swap: with a constant objective every
        # swap fires, which leaves the (identical) states invariant but is
        # observable through determinism of the trajectory bookkeeping
        exponent = (5.0 - 5.0) * (1.0 / 1.0 - 1.0 / 2.0)
        assert np.exp(exponent) == 1.0

    def test_deterministic(self, rng):
        obj = random_qubo(rng, 12)
        cfg = PtConfig(num_temps=16, t_min=0.5, t_max=100, sweeps=80, measure_sweeps=20, seed=31)
        r1 = parallel_tempering(obj, cfg)
        r2 = parallel_tempering(obj, cfg)
        assert np.array_equal(r1.sample_set.bits, r2.sample_set.bits)
        assert np.array_equal(r1.measure_states, r2.measure_states)
        assert np.array_equal(r1.energy_trajectory, r2.energy_trajectory)

    def test_reaches_ground_coord_tet_n7(self):
        mj = mj_model()
        seq = "LKLKLKL"
        m = encode_coord_tetrahedral(seq, mj, L=3)
        ref = optimal_fold_energy("tetrahedral", seq, mj, m.lattice_spec())
        res = parallel_tempering(
            m.objective,
            PtConfig(num_temps=64, t_min=1.0, t_max=1e4, sweeps=500, measure_sweeps=50, seed=17),
        )
        assert res.sample_set.best_energy == pytest.approx(ref, abs=1e-6)

    def test_replica_energies_ordered_after_burn_in(self, rng):
        obj = random_qubo(rng, 16, n_quad=40)
        res = parallel_tempering(
            obj, PtConfig(num_temps=12, t_min=0.2, t_max=50, sweeps=400, measure_sweeps=100, seed=8)
        )
        tail = res.energy_trajectory[200:]
        means = tail.mean(axis=0)
        # statistical smoke check: lowest slot clearly below highest slot
        assert means[0] < means[-1]

    def test_detailed_balance_boltzmann_ratios(self):
        # long single-temperature sampling of a 2-variable objective
        obj = build_poly({(0,): 1.0, (1,): -0.5, (0, 1): 0.75}, 2)
        temp = 1.3
        cfg = PtConfig(num_temps=1, t_min=temp, t_max=temp, sweeps=60000, measure_sweeps=50000, seed=77)
        res = parallel_tempering(obj, cfg)
        states = res.measure_states
        codes = states[:, 0] + 2 * states[:, 1]
        counts = np.bincount(codes, minlength=4).astype(float)
        energies = np.array([obj.evaluate([b0, b1]) for b1 in (0, 1) for b0 in (0, 1)])
        weights = np.exp(-energies / temp)
        probs = weights / weights.sum()
        n = counts.sum()
        for state in range(4):
            expected = n * probs[state]
            sigma = np.sqrt(n * probs[state] * (1 - probs[state]))
            assert abs(counts[state] - expected) <= 3 * sigma

    def test_pt_config_validation(self):
        with pytest.raises(InputError):
            PtConfig(num_temps=4, t_min=2.0, t_max=1.0, sweeps=10, measure_sweeps=5)
        with pytest.raises(InputError):
            PtConfig(num_temps=4, t_min=1.0, t_max=2.0, sweeps=10, measure_sweeps=50)


class TestSampleSetCsv:
    def test_roundtrip(self, tmp_path, rng):
        obj = random_qubo(rng, 9)
        ss = simulated_annealing(obj, SaConfig(0.99, 20, 6, seed=4))
        path = tmp_path / "s.csv"
        ss.to_csv(path, manifest_name="m.json")
        again = sample_set_from_csv(path)
        assert np.array_equal(again.bits, ss.bits)
        assert np.array_equal(again.energies, ss.energies)
        assert np.array_equal(again.replicas, ss.replicas)
