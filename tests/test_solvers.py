import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticefold import solvers
from latticefold.core import InputError, IsingProblem, TermAccumulator, qubo_to_ising
from latticefold.encoders import encode, hp_model, mj_model, optimal_fold_energy
from latticefold.reduction import quadratize
from latticefold.solvers import (
    SA_BLOCK_CELLS,
    ColorClasses,
    PtConfig,
    ResourceRefusal,
    SaConfig,
    SampleSet,
    _atiqullah_t0,
    _Compiled,
    _counter_state,
    _exact_split,
    _metropolis,
    _sa_blocks,
    _sa_rows,
    brute_force,
    color_graph,
    counter_uniforms,
    parallel_tempering,
    sample_set_from_csv,
    simulated_annealing,
    stable_seed,
    temperature_ladder,
)

import reference_exact as ref
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

    def test_pinned_values(self):
        # every SA/PT sample is drawn from this stream, so it must not move
        u = counter_uniforms(42, np.arange(3)[:, None], 7, np.array([[0, 5]]))
        assert u.tolist() == [[0.22759740179752463, 0.1558284460118351],
                              [0.4544897710529917, 0.8437367083009601],
                              [0.9337913894358153, 0.0262155808325355]]
        assert counter_uniforms(-1, 2**40) == 0.7134044326688244

    @settings(max_examples=60, deadline=None)
    @given(
        key=st.integers(-(2**63), 2**64 - 1),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        scalar_middle=st.booleans(),
        steps=st.integers(0, 3),
        data=st.data(),
    )
    def test_state_prefix_gives_same_uniforms(self, key, rows, cols, scalar_middle, steps, data):
        # absorbing a prefix of the counters into a state, one counter at a
        # time, then drawing with the rest must give the one-call uniforms
        def counter(shape):
            values = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1),
                                        min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
            return np.array(values, dtype=np.int64).reshape(shape)

        middle = data.draw(st.integers(0, 2**40)) if scalar_middle else counter((rows, cols))
        counters = (counter((rows, 1)), middle, counter((1, cols)))
        want = counter_uniforms(key, *counters)
        state = key
        for c in counters[:steps]:
            state = _counter_state(state, c)
        got = counter_uniforms(state, *counters[steps:])
        assert got.shape == want.shape == (rows, cols)
        assert np.array_equal(got, want)


class TestBlockPlan:
    def test_anneal_workload_sizes(self):
        # 432 restarts x 189 variables fit one block; two workers get two
        assert [len(b) for b in _sa_blocks(432, 189, 1)] == [432]
        assert [len(b) for b in _sa_blocks(432, 189, 2)] == [216, 216]

    @settings(max_examples=60, deadline=None)
    @given(restarts=st.integers(1, 3000), n=st.integers(0, 1 << 16), workers=st.integers(1, 8))
    def test_even_split_bounded_by_workers_and_cells(self, restarts, n, workers):
        blocks = _sa_blocks(restarts, n, workers)
        assert np.array_equal(np.concatenate(blocks), np.arange(restarts))
        sizes = [len(b) for b in blocks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        cells = restarts * n
        if cells <= SA_BLOCK_CELLS and workers == 1:
            assert len(blocks) == 1
        assert len(blocks) >= min(restarts, -(-cells // SA_BLOCK_CELLS))
        assert len(blocks) >= min(restarts, workers)


class TestExactSplit:
    @staticmethod
    def fields(state, a):
        hi, lo = _exact_split(a)
        return state @ lo + state @ hi

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 40),
        w=st.integers(1, 6),
        entries=st.lists(st.one_of(st.just(0.0), st.just(4.78e7), st.floats(1e-6, 1e8)),
                         min_size=240, max_size=240),
        signs=st.lists(st.booleans(), min_size=240, max_size=240),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fields_exact_under_any_rows_or_order(self, k, w, entries, signs, seed):
        # magnitudes from 1e-6 to 1e8 (and the worst-case alpha scale) in one
        # matrix: the class fields must not depend on the rows, their number
        # or order, the column order of the state or its memory layout
        a = np.array([-x if neg else x for x, neg in zip(entries, signs)])[: k * w].reshape(k, w)
        rng = np.random.default_rng(seed)
        state = rng.integers(0, 2, size=(400, k)).astype(np.float64)
        want = self.fields(state, a)
        for rows in (1, 2, 7, 64):
            assert self.fields(state[:rows], a).tobytes() == want[:rows].tobytes()
        perm = rng.permutation(400)
        assert self.fields(state[perm], a).tobytes() == want[perm].tobytes()
        cols = rng.permutation(k)
        assert self.fields(state[:, cols], a[cols]).tobytes() == want.tobytes()
        assert self.fields(np.asfortranarray(state), a).tobytes() == want.tobytes()
        # within one rounding plus the dropped residual of the exact sum
        residual = k * a.size * np.abs(a).sum() * 2.0**-102
        for r in range(0, 400, 37):
            exact = np.array([math.fsum(a[state[r] == 1.0, j]) for j in range(w)])
            assert np.all(np.abs(want[r] - exact) <= np.spacing(np.abs(want[r])) + residual)

    def test_split_drops_nothing_on_the_bench_problem(self):
        comp = _Compiled(encode("coord-tet", "LKDFSAW", mj_model()).objective)
        augmented = np.vstack([comp.Q[comp.order], comp.c])
        for cls, hi, lo in comp.blocks:
            assert np.array_equal(hi + lo, augmented[:, comp.order[cls]])


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
        ising = IsingProblem.from_tables(2, {}, {(0, 1): 1.0}, 0.0)
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
        # with 130 restarts and jobs 4 or 8 on two or more CPUs the restarts
        # are split into at least two blocks, so the process pool starts
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
        m = encode("coord-tet", "LKDFSAW", mj_model(), L=3)
        comp = _Compiled(m.objective)
        cfg = SaConfig(0.999, 10, 70, seed=13, t0=t0)
        rows = np.arange(cfg.restarts, dtype=np.int64)
        whole = _sa_rows(comp, cfg, rows)
        for size in (1, 7, 13, 64):
            parts = [_sa_rows(comp, cfg, rows[lo : lo + size]) for lo in range(0, len(rows), size)]
            for got, want in zip((np.concatenate(p) for p in zip(*parts)), whole):
                assert np.array_equal(got, want), size

    def test_best_picks_ignore_last_bit_energy_changes(self, monkeypatch):
        # energy pairs that differ by a jitter of 1e-12, far below TIE_TOL,
        # must not move a kept state or its sweep: ties keep the first
        comp = _Compiled(encode("coord-tet", "LKDFSAW", mj_model()).objective)
        cfg = SaConfig(0.999, 100, 64, seed=3)
        rows = np.arange(cfg.restarts, dtype=np.int64)
        want = _sa_rows(comp, cfg, rows)
        kernel = solvers._metropolis
        jitter = np.random.default_rng(0)

        def jittered(*args):
            for *head, pair in kernel(*args):
                yield (*head, pair + 1e-12 * jitter.uniform(-1.0, 1.0, pair.shape))

        monkeypatch.setattr(solvers, "_metropolis", jittered)
        for got, expected in zip(_sa_rows(comp, cfg, rows), want):
            assert np.array_equal(got, expected)

    def test_best_pick_resolves_a_gap_below_the_rounding_of_large_coefficients(self, monkeypatch):
        # sum |coefficient| ~ 1e10 and two low states 1e-3 apart: 01 (-1.001)
        # and 10 (-1.0).  The exact pair tells them apart, so every restart
        # that visits 01 keeps it, even after it kept 10 first
        comp = _Compiled(build_poly({(0,): -1.0, (1,): -1.001, (0, 1): 1e10}, 2))
        cfg = SaConfig(0.999, 200, 64, seed=4, t0=0.5)
        rows = np.arange(cfg.restarts, dtype=np.int64)
        kernel = solvers._metropolis
        low, high_first = np.zeros(len(rows), bool), np.zeros(len(rows), bool)

        def watched(*args):
            for sweep, state, pair in kernel(*args):
                bits = state[:, comp.inverse]
                high_first[:] |= (bits == [1.0, 0.0]).all(axis=1) & ~low
                low[:] |= (bits == [0.0, 1.0]).all(axis=1)
                yield sweep, state, pair

        monkeypatch.setattr(solvers, "_metropolis", watched)
        bits, energies, _ = _sa_rows(comp, cfg, rows)
        assert low.all() and (low & high_first).sum() >= 8
        assert bits.tolist() == [[0, 1]] * len(rows)
        assert energies.tolist() == [-1.001] * len(rows)

    def test_energies_independent_of_row_layout(self):
        # einsum's summation order follows the strides: a Fortran-ordered or
        # column-sliced copy of the rows must still give the same bytes
        comp = _Compiled(encode("coord-tet", "LKDFSAW", mj_model()).objective)
        rows = np.random.default_rng(3).integers(0, 2, size=(200, comp.n), dtype=np.int8)
        copies = [np.asfortranarray(rows), np.repeat(rows, 2, axis=1)[:, ::2],
                  np.concatenate([rows, rows], axis=1)[:, comp.n:]]
        for copy in copies:
            assert np.array_equal(copy, rows)
            assert comp.energies(copy).tobytes() == comp.energies(rows).tobytes()
            assert comp.local_fields(copy).tobytes() == comp.local_fields(rows).tobytes()

    def test_reaches_ground_on_coordinate_model(self):
        hp = hp_model()
        m = encode("coord-tet", "HHHHHH", hp, L=3)
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
        # worst-case alpha gives sum |coefficient| ~ 4e10, where float64
        # rounding of an incremental energy alone exceeds 1e-6: the carried
        # pair must still equal the pair recomputed from the state
        hubo = encode("turn-tet", "LKKKKLKKKKL", mj_model()).objective
        qubo = quadratize(hubo, "worst_case").qubo
        comp = _Compiled(qubo)
        rows = np.arange(16, dtype=np.int64)
        temps = _atiqullah_t0(comp, rows, stable_seed(7, "sa-probe-state"), stable_seed(7, "sa-probe"))
        for _, state, pair in _metropolis(comp, (1, 2), rows, 300, temps, 0.9998):
            assert np.array_equal(pair, ref.pair_energies(comp, state))
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
        assert np.array_equal(r1.energy_trajectory, r2.energy_trajectory)

    @pytest.mark.parametrize("qubo_seed", [0, 3])
    def test_first_sweep_keeps_its_lowest_replica(self, qubo_seed):
        # one sweep, where a replica other than slot 0 holds the lowest state
        obj = random_qubo(np.random.default_rng(qubo_seed), 12)
        cfg = PtConfig(num_temps=8, t_min=0.5, t_max=50, sweeps=1, measure_sweeps=1, seed=3)
        res = parallel_tempering(obj, cfg)
        sweep = res.energy_trajectory[0].astype(np.float64)
        assert sweep.argmin() != 0
        assert res.sample_set.replicas[-1] == -1
        assert res.sample_set.energies[-1] == pytest.approx(sweep.min(), abs=1e-5)

    def test_reaches_ground_coord_tet_n7(self):
        mj = mj_model()
        seq = "LKLKLKL"
        m = encode("coord-tet", seq, mj, L=3)
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
        states = res.sample_set.bits[:-1]  # the measured sweeps, without the best state
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
        for num_temps, t_min, t_max in ((1, 0.0, 1e4), (1, -5.0, 1e4), (1, math.nan, 1e4),
                                        (4, math.nan, 2.0), (4, 1.0, math.inf), (4, 1.0, math.nan)):
            with pytest.raises(InputError):
                PtConfig(num_temps=num_temps, t_min=t_min, t_max=t_max, sweeps=10, measure_sweeps=5)
        # one temperature never reads t_max
        assert temperature_ladder(PtConfig(num_temps=1, t_min=2.0, t_max=math.inf)).tolist() == [2.0]


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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_roundtrip_property(self, tmp_path_factory, data):
        # every column reads back bit for bit, from the four-column `to_csv`
        # form and from the five-column `unembed` form
        n = data.draw(st.integers(0, 12), label="n")
        m = data.draw(st.integers(1, 6), label="m")

        def column(elements):
            return st.lists(elements, min_size=m, max_size=m)

        odd = st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308])
        ss = SampleSet(
            space="boolean",
            bits=np.array(data.draw(column(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
                          dtype=np.uint8).reshape(m, n),
            energies=np.array(data.draw(column(st.floats(allow_nan=False, allow_infinity=False) | odd))),
            replicas=np.array(data.draw(column(st.integers(-1, 10**6)))),
            sweeps=np.array(data.draw(column(st.integers(0, 10**9)))),
            run_seconds=0.0,
            tau_seconds=0.0,
        )
        fractions = data.draw(column(st.floats(0.0, 1.0)), label="chain break fractions")
        four = tmp_path_factory.mktemp("csv") / "four.csv"
        ss.to_csv(four, manifest_name="m.json")
        head, *rows = four.read_text().splitlines(keepends=True)[1:]
        five = four.with_name("five.csv")
        five.write_text("# manifest=m.json\n" + head.rstrip("\n") + ",chain_break_fraction\n"
                        + "".join(f"{r.rstrip()},{f!r}\n" for r, f in zip(rows, fractions)))
        for path in (four, five):
            again = sample_set_from_csv(path)
            assert again.bits.shape == (m, n) and np.array_equal(again.bits, ss.bits)
            assert again.energies.tobytes() == ss.energies.tobytes()
            assert np.array_equal(again.replicas, ss.replicas)
            assert np.array_equal(again.sweeps, ss.sweeps)

    @pytest.mark.parametrize("row, message", [
        ("01,1.0,1,0", "2 bits, earlier rows have 3"),  # ragged bitstrings
        ("0a1,1.0,1,0", "not a string of 0s and 1s"),
        ("011,1.0,1", "expected 4 fields"),
        ("011,1.0,1,0,7", "expected 4 fields"),
        ("011,low,1,0", "could not convert"),
        ("011,1.0,one,0", "invalid literal"),
        ("011,1.0,1,0.5", "invalid literal"),
    ])
    def test_malformed_line_is_input_error(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"# manifest=-\nassignment,energy,replica,sweep\n010,0.5,0,3\n{row}\n")
        with pytest.raises(InputError, match=message) as info:
            sample_set_from_csv(path)
        assert "line 4" in str(info.value)
