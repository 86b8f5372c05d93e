import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticefold import core, solvers
from latticefold.core import TIE_TOL, InputError, IsingProblem, TermAccumulator, _exact_split, qubo_to_ising
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
    _metropolis,
    _sa_blocks,
    _sa_rows,
    brute_force,
    brute_force_samples,
    color_graph,
    counter_uniforms,
    parallel_tempering,
    sample_set_from_csv,
    simulated_annealing,
    stable_seed,
    temperature_ladder,
)

import reference_exact as ref
from conftest import all_assignments, build_poly, classes_independent, random_qubo


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
        buf = np.empty((3, 2))
        assert counter_uniforms(42, np.arange(3)[:, None], 7, np.array([[0, 5]]), out=buf) is buf
        assert buf.tolist() == u.tolist()

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
        buf = np.full((rows, cols), np.nan)
        assert counter_uniforms(state, *counters[steps:], out=buf) is buf
        assert np.array_equal(buf, want)

    @settings(max_examples=40, deadline=None)
    @given(
        key=st.integers(-(2**63), 2**64 - 1),
        width=st.integers(1, 600),
        chunks=st.integers(0, 2),
        offset=st.integers(-1, 1),
        sweep=st.integers(0, 2**40),
        shuffle=st.integers(0, 2**32 - 1),
    )
    @example(key=3, width=432, chunks=1, offset=0, sweep=5, shuffle=0)  # the anneal table
    @example(key=3, width=432, chunks=2, offset=1, sweep=5, shuffle=0)
    @example(key=-1, width=1, chunks=1, offset=1, sweep=0, shuffle=1)
    def test_out_gives_the_allocating_draw(self, key, width, chunks, offset, sweep, shuffle):
        # the kernel's draw: a (key, row, sweep) prefix state and a column of
        # variables, whose count is 0, or below, at or across a chunk's
        step = max(1, solvers._MIX_CELLS // width)
        n = max(0, chunks * step + offset)
        order = np.random.default_rng(shuffle).permutation(n)[:, None]
        rows = np.arange(width)[None, :]
        state = _counter_state(_counter_state(key, rows), sweep)
        before = state.copy()
        want = ref.splitmix_uniforms(key, rows, sweep, order)
        buf = np.full((n, width), np.nan)
        assert counter_uniforms(state, order, out=buf) is buf
        assert np.array_equal(buf, want)
        assert np.array_equal(counter_uniforms(state, order), want)
        assert np.array_equal(state, before)  # the prefix state is not mixed in place


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
        obj = encode("coord-tet", "LKDFSAW", mj_model()).objective
        comp = _Compiled(obj)
        augmented = ref.kernel_matrix(comp, *ref.dense_form(obj))
        for cls, hi, lo in comp.blocks:
            assert np.array_equal(hi + lo, augmented[:, cls])

    @pytest.mark.parametrize("a", [[[1e-300], [-3e-300]], [[5e-324, -5e-324], [0.0, 2.5e-310]]],
                             ids=["normal", "subnormal"])
    def test_tiny_entries_split_exactly(self, a):
        # below sum |a| ~ 1e-292 the lo grid 2^(e - 52) would underflow to 0
        a = np.array(a)
        with np.errstate(all="raise"):
            hi, lo = _exact_split(a)
        assert np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))
        assert np.array_equal(hi + lo, a)

    def test_tiny_coefficients_solve_without_warnings(self, tmp_path, monkeypatch):
        from latticefold.cli import main

        monkeypatch.chdir(tmp_path)
        obj = build_poly({(0,): 1e-300, (1,): -3e-300}, 2)
        (tmp_path / "p.json").write_text(json.dumps(obj.to_dict()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "p.json", "--solver", "sa", "--seed", "1", "--restarts", "8",
                         "--sweeps", "20", "--out", "s.csv"]) == 0
        ss = sample_set_from_csv(tmp_path / "s.csv")
        assert np.array_equal(ss.energies, obj.evaluate_batch(ss.bits))

    def test_blocks_are_c_ordered_on_64_byte_boundaries(self):
        comp = _Compiled(encode("coord-tet", "LKDFSAW", mj_model()).objective)
        for (cls, hi, lo), fused in zip(comp.blocks, comp.fused):
            # [hiᵀ; loᵀ], the (2|class|, n + 1) left factor of the class's products
            assert fused.flags.c_contiguous and fused.ctypes.data % 64 == 0
            assert fused.shape == (2 * (cls.stop - cls.start), comp.n + 1)
            # the blocks are views of it, not copies
            assert np.shares_memory(hi, fused) and np.shares_memory(lo, fused)
            assert hi.T.tobytes() + lo.T.tobytes() == fused.tobytes()


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
        assert classes_independent(cc.classes, obj)
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
        ising = IsingProblem(2, {(0, 1): 1.0}, 0.0)
        energy, minimizers = brute_force(ising)
        assert energy == -1.0
        assert len(minimizers) == 2  # the two antiparallel states

    @pytest.mark.parametrize("terms, n, least, argmin", [
        ({(0, 1, 2): -1e308, (0, 1, 3): 1e308}, 4, -1e308, [1, 1, 1, 0]),
        ({(0,): -1.7976931348623157e308}, 1, -1.7976931348623157e308, [1]),
    ], ids=["sum-overflows", "largest-float"])
    def test_coefficient_sum_past_the_largest_float(self, terms, n, least, argmin):
        # no state's energy overflows, so neither may a half: the split takes a
        # sum |c| past 2^1024 (2e308) at 2^-64 scale, and the largest float64,
        # 2^1024 - 2^971, rounds to nearest on its grid of 2^973 but not up to
        # 2^1024; inf in a half would make every energy NaN (inf * 0)
        obj = build_poly(terms, n)
        energy, minimizers = brute_force(obj)
        assert energy == least
        assert [m.tolist() for m in minimizers] == [argmin]
        bits = all_assignments(n)
        assert obj.evaluate_batch(bits).tobytes() == ref.exact_energies(obj, bits).tobytes()

    def test_nan_energy_is_no_minimizer(self):
        # at x = 111 the low block sums 1e308 + 1e308 to inf and the high one
        # to -inf, so its blocked energy is NaN: that state is passed over, and
        # the least energy is that of the states whose sums stay finite
        obj = build_poly({(0,): 1e308, (1,): 1e308, (0, 2): -1e308, (1, 2): -1e308}, 3)
        with np.errstate(all="ignore"):
            energy, minimizers = brute_force(obj)
        assert energy == 0.0
        assert [m.tolist() for m in minimizers] == [[0, 0, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]]

    def test_samples_hold_every_minimizer(self):
        ising = IsingProblem(2, {(0, 1): 1.0}, 0.0)
        samples = brute_force_samples(ising, free_var_limit=2)
        assert samples.space == ising.space
        assert samples.bits.dtype == np.uint8 and samples.bits.tolist() == [[1, 0], [0, 1]]
        assert samples.energies.tolist() == [-1.0, -1.0]
        assert samples.replicas.tolist() == [0, 1] and samples.sweeps.tolist() == [0, 0]
        assert samples.run_seconds == samples.tau_seconds >= 0.0
        assert samples.meta == {"solver": "brute", "minimizers": 2}
        with pytest.raises(ResourceRefusal):
            brute_force_samples(ising, free_var_limit=1)


class TestSimulatedAnnealing:
    def test_single_variable(self):
        obj = build_poly({(0,): 1.0}, 1)
        for zeta in (0.5, 0.99):
            ss = simulated_annealing(obj, SaConfig(zeta, 30, 4, seed=3))
            assert ss.best_energy == 0.0
            assert ss.bits[np.argmin(ss.energies)].tolist() == [0]

    @pytest.mark.parametrize("terms, n", [
        ({(0,): 1.0}, 1),
        ({(0,): -1.0, (1,): 2.0, (0, 1): -3.0}, 2),
        ({}, 3),  # every change is 0: the all-accepted branch
    ], ids=["one", "two", "three-no-terms"])
    def test_probe_start_temperature_finite_and_positive(self, monkeypatch, terms, n):
        probed = []

        def recorded(*args):
            probed.append(_atiqullah_t0(*args))
            return probed[-1]

        monkeypatch.setattr(solvers, "_atiqullah_t0", recorded)
        simulated_annealing(build_poly(terms, n), SaConfig(0.99, 5, 6, seed=3))
        (t0,) = probed
        assert t0.shape == (6,) and np.all(np.isfinite(t0)) and np.all(t0 > 0)
        if not terms:
            assert t0.tolist() == [1.0] * 6

    def test_downhill_always_taken(self):
        # with any temperature, a strictly improving flip is accepted: the
        # final best can never sit above the single-flip floor
        obj = build_poly({(0,): 5.0, (1,): 7.0}, 2)
        ss = simulated_annealing(obj, SaConfig(0.5, 5, 8, seed=0, t0=1e-9))
        assert ss.best_energy == 0.0

    def test_downhill_taken_at_a_temperature_cooled_to_zero(self):
        # t0 = 5e-324 cools to 0 after the first class: ΔE / -0 is +inf for a
        # downhill flip, so every restart still reaches the ground state
        obj = build_poly({(0, 1): 1e-3, (1,): -1.0, (0,): 0.5}, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ss = simulated_annealing(obj, SaConfig(0.4, 5, 16, seed=1, t0=5e-324))
        assert ss.energies.tolist() == [-1.0] * 16

    def test_config_validation(self):
        with pytest.raises(InputError):
            SaConfig(cooling_rate=1.0, sweeps=10, restarts=1, seed=0)
        with pytest.raises(InputError):
            SaConfig(cooling_rate=0.5, sweeps=0, restarts=1, seed=0)

    @pytest.mark.parametrize("seed", [None, "7", 1.5, True, np.int64(7)],
                             ids=["none", "text", "float", "bool", "numpy"])
    def test_seed_must_be_an_integer(self, seed):
        # the seed is hashed as text ("7" and True name other streams than 7 and 1)
        # and written to the summary JSON, which takes no numpy integer
        for make in (lambda: SaConfig(0.99, 5, 2, seed=seed), lambda: PtConfig(seed=seed)):
            with pytest.raises(InputError, match=re.escape(f"seed {seed!r} is not an integer")):
                make()

    COUNTS = [(SaConfig, "restarts", 2.5), (SaConfig, "sweeps", True), (SaConfig, "sweeps", 2.5),
              (SaConfig, "restarts", "3"), (SaConfig, "sweeps", np.int64(3)),
              (PtConfig, "num_temps", 4.0), (PtConfig, "num_temps", None), (PtConfig, "sweeps", True),
              (PtConfig, "sweeps", 10.0), (PtConfig, "measure_sweeps", 5.5)]

    @pytest.mark.parametrize("cls, name, value", COUNTS,
                             ids=[f"{cls.__name__}-{name}-{value!r}" for cls, name, value in COUNTS])
    def test_counts_must_be_integers(self, cls, name, value):
        # a float count would run as its ceiling or scale tau, and be written to the
        # summary as given; the seed's rule holds for every count
        valid = {SaConfig: dict(cooling_rate=0.9, sweeps=3, restarts=2, seed=1),
                 PtConfig: dict(num_temps=4, sweeps=10, measure_sweeps=5, seed=1)}[cls]
        cls(**valid)
        with pytest.raises(InputError, match=re.escape(f"{name} {value!r} is not an integer")):
            cls(**{**valid, name: value})

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(InputError, match=f"jobs must be at least 1, got {jobs}"):
            simulated_annealing(build_poly({(0,): 1.0}, 1), SaConfig(0.99, 5, 2, seed=0), jobs=jobs)

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
        # must not move a kept state or its sweep: ties keep the first.  The
        # energy is the kept pair's, so it moves by at most the jitter of
        # its two parts and the rounding of their sum
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
        bits, energies, sweeps = _sa_rows(comp, cfg, rows)
        assert bits.tobytes() == want[0].tobytes() and sweeps.tobytes() == want[2].tobytes()
        assert np.all(np.abs(energies - want[1]) <= 2e-12 + 4 * np.spacing(np.abs(want[1])))

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

    @pytest.mark.parametrize("problem", ["boolean", "ising"])
    def test_energies_are_the_exact_pair(self, problem):
        # each reported energy is offset + E_hi + E_lo of its state, and is
        # evaluate_batch's energy of the state in Boolean space, bit for bit
        obj = encode("coord-tet", "LKDFSAW", mj_model()).objective
        if problem == "ising":
            obj = qubo_to_ising(obj)
        comp = _Compiled(obj)
        qubo = obj if problem == "boolean" else core.ising_to_qubo(obj)
        sa = simulated_annealing(obj, SaConfig(0.999, 40, 24, seed=9))
        pt = parallel_tempering(obj, PtConfig(num_temps=12, t_max=1e3, sweeps=40, measure_sweeps=15, seed=9))
        for ss in (sa, pt.sample_set):
            state = np.ones((len(ss.bits), comp.n + 1))
            state[:, :comp.n] = ss.bits[:, comp.order]
            pair = ref.pair_energies(comp, state)
            assert ss.energies.tobytes() == (comp.offset + pair.sum(axis=1)).tobytes()
            assert ss.energies.tobytes() == qubo.evaluate_batch(ss.bits).tobytes()

    def test_sample_energies_match_evaluate(self, rng):
        obj = random_qubo(rng, 15)
        ss = simulated_annealing(obj, SaConfig(0.99, 30, 8, seed=2))
        for bits, energy in zip(ss.bits, ss.energies):
            assert np.float64(obj.evaluate(bits)).tobytes() == energy.tobytes()


@st.composite
def wide_qubos(draw):
    """QUBOs on 1..10 variables with full-mantissa coefficients of magnitude
    2^-80..2^80, many of them within 2^-3..2^3: sums of those round in term
    order, and a split of coefficients 2^60 apart leaves a remainder."""
    n = draw(st.integers(1, 10))
    acc = TermAccumulator()
    acc.offset = draw(st.floats(-1e6, 1e6))
    for vars_, log2_mag, negative in draw(st.lists(st.tuples(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True),
            st.one_of(st.floats(-3.0, 3.0), st.floats(-80.0, 80.0)), st.booleans()), max_size=30)):
        acc.add(vars_, (-1.0 if negative else 1.0) * 2.0 ** log2_mag)
    return acc.build(n)


@settings(max_examples=60, deadline=None)
@given(qubo=wide_qubos(), seed=st.integers(0, 2**16))
@example(qubo=build_poly({(0,): -(2.0 ** -80)}, 1), seed=0)
def test_every_reported_energy_is_evaluate_batch_of_its_state(qubo, seed):
    """SA's restarts, PT's records and best row and brute force's minimum are
    `evaluate_batch` energies of their states, bit for bit, whether or not the
    split leaves a remainder: every evaluator sums the same two halves.  The
    other minimizers are the states within TIE_TOL of the minimum, so a near
    tie (a lone coefficient of 2^-80, say) has its own energy."""
    sa = simulated_annealing(qubo, SaConfig(0.99, 20, 8, seed=seed))
    pt = parallel_tempering(qubo, PtConfig(num_temps=4, t_max=10.0, sweeps=20, measure_sweeps=5, seed=seed))
    for ss in (sa, pt.sample_set):
        assert ss.energies.tobytes() == qubo.evaluate_batch(ss.bits).tobytes()
    energy, minimizers = brute_force(qubo)
    energies = qubo.evaluate_batch(np.array(minimizers))
    assert np.float64(energy).tobytes() == energies.min().tobytes()
    assert np.all(energies <= energy + TIE_TOL)


class TestLargeScaleProblems:
    def test_reduced_turn_tet_solves_without_drift_error(self):
        # worst-case alpha gives sum |coefficient| ~ 4e10, where float64
        # rounding of an incremental energy alone exceeds 1e-6: the carried
        # pair must still equal the pair recomputed from the state
        hubo = encode("turn-tet", "LKKKKLKKKKL", mj_model()).objective
        qubo = quadratize(hubo, "worst_case").qubo
        comp = _Compiled(qubo)
        rows = np.arange(16, dtype=np.int64)
        temps = _atiqullah_t0(comp, rows, stable_seed(7, "sa-probe"))
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
        # the bytes of the per-value loop that wrote samples before `core.write_csv`
        assert four.read_text() == "# manifest=m.json\nassignment,energy,replica,sweep\n" + "".join(
            "".join("1" if b else "0" for b in row) + f",{float(e)!r},{int(r)},{int(s)}\n"
            for row, e, r, s in zip(ss.bits, ss.energies, ss.replicas, ss.sweeps))
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
        ("011,low,1,0", "energy 'low' is not a number"),
        ("011,1.0,one,0", "invalid literal"),
        ("011,1.0,1,0.5", "invalid literal"),
    ])
    def test_malformed_line_is_input_error(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"# manifest=-\nassignment,energy,replica,sweep\n010,0.5,0,3\n{row}\n")
        with pytest.raises(InputError, match=message) as info:
            sample_set_from_csv(path)
        assert "line 4" in str(info.value)
