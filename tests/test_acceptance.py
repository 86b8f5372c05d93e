"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Exact references come from independent oracles: exhaustive self-avoiding-walk
enumeration for fold energies, flat assignment enumeration where variable
counts allow, and closed-form values elsewhere.  Heuristic solvers are always
judged against those references, never against themselves.
"""

import functools
import itertools
import json
import math
import sys
import time

import numpy as np
import pytest

from latticefold.analysis import (
    THICK,
    THIN,
    classify_barriers,
    estimate_p_ground,
    overlap_histogram,
    scaling_report,
    spin_overlap_values,
    tts,
)
from latticefold.cli import main as cli_main
from latticefold.core import TermAccumulator, ising_to_qubo, qubo_to_ising
from latticefold.embedding import (
    EmbeddingMap,
    HardwareGraph,
    apply_embedding,
    default_chain_strength,
    unembed,
    validate_embedding,
)
from latticefold.encoders import (
    AMINO_ACIDS,
    decode,
    encode,
    encode_turn_cartesian,
    encode_turn_tetrahedral,
    geometric_energy,
    hp_model,
    mj_model,
    optimal_fold_energy,
    turn_ground_states,
)
from latticefold.lattice import CARTESIAN, TETRAHEDRAL, adjacent, min_grid, site_classes
from latticefold.reduction import quadratize
from latticefold.solvers import (
    PtConfig,
    SaConfig,
    brute_force,
    counter_uniforms,
    parallel_tempering,
    simulated_annealing,
    stable_seed,
)

from conftest import chain_lift


def report(criterion: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {criterion}] FAIL  {label}", file=sys.stderr)
                raise
            elapsed = time.perf_counter() - start
            print(f"[criterion {criterion}] PASS  {label} ({elapsed:.1f}s)", file=sys.stderr)

        return wrapper

    return decorate


def benchmark_sequences(count: int, length: int, seed: int) -> list:
    key = stable_seed(seed, "dataset")
    out = []
    for i in range(count):
        u = counter_uniforms(key, np.full(length, i), np.arange(length))
        out.append("".join(AMINO_ACIDS[min(int(x * 20), 19)] for x in u))
    return out


@report(1, "turn-tetrahedral degenerate ground set (8 states, 4 unphysical, -1.474)")
def test_criterion_1_appendix_ground_set():
    mj = mj_model()
    model = encode_turn_tetrahedral("LKKKKLKKKKL", mj)
    energy, minimizers = turn_ground_states(model)
    assert abs(energy - (-1.474)) <= 1e-3
    assert len(minimizers) == 8
    folds = [decode(model, a) for a in minimizers]
    assert all(f.decode_feasible for f in folds)
    self_intersecting = [f for f in folds if not f.self_avoiding]
    assert len(self_intersecting) == 4
    for f in folds:
        if f.physical:
            assert geometric_energy(f, mj, "LKKKKLKKKKL") == pytest.approx(energy, abs=1e-9)
    # every reported minimizer really evaluates to the minimum on the HUBO
    for a in minimizers:
        assert model.objective.evaluate(a) == pytest.approx(energy, abs=1e-9)

    # HP analogue: overlapping and valid folds are co-minimal
    hp = hp_model()
    model_hp = encode_turn_tetrahedral("HPPPPHPPPPH", hp)
    e_hp, mins_hp = turn_ground_states(model_hp)
    folds_hp = [decode(model_hp, a) for a in mins_hp]
    overlapping = [f for f in folds_hp if not f.self_avoiding]
    valid = [f for f in folds_hp if f.physical]
    assert overlapping and valid
    assert any(f.positions[0] == f.positions[-1] for f in overlapping)


@report(2, "cross-model ground-energy agreement on 20 random instances")
def test_criterion_2_cross_model_agreement():
    mj = mj_model()
    sequences = benchmark_sequences(5, 7, seed=424242)
    instances = [(seq[:n], n) for seq in sequences for n in (4, 5, 6, 7)]
    assert len(instances) == 20
    excluded = 0
    for seq, n in instances:
        # Cartesian pair
        saw_cart = optimal_fold_energy(CARTESIAN, seq, mj)
        m_tc = encode_turn_cartesian(seq, mj)
        e_tc, mins_tc = turn_ground_states(m_tc)
        fold = decode(m_tc, mins_tc[0])
        assert fold.physical
        geo_tc = geometric_energy(fold, mj, seq)
        assert geo_tc == pytest.approx(e_tc, abs=1e-9)

        m_cc = encode("coord-cart", seq, mj, L=min_grid(CARTESIAN, n))
        pt_cc = parallel_tempering(
            m_cc.objective,
            PtConfig(num_temps=64, t_min=0.75, t_max=1e4, sweeps=700, measure_sweeps=50,
                     seed=stable_seed(1000, seq)),
        )
        ss_cc = pt_cc.sample_set
        best_cc = decode(m_cc, ss_cc.bits[np.argmin(ss_cc.energies)])
        assert best_cc.physical
        geo_cc = geometric_energy(best_cc, mj, seq)
        assert geo_cc == pytest.approx(geo_tc, abs=1e-9)
        assert geo_cc == pytest.approx(saw_cart, abs=1e-9)

        # tetrahedral pair
        saw_tet = optimal_fold_energy(TETRAHEDRAL, seq, mj)
        m_tt = encode_turn_tetrahedral(seq, mj)
        e_tt, mins_tt = turn_ground_states(m_tt)
        m_ct = encode("coord-tet", seq, mj, L=min_grid(TETRAHEDRAL, n))
        pt_ct = parallel_tempering(
            m_ct.objective,
            PtConfig(num_temps=64, t_min=0.75, t_max=1e4, sweeps=700, measure_sweeps=50,
                     seed=stable_seed(2000, seq)),
        )
        ss_ct = pt_ct.sample_set
        best_ct = decode(m_ct, ss_ct.bits[np.argmin(ss_ct.energies)])
        assert best_ct.physical
        geo_ct = geometric_energy(best_ct, mj, seq)
        assert geo_ct == pytest.approx(saw_tet, abs=1e-9)
        if e_tt < saw_tet - 1e-9:
            # gated-overlap exploit dominates: flagged unphysical, excluded
            excluded += 1
            continue
        assert e_tt == pytest.approx(geo_ct, abs=1e-9)
    assert excluded < len(instances)


@report(3, "feasibility-energy identity, exhaustive for N <= 5 on minimal grids")
def test_criterion_3_feasibility_energy_identity():
    mj = mj_model()
    for n in (2, 3, 4, 5):
        seq = "LKDFS"[:n]
        for kind, tag in ((CARTESIAN, "coord-cart"), (TETRAHEDRAL, "coord-tet")):
            L = min_grid(kind, n)
            model = encode(tag, seq, mj, L=L)
            classes = site_classes(model.lattice_spec())
            sizes = [len(classes[b % 2]) for b in range(n)]
            blocks = model.layout["bead_blocks"]

            # adjacency lookup between class ranks
            adj = np.zeros((len(classes[0]), len(classes[1])), dtype=bool)
            for r0, s0 in enumerate(classes[0]):
                for r1, s1 in enumerate(classes[1]):
                    adj[r0, r1] = adjacent(kind, s0, s1)

            ranks = np.stack(
                np.meshgrid(*[np.arange(s) for s in sizes], indexing="ij"), axis=-1
            ).reshape(-1, n)

            # semantic penalty counts over all one-hot placements
            same_site = np.zeros(len(ranks), dtype=np.int32)
            for i in range(n):
                for j in range(i + 2, n):
                    if (j - i) % 2 == 0:
                        same_site += ranks[:, i] == ranks[:, j]
            disconnected = np.zeros(len(ranks), dtype=np.int32)
            for b in range(n - 1):
                e, o = (b, b + 1) if b % 2 == 0 else (b + 1, b)
                disconnected += ~adj[ranks[:, e], ranks[:, o]]
            feasible = (same_site == 0) & (disconnected == 0)
            assert feasible.sum() > 0

            def to_bits(rank_rows):
                bits = np.zeros((len(rank_rows), model.num_vars), dtype=np.uint8)
                for b in range(n):
                    bits[np.arange(len(rank_rows)), blocks[b]["start"] + rank_rows[:, b]] = 1
                return bits

            feas_bits = to_bits(ranks[feasible])
            energies = model.objective.evaluate_batch(feas_bits)
            for row, e in zip(feas_bits, energies):
                fold = decode(model, row)
                assert fold.physical
                geo = geometric_energy(fold, mj, seq)
                assert abs((e - model.layout["energy_shift"]) - geo) <= 1e-9

            # spot-check the semantic filter against the actual objective:
            # infeasible one-hot placements carry strictly positive penalty
            infeasible_rows = ranks[~feasible]
            if len(infeasible_rows):
                pick = infeasible_rows[:: max(1, len(infeasible_rows) // 2000)]
                pen_model = encode(tag, "P" * n, hp_model(), L=L)
                penalties = pen_model.objective.evaluate_batch(to_bits(pick))
                assert penalties.min() > 1e-9


@report(4, "quadratization preserves minima and original-variable argmin sets")
def test_criterion_4_quadratization_soundness():
    rng = np.random.default_rng(20250102)
    checked = 0
    attempts = 0
    while checked < 50:
        attempts += 1
        assert attempts < 500
        n = int(rng.integers(6, 15))
        acc = TermAccumulator()
        for _ in range(int(rng.integers(4, 12))):
            deg = int(rng.integers(1, 5))
            key = tuple(sorted(rng.choice(n, size=deg, replace=False).tolist()))
            acc.add(key, float(np.round(rng.normal(), 6)))
        hubo = acc.build(n)
        if hubo.degree < 3:
            continue
        result = quadratize(hubo, "worst_case")
        if result.qubo.num_vars > 26:
            continue
        e_h, mins_h = brute_force(hubo)
        e_q, mins_q = brute_force(result.qubo, free_var_limit=26)
        assert e_q == pytest.approx(e_h, abs=1e-8)
        projected = {tuple(a[:hubo.num_vars].tolist()) for a in mins_q}
        assert projected == {tuple(a.tolist()) for a in mins_h}
        checked += 1

    mj = mj_model()
    for n in (4, 5, 6):
        model = encode_turn_tetrahedral("LKKLKK"[:n], mj)
        if model.num_vars == 0:
            continue
        result = quadratize(model.objective, "worst_case")
        e_h, mins_h = brute_force(model.objective)
        e_q, mins_q = brute_force(result.qubo, free_var_limit=30)
        assert e_q == pytest.approx(e_h, abs=1e-8)
        projected = {tuple(a[:model.num_vars].tolist()) for a in mins_q}
        assert projected == {tuple(a.tolist()) for a in mins_h}


@report(5, "SA and PT reach exact ground on the N<=7 benchmark; TTS formula")
def test_criterion_5_solver_correctness():
    mj = mj_model()
    sequences = benchmark_sequences(5, 7, seed=777)
    instances = [(seq[:n], n) for seq in sequences for n in (4, 5, 6, 7)]
    sa_hits = 0
    pt_hits = 0
    for seq, n in instances:
        model = encode("coord-tet", seq, mj, L=min_grid(TETRAHEDRAL, n))
        reference = optimal_fold_energy(TETRAHEDRAL, seq, mj, model.lattice_spec())
        sa = simulated_annealing(
            model.objective,
            SaConfig(cooling_rate=0.9998, sweeps=500, restarts=432,
                     seed=stable_seed(5, seq)),
        )
        sa_ok = abs(sa.best_energy - reference) <= 1e-6
        sa_hits += sa_ok
        pt = parallel_tempering(
            model.objective,
            PtConfig(num_temps=400, t_min=1.0, t_max=1e4, sweeps=1000,
                     measure_sweeps=100, seed=stable_seed(6, seq)),
        )
        pt_ok = abs(pt.sample_set.best_energy - reference) <= 1e-6
        pt_hits += pt_ok

        assert len(sa.energies) == sa.meta["restarts"]
        p, interval = estimate_p_ground(sa.energies, reference)
        result = tts(sa.tau_seconds, p, interval)
        if 0.0 < p < 0.99:
            expected = sa.tau_seconds * math.log(0.01) / math.log(1.0 - p)
            assert result.tts_seconds == pytest.approx(expected, rel=1e-12)
    assert sa_hits >= math.ceil(0.99 * len(instances))
    assert pt_hits >= math.ceil(0.99 * len(instances))
    assert tts(3.25, 0.99).tts_seconds == 3.25


@report(6, "scaling-report trends at desk scale (N = 8..24)")
def test_criterion_6_scaling_trends():
    coord = scaling_report(["coord-cart", "coord-tet"], range(8, 25))
    by_model = {}
    for row in coord.rows:
        by_model.setdefault(row.model, []).append(row)
    for tag, rows in by_model.items():
        rows.sort(key=lambda r: r.n)
        resolutions = {round(r.resolution, 9) for r in rows}
        assert len(resolutions) == 1, f"{tag} resolution varies: {resolutions}"
        densities = [r.density for r in rows]
        assert all(a > b for a, b in zip(densities, densities[1:])), f"{tag} density not strictly decreasing"
        qubits = [r.qubits for r in rows]
        assert all(a < b for a, b in zip(qubits, qubits[1:]))
        l_values = [r.L for r in rows]
        assert len(set(l_values)) >= 2  # grid-size staircase present
        steps = [i for i in range(1, len(rows)) if l_values[i] > l_values[i - 1]]
        assert steps
        for i in steps:
            # the staircase jump dwarfs the within-grid increment
            flat = [qubits[j] - qubits[j - 1] for j in range(1, len(rows)) if j not in steps]
            assert qubits[i] - qubits[i - 1] > max(flat)

    turn = scaling_report(["turn-tet"], range(8, 17))
    coord_tet = {r.n: r for r in by_model["coord-tet"]}
    for row in turn.rows:
        assert row.density < coord_tet[row.n].density, f"N={row.n}: turn-tet not sparser"


@report(7, "spin-overlap machinery: exact endpoints, support equality, classifier")
def test_criterion_7_sod_machinery():
    states = np.array([[1, 0, 1, 0, 1]], dtype=np.uint8)
    assert spin_overlap_values(states, states)[0] == 1.0
    assert spin_overlap_values(states, 1 - states)[0] == -1.0

    assert classify_barriers(overlap_histogram(np.array([0.9] * 8 + [-0.8] * 5))) == THIN
    assert classify_barriers(overlap_histogram(np.array([0.9] * 8 + [0.2] * 5))) == THICK

    hp = hp_model()
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = encode("coord-tet", "HHHH", hp, L=2)
    spec = model.lattice_spec()
    classes = site_classes(spec)
    rank = [{s: r for r, s in enumerate(classes[0])},
            {s: r for r, s in enumerate(classes[1])}]
    blocks = model.layout["bead_blocks"]
    from latticefold.encoders import enumerate_saws

    feasible = []
    for walk in enumerate_saws(TETRAHEDRAL, 4, spec):
        bits = np.zeros(model.num_vars, dtype=np.uint8)
        for b, site in enumerate(walk):
            bits[blocks[b]["start"] + rank[b % 2][site]] = 1
        feasible.append(bits)
    feasible = np.array(feasible)
    spins = 2.0 * feasible - 1.0
    exact_q = (spins @ spins.T / model.num_vars).ravel()
    exact_support = np.flatnonzero(overlap_histogram(exact_q).counts)

    runs = [
        parallel_tempering(
            model.objective,
            PtConfig(num_temps=64, t_min=1.0, t_max=1e4, sweeps=4000,
                     measure_sweeps=3000, seed=s),
        )
        for s in (101, 202)
    ]
    assert runs[0].sample_set.meta["problem_fingerprint"] == runs[1].sample_set.meta["problem_fingerprint"]
    # the measured sweeps, without the best-state row
    hist = overlap_histogram(spin_overlap_values(runs[0].sample_set.bits[:-1], runs[1].sample_set.bits[:-1]))
    assert np.array_equal(np.flatnonzero(hist.counts), exact_support)


@report(8, "embedding algebra on a synthetic 16-node hardware graph")
def test_criterion_8_embedding_algebra():
    rng = np.random.default_rng(88)
    acc = TermAccumulator()
    for i in range(5):
        acc.add((i,), float(np.round(rng.normal(), 3)))
    for i, j in itertools.combinations(range(5), 2):
        acc.add((i, j), float(np.round(rng.normal(), 3)))
    qubo = acc.build(5)
    ising = qubo_to_ising(qubo)

    chains = {0: (0, 1), 1: (2,), 2: (3, 4, 5), 3: (6,), 4: (7,)}
    edges = [(0, 1), (3, 4), (4, 5)]  # intra-chain paths
    for i, j in itertools.combinations(range(5), 2):
        edges.append((chains[i][0], chains[j][-1]))
    edges += [(8, 9), (10, 11), (12, 13), (14, 15), (9, 10)]  # spare fabric
    hw = HardwareGraph.from_edges(edges, extra_nodes=range(16))
    assert len(hw.nodes) == 16
    emb = EmbeddingMap(chains=chains)
    assert validate_embedding(emb, ising, hw) == ()
    assert len(emb.physical_nodes()) == 8

    strength = default_chain_strength(qubo)
    assert strength == max(abs(c) for c in qubo.terms.values()) / 2
    embedded = apply_embedding(ising, emb, hw, strength)

    for code in range(32):
        bits = np.array([(code >> b) & 1 for b in range(5)], dtype=np.uint8)
        phys = chain_lift(bits, emb, embedded.node_order)
        assert embedded.ising.evaluate(2 * phys.astype(np.int64) - 1) == pytest.approx(
            qubo.evaluate(bits), abs=1e-12
        )

    e_emb, mins_emb = brute_force(ising_to_qubo(embedded.ising))
    e_log, mins_log = brute_force(qubo)
    logical_set = {tuple(a.tolist()) for a in mins_log}
    assert e_emb == pytest.approx(e_log, abs=1e-9)
    for a in mins_emb:
        logical, cbf = unembed(a, emb, embedded.node_order)
        assert cbf == 0.0
        assert tuple(logical.tolist()) in logical_set


@report(9, "byte-identical solver CSVs across 1, 4, and 8 worker threads")
def test_criterion_9_determinism(tmp_path):
    problem = tmp_path / "p.json"
    assert cli_main(["encode", "coord-tet", "--seq", "HHHHHH", "--L", "3",
                     "--out", str(problem)]) == 0
    for solver, extra in (
        ("sa", ["--restarts", "48", "--sweeps", "120", "--cooling-rate", "0.9995"]),
        ("pt", ["--num-temps", "32", "--t-max", "1000", "--sweeps", "150",
                "--measure-sweeps", "30"]),
        ("brute", ["--brute-limit", "2"]),
    ):
        out = tmp_path / f"{solver}.csv"
        blobs = []
        for jobs in (1, 4, 8):
            argv = ["solve", str(problem), "--solver", solver, "--seed", "21",
                    "--jobs", str(jobs), "--out", str(out)]
            code = cli_main(argv + extra)
            if solver == "brute":
                assert code == 4  # refusal is also reproducible
                blobs.append(b"refused")
            else:
                assert code == 0
                blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
