import numpy as np
import pytest

from latticefold.core import InputError, ising_to_qubo, qubo_to_ising
from latticefold.embedding import (
    EmbeddingMap,
    HardwareGraph,
    apply_embedding,
    default_chain_strength,
    unembed,
    validate_embedding,
)
from latticefold.solvers import brute_force

from conftest import all_assignments, build_poly, chain_lift, random_qubo


def complete_graph(n):
    return HardwareGraph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


class TestValidation:
    def test_identity_embedding_valid(self, rng):
        q = random_qubo(rng, 5)
        ising = qubo_to_ising(q)
        emb = EmbeddingMap(chains={i: (i,) for i in range(5)})
        assert validate_embedding(emb, ising, complete_graph(5)) == ()

    def test_disconnected_chain_flagged(self):
        ising = qubo_to_ising(build_poly({(0, 1): 1.0}, 2))
        hw = HardwareGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        emb = EmbeddingMap(chains={0: (0, 3), 1: (1,)})
        violations = validate_embedding(emb, ising, hw)
        assert violations
        assert any("disconnected" in v for v in violations)

    def test_overlapping_chains_flagged(self):
        ising = qubo_to_ising(build_poly({(0, 1): 1.0}, 2))
        emb = EmbeddingMap(chains={0: (0, 1), 1: (1,)})
        assert validate_embedding(emb, ising, complete_graph(3))

    def test_missing_connection_flagged(self):
        ising = qubo_to_ising(build_poly({(0, 1): 1.0}, 2))
        hw = HardwareGraph.from_edges([(0, 1), (2, 3)])
        emb = EmbeddingMap(chains={0: (0, 1), 1: (2, 3)})
        violations = validate_embedding(emb, ising, hw)
        assert violations
        assert any("no hardware edge" in v for v in violations)

    def test_physical_count_is_chain_size_sum(self):
        ising = qubo_to_ising(build_poly({(0, 1): 1.0, (1, 2): 1.0}, 3))
        hw = complete_graph(16)
        emb = EmbeddingMap(chains={0: (0, 1, 2), 1: (3,), 2: (4, 5)})
        assert validate_embedding(emb, ising, hw) == ()
        assert len(apply_embedding(ising, emb, hw, 1.0).node_order) == 6


class TestApplyEmbedding:
    def test_identity_embedding_preserves_problem(self, rng):
        q = random_qubo(rng, 4)
        ising = qubo_to_ising(q)
        emb = EmbeddingMap(chains={i: (i,) for i in range(4)})
        embedded = apply_embedding(ising, emb, complete_graph(4), default_chain_strength(q))
        assert embedded.chain_edge_count == 0
        assert embedded.ising.couplings == ising.couplings
        assert embedded.ising.fields == ising.fields
        assert embedded.ising.offset == pytest.approx(ising.offset)

    def test_chain_consistent_energy_identity(self, rng):
        q = random_qubo(rng, 3)
        ising = qubo_to_ising(q)
        hw = complete_graph(6)
        emb = EmbeddingMap(chains={0: (0, 1), 1: (2, 3), 2: (4, 5)})
        embedded = apply_embedding(ising, emb, hw, 10.0)
        for bits in all_assignments(3):
            phys = chain_lift(bits, emb, embedded.node_order)
            spins = 2 * phys.astype(np.int64) - 1
            assert embedded.ising.evaluate(spins) == pytest.approx(
                q.evaluate(bits), abs=1e-9
            )

    def test_two_logical_one_chain_exhaustive(self):
        q = build_poly({(0,): 1.0, (1,): -2.0, (0, 1): 3.0}, 2)
        ising = qubo_to_ising(q)
        hw = HardwareGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        emb = EmbeddingMap(chains={0: (0, 1), 1: (2,)})
        embedded = apply_embedding(ising, emb, hw, default_chain_strength(q))
        energy, minimizers = brute_force(ising_to_qubo(embedded.ising))
        e_logical, _ = brute_force(q)
        assert energy == pytest.approx(e_logical, abs=1e-9)
        for a in minimizers:
            logical, cbf = unembed(a, emb, embedded.node_order)
            assert cbf == 0.0
            assert q.evaluate(logical) == pytest.approx(e_logical, abs=1e-9)

    def test_unbroken_energy_below_broken(self):
        q = build_poly({(0,): 1.0, (1,): -2.0, (0, 1): 3.0}, 2)
        ising = qubo_to_ising(q)
        hw = HardwareGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        emb = EmbeddingMap(chains={0: (0, 1), 1: (2,)})
        embedded = apply_embedding(ising, emb, hw, default_chain_strength(q))
        qq = ising_to_qubo(embedded.ising)
        broken = np.array([0, 1, 1], dtype=np.uint8)
        consistent = chain_lift(np.array([0, 1]), emb, embedded.node_order)
        assert qq.evaluate(broken) > qq.evaluate(consistent)

    def test_invalid_embedding_rejected(self):
        ising = qubo_to_ising(build_poly({(0, 1): 1.0}, 2))
        hw = HardwareGraph.from_edges([(0, 1), (2, 3)])
        emb = EmbeddingMap(chains={0: (0, 1), 1: (2, 3)})
        with pytest.raises(InputError):
            apply_embedding(ising, emb, hw, 1.0)

    def test_default_chain_strength_is_half_max(self, rng):
        q = build_poly({(0,): -7.0, (0, 1): 3.0}, 2)
        assert default_chain_strength(q) == 3.5


class TestUnembed:
    def test_majority(self):
        emb = EmbeddingMap(chains={0: (0, 1, 2)})
        logical, cbf = unembed(np.array([1, 1, 0]), emb, (0, 1, 2))
        assert logical.tolist() == [1]
        assert cbf == 1.0

    def test_unanimous(self):
        emb = EmbeddingMap(chains={0: (0, 1), 1: (2,)})
        logical, cbf = unembed(np.array([1, 1, 0]), emb, (0, 1, 2))
        assert logical.tolist() == [1, 0]
        assert cbf == 0.0

    def test_tie_break_deterministic_per_seed(self):
        emb = EmbeddingMap(chains={0: (0, 1)})
        draws = {unembed(np.array([1, 0]), emb, (0, 1), seed=s)[0][0] for s in range(30)}
        assert draws == {0, 1}  # both outcomes reachable across seeds
        a = unembed(np.array([1, 0]), emb, (0, 1), seed=5)[0][0]
        b = unembed(np.array([1, 0]), emb, (0, 1), seed=5)[0][0]
        assert a == b

    def test_left_inverse_of_chain_lift(self, rng):
        q = random_qubo(rng, 4)
        ising = qubo_to_ising(q)
        hw = complete_graph(9)
        emb = EmbeddingMap(chains={0: (0, 1), 1: (2,), 2: (3, 4, 5), 3: (6, 7)})
        embedded = apply_embedding(ising, emb, hw, 5.0)
        for bits in all_assignments(4):
            logical, cbf = unembed(
                chain_lift(bits, emb, embedded.node_order), emb, embedded.node_order
            )
            assert cbf == 0.0
            assert np.array_equal(logical, bits)

    def test_missing_nodes_rejected(self):
        emb = EmbeddingMap(chains={0: (0, 1)})
        with pytest.raises(InputError):
            unembed(np.array([1]), emb, (0, 1))


class TestFileFormats:
    def test_edge_list_and_json_graph(self, tmp_path):
        p1 = tmp_path / "g.txt"
        p1.write_text("0 1\n1 2\n# comment\n")
        g1 = HardwareGraph.load(p1)
        p2 = tmp_path / "g.json"
        p2.write_text('{"nodes": [0, 1, 2, 9], "edges": [[0, 1], [1, 2]]}')
        g2 = HardwareGraph.load(p2)
        assert g1.edges == g2.edges
        assert 9 in g2.nodes
