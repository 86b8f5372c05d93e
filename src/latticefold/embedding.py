"""Minor-embedding application: map a logical Ising problem onto a hardware
graph through externally supplied chains, and project samples back.

Embedding *search* is out of scope; maps arrive as JSON files.  Logical
fields are spread uniformly over their chain, each logical coupling lands on
one connecting hardware edge (the lowest-index one), and intra-chain edges
are coupled ferromagnetically at the chain strength.  The embedded offset
absorbs the ferromagnetic bonus of unbroken chains, so a chain-consistent
assignment has exactly the logical energy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .core import InputError, IsingProblem, is_int, load_doc, read_lines
from .solvers import counter_uniforms, stable_seed

DECIMAL = re.compile(r"[+-]?[0-9]+")


def _int_ids(values, what: str, numerals: bool = False) -> tuple:
    """`values` as integer ids: `is_int` integers and, with `numerals`, decimal
    strings (a text hardware line's words, JSON object keys); else InputError(what)."""
    ids = []
    for x in values:
        if not (is_int(x) or numerals and isinstance(x, str) and DECIMAL.fullmatch(x)):
            raise InputError(what)
        ids.append(int(x))
    return tuple(ids)


@dataclass(frozen=True)
class HardwareGraph:
    nodes: frozenset
    edges: frozenset  # of (u, v) with u < v

    @staticmethod
    def from_edges(edges, extra_nodes=(), numerals: bool = False) -> "HardwareGraph":
        """The graph of integer edges (u, v) and nodes; with `numerals`, an
        edge's nodes may also be decimal strings (the words of a text line)."""
        norm = set()
        nodes = set(_int_ids(extra_nodes, "hardware nodes must be integers"))
        for edge in edges:
            what = f"hardware edge {edge!r} is not two integers"
            if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                raise InputError(what)
            u, v = _int_ids(edge, what, numerals)
            if u == v:
                raise InputError(f"self-loop on node {u}")
            norm.add((min(u, v), max(u, v)))
            nodes.add(u)
            nodes.add(v)
        return HardwareGraph(nodes=frozenset(nodes), edges=frozenset(norm))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    @staticmethod
    def load(path) -> "HardwareGraph":
        """A JSON object {"edges": [[u, v], ...], "nodes": [...]} or lines of
        "u v" ("#" starts a comment); InputError names a malformed edge."""
        text = "\n".join(read_lines(path))
        if not text.lstrip().startswith("{"):
            lines = (line.split("#")[0].split() for line in text.splitlines())
            return HardwareGraph.from_edges((edge for edge in lines if edge), numerals=True)
        doc = load_doc(path)
        if not isinstance(doc.get("edges"), list) or not isinstance(doc.get("nodes", []), list):
            raise InputError(f"{path}: edges and nodes must be lists")
        return HardwareGraph.from_edges(doc["edges"], doc.get("nodes", ()))


@dataclass(frozen=True)
class EmbeddingMap:
    chains: dict  # logical index -> tuple of physical nodes

    @staticmethod
    def from_doc(doc, where) -> "EmbeddingMap":
        """The chains of a {logical: [physical nodes]} object; InputError
        names a malformed chain."""
        if not isinstance(doc, dict) or not doc:
            raise InputError(f"{where}: chains must be a non-empty object of logical: [nodes]")
        chains = {}
        for k, v in doc.items():
            if not isinstance(v, list):
                raise InputError(f"{where}: chain {k!r} is {v!r}, not a list of nodes")
            if not v:
                raise InputError(f"{where}: chain {k!r} is empty")
            what = f"{where}: malformed chain {k!r}: not all integers"
            logical = _int_ids([k], what, numerals=True)[0]
            nodes = _int_ids(v, what)
            if len(set(nodes)) != len(nodes):
                raise InputError(f"{where}: chain {k!r} names a node twice")
            chains[logical] = tuple(nodes)
        return EmbeddingMap(chains=chains)

    @staticmethod
    def load(path) -> "EmbeddingMap":
        return EmbeddingMap.from_doc(load_doc(path), path)

    def physical_nodes(self) -> list:
        return sorted({p for chain in self.chains.values() for p in chain})


def _chain_connected(chain, hw: HardwareGraph) -> bool:
    chain = set(chain)
    seen = {next(iter(chain))}
    frontier = list(seen)
    while frontier:
        u = frontier.pop()
        for v in chain - seen:
            if hw.has_edge(u, v):
                seen.add(v)
                frontier.append(v)
    return seen == chain


def validate_embedding(emb: EmbeddingMap, ising: IsingProblem, hw: HardwareGraph) -> tuple[str, ...]:
    """The violations of `emb`, empty for a valid embedding: chains must be
    disjoint, connected, on-graph and name only logical variables of the
    problem, and every logical coupling needs a connecting hardware edge."""
    violations = [f"chain of {logical} names no variable of the problem (0..{ising.num_vars - 1})"
                  for logical in sorted(emb.chains) if not 0 <= logical < ising.num_vars]
    seen_nodes: set = set()
    for logical in range(ising.num_vars):
        chain = emb.chains.get(logical)
        if not chain:
            violations.append(f"logical {logical} has no chain")
            continue
        off_graph = [p for p in chain if p not in hw.nodes]
        if off_graph:
            violations.append(f"chain of {logical} uses unknown nodes {off_graph}")
            continue
        overlap = seen_nodes.intersection(chain)
        if overlap:
            violations.append(f"chain of {logical} overlaps nodes {sorted(overlap)}")
        seen_nodes.update(chain)
        if not _chain_connected(chain, hw):
            violations.append(f"chain of {logical} is disconnected")
    for (i, j) in ising.couplings:
        ci = emb.chains.get(i, ())
        cj = emb.chains.get(j, ())
        if not any(hw.has_edge(u, v) for u in ci for v in cj):
            violations.append(f"no hardware edge connects chains of ({i},{j})")
    return tuple(violations)


@dataclass(frozen=True)
class EmbeddedProblem:
    ising: IsingProblem
    node_order: tuple  # dense index -> physical node id
    chain_strength: float
    chain_edge_count: int


def default_chain_strength(qubo) -> float:
    """Half the largest absolute coefficient of the Boolean-space problem."""
    mags = [abs(c) for c in qubo.terms.values()]
    if not mags:
        raise InputError("cannot derive a chain strength from an empty problem")
    return max(mags) / 2.0


def apply_embedding(
    ising: IsingProblem,
    emb: EmbeddingMap,
    hw: HardwareGraph,
    chain_strength: float,
) -> EmbeddedProblem:
    violations = validate_embedding(emb, ising, hw)
    if violations:
        raise InputError("invalid embedding: " + "; ".join(violations))
    if chain_strength <= 0:
        raise InputError("chain strength must be positive")

    node_order = tuple(emb.physical_nodes())
    idx = {p: i for i, p in enumerate(node_order)}
    terms: dict[tuple[int, ...], float] = {}

    def add(key: tuple, value: float) -> None:
        terms[key] = terms.get(key, 0.0) + value

    for key, c in ising.terms.items():
        if len(key) == 1:
            chain = emb.chains[key[0]]
            for p in chain:
                add((idx[p],), c / len(chain))
        else:
            i, j = key
            add(min((min(idx[u], idx[v]), max(idx[u], idx[v]))
                    for u in emb.chains[i] for v in emb.chains[j] if hw.has_edge(u, v)), c)

    # node_order is sorted, so idx keeps each sorted chain's node pairs in order
    chain_edges = 0
    for chain in emb.chains.values():
        chain = sorted(chain)
        for a in range(len(chain)):
            for b in range(a + 1, len(chain)):
                if hw.has_edge(chain[a], chain[b]):
                    add((idx[chain[a]], idx[chain[b]]), -abs(chain_strength))
                    chain_edges += 1

    offset = ising.offset + abs(chain_strength) * chain_edges
    if not np.isfinite(offset):
        raise InputError(f"chain strength {chain_strength!r} makes the embedded offset {offset}")
    return EmbeddedProblem(
        ising=IsingProblem(len(node_order), {k: c for k, c in terms.items() if c != 0.0}, offset),
        node_order=node_order,
        chain_strength=abs(chain_strength),
        chain_edge_count=chain_edges,
    )


def load_embedded(path) -> tuple[EmbeddingMap, list]:
    """(chains, node order) of an embed output file; InputError if either is
    missing or malformed."""
    info = load_doc(path).get("embedding")
    if not isinstance(info, dict):
        raise InputError(f"{path} is not an embed output")
    node_order = info.get("node_order")
    what = f"{path}: embedding node_order must be a list of node ids"
    if not isinstance(node_order, list):
        raise InputError(what)
    node_order = list(_int_ids(node_order, what))
    emb = EmbeddingMap.from_doc(info.get("chains"), f"{path} embedding")
    unplaced = set(emb.physical_nodes()) - set(node_order)
    if unplaced:
        raise InputError(f"{path}: chain nodes {sorted(unplaced)} are missing from node_order")
    return emb, node_order


def unembed(
    physical_bits,
    emb: EmbeddingMap,
    node_order,
    seed: int = 0,
    sample_index: int = 0,
):
    """Majority-vote chain collapse; ties break by a seeded coin flip, all of
    a sample's coins drawn in one call.

    Returns (logical bits, chain_break_fraction).
    """
    bits = np.asarray(physical_bits)
    if bits.shape != (len(node_order),):
        raise InputError(
            f"sample covers {bits.shape} nodes, embedding uses {len(node_order)}"
        )
    node_bits = dict(zip(node_order, bits.tolist()))
    logical = np.zeros(max(emb.chains) + 1, dtype=np.uint8)
    broken = 0
    ties = []
    for var, chain in sorted(emb.chains.items()):
        ones = sum(int(node_bits[p]) for p in chain)
        if 0 < ones < len(chain):
            broken += 1
        if ones * 2 > len(chain):
            logical[var] = 1
        elif ones * 2 == len(chain):
            ties.append(var)
    if ties:
        coins = counter_uniforms(stable_seed(seed, "unembed-ties"), sample_index, np.array(ties))
        logical[ties] = coins < 0.5
    return logical, broken / len(emb.chains)
