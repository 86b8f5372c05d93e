"""The blocked brute force, the incremental quadratizer, the split
`evaluate_batch`, the direct `ising_to_qubo`, the one-dict `qubo_to_ising`
and `apply_embedding`, the one-pass `problem_from_dict` and the one-draw
`unembed` against their term-by-term reference versions, the energies
against the correctly rounded ones: every output must be identical, down to
the dict order of the QUBO terms and the repr of the minimum energy.  The Metropolis kernel against the
incremental-field kernel it replaced: the same state after every sweep, and
an energy pair equal to the one recomputed from the state.  The in-place
exact split against the allocating one, and the split built from the term
cells against the split of the dense `[Q; c]`: equal parts bit for bit.  The
reduction check against the whole-table one: every pass is a pass there,
a refusal is a failure there unless that check only sampled, a gap
certificate is at most the scanned gap, and a scanned gap is equal to it.  PT that
exchanges row labels against PT that exchanges configurations: the same
records, trajectory and fingerprint byte for byte.  A class's fused product pieces against its two
split products: equal fields byte for byte."""

import random
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_exact as ref
from conftest import all_assignments, build_poly, random_qubo
from test_reduction import small_hubos
from latticefold import core, solvers
from latticefold.core import (
    InputError,
    IsingProblem,
    TermAccumulator,
    _exact_split,
    ising_to_qubo,
    problem_from_dict,
    qubo_to_ising,
)
from latticefold.embedding import EmbeddingMap, HardwareGraph, apply_embedding, default_chain_strength, unembed
from latticefold.encoders import encode, get_model
from latticefold.reduction import quadratize, verify_quadratization
from latticefold.solvers import (
    SMALL_PRODUCT,
    PtConfig,
    _atiqullah_t0,
    _Compiled,
    _metropolis,
    _products,
    brute_force,
    parallel_tempering,
    stable_seed,
    temperature_ladder,
)


def assert_same_quadratization(hubo):
    new, old = quadratize(hubo), ref.quadratize(hubo)
    assert new.aux_map == old.aux_map
    assert list(new.qubo.terms.items()) == list(old.qubo.terms.items())
    assert new.qubo.num_vars == old.qubo.num_vars
    assert repr(new.qubo.offset) == repr(old.qubo.offset)
    assert new.alpha == old.alpha
    return new


def assert_same_brute_force(obj):
    (e_new, m_new), (e_old, m_old) = brute_force(obj), ref.brute_force(obj)
    assert repr(e_new) == repr(e_old)
    assert [a.tolist() for a in m_new] == [a.tolist() for a in m_old]
    assert all(a.dtype == np.uint8 for a in m_new)
    return e_new, m_new


@st.composite
def hubos(draw, max_vars=10):
    n = draw(st.integers(1, max_vars))
    terms = draw(st.lists(
        st.tuples(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True),
            st.floats(-3.0, 8.0),
            st.booleans(),
        ),
        max_size=30,
    ))
    acc = TermAccumulator()
    acc.offset = draw(st.floats(-1e3, 1e3))
    for vars_, log_mag, negative in terms:
        acc.add(vars_, (-1.0 if negative else 1.0) * 10.0 ** log_mag)
    return acc.build(n)


@st.composite
def dense_hubos(draw):
    """Many high-degree terms over few variables with coefficients from a
    small alphabet: pairs tie often, and pair counts often fall after they
    are pushed, so the quadratizer's lazy re-queue runs."""
    n = draw(st.integers(3, 12))
    terms = draw(st.lists(
        st.tuples(st.lists(st.integers(0, n - 1), min_size=3, max_size=8, unique=True),
                  st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0])),
        min_size=1, max_size=40,
    ))
    acc = TermAccumulator()
    for vars_, coeff in terms:
        acc.add(vars_, coeff)
    return acc.build(n)


@st.composite
def ising_problems(draw):
    """Fields and couplings from a small alphabet, so that the (i,) sums of
    `ising_to_qubo` often cancel to 0.0, and arbitrary floats."""
    n = draw(st.integers(1, 8))
    coeff = st.one_of(st.sampled_from([-1.0, -0.5, 0.5, 1.0]), st.floats(-1e3, 1e3))
    fields = draw(st.dictionaries(st.integers(0, n - 1), coeff, max_size=n))
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(sorted).map(tuple)
    couplings = draw(st.dictionaries(pairs, coeff, max_size=12)) if n > 1 else {}
    return ref.ising_from_tables(n, fields, couplings, draw(st.floats(-1e3, 1e3)))


@st.composite
def ising_documents(draw):
    """Ising documents whose fields and couplings come in any order, with
    repeated keys and a coupling's spins in either order.  No coefficient is
    0.0: such an entry places no key in the term order, as in a Boolean
    document, and the program writes none."""
    n = draw(st.integers(1, 6))
    spins = st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)
    coeff = st.one_of(st.sampled_from([-1.0, -0.5, 0.5, 1.0]), st.floats(-1e3, 1e3).filter(bool))
    terms = draw(st.lists(st.fixed_dictionaries({"vars": spins, "coeff": coeff}), max_size=16))
    return {"num_vars": n, "offset": draw(st.floats(-1e3, 1e3)), "space": "ising", "terms": terms}


@settings(max_examples=200, deadline=None)
@given(doc=ising_documents())
def test_ising_documents_load_identically(doc):
    new, old = problem_from_dict(doc), ref.ising_problem_from_dict(doc)
    assert type(new) is IsingProblem and new.num_vars == old.num_vars
    assert list(new.terms) == list(old.terms)
    assert [repr(c) for c in new.terms.values()] == [repr(c) for c in old.terms.values()]
    assert repr(new.offset) == repr(old.offset)


# (where, value): value replaces a term's vars or coeff, a whole term or a
# header field; _MISSING deletes the key
_MISSING = object()
DOCUMENT_FAULTS = [
    ("vars", [-1]), ("vars", [99]), ("vars", 3), ("vars", ["a"]), ("vars", [None]),
    ("vars", [float("nan")]), ("vars", [float("inf")]), ("vars", _MISSING),
    ("coeff", "x"), ("coeff", None), ("coeff", float("nan")), ("coeff", float("inf")),
    ("coeff", 10 ** 400), ("coeff", _MISSING), ("term", [0, 1]), ("term", "t"), ("term", None),
    ("vars", []), ("vars", [0, 0]), ("vars", [0, 1, 2]),  # faults in an ising document only
    ("num_vars", -1), ("num_vars", "x"), ("num_vars", _MISSING), ("offset", float("nan")),
    ("offset", "x"), ("space", "qubo"), ("terms", {"vars": [0]}),
    ("vars", ["1"]), ("vars", [0.9]), ("vars", [True]), ("num_vars", 2.9), ("num_vars", True),
    ("num_vars", "3"), ("vars", ""), ("vars", {}),
]


def with_fault(doc, i, where, value):
    """`doc` with one of DOCUMENT_FAULTS, a term fault in term i; the
    document's own dicts and term list are not changed."""
    doc = dict(doc)
    if where in ("vars", "coeff", "term"):
        if not isinstance(doc["terms"], list):
            return doc
        terms = doc["terms"] = list(doc["terms"])
        if where == "term":
            terms[i] = value
            return doc
        if not isinstance(terms[i], dict):
            return doc
        target = terms[i] = dict(terms[i])
    else:
        target = doc
    if value is _MISSING:
        target.pop(where, None)
    else:
        target[where] = value
    return doc


@st.composite
def problem_documents(draw):
    """Boolean and Ising documents as another writer could give them: vars
    unsorted or repeated, keys repeated, zero coefficients, sums that cancel
    or overflow, and integer coefficients; then up to two faults from
    DOCUMENT_FAULTS (which hold vars as strings)."""
    space = draw(st.sampled_from(["boolean", "ising"]))
    n = draw(st.integers(1, 5))
    var = st.integers(0, n - 1)
    coeff = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e308, -1e308]),
                      st.floats(-1e3, 1e3), st.integers(-3, 3))
    spins = st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)
    pool = draw(st.lists(spins if space == "ising" else st.lists(var, max_size=4), min_size=1, max_size=3))
    vars_ = st.sampled_from(pool).flatmap(st.permutations)  # few keys, so sums repeat and cancel
    terms = draw(st.lists(st.fixed_dictionaries({"vars": vars_, "coeff": coeff}), min_size=1, max_size=10))
    doc = {"num_vars": n, "offset": draw(coeff), "space": space, "terms": terms}
    for where, value in draw(st.lists(st.sampled_from(DOCUMENT_FAULTS), max_size=2)):
        doc = with_fault(doc, draw(st.integers(0, len(terms) - 1)), where, value)
    return doc


def loaded(loader, doc):
    """The class, key order and coefficient and offset reprs of a loaded
    document, or its InputError message."""
    try:
        p = loader(doc)
    except InputError as exc:
        return str(exc)
    return type(p), p.num_vars, list(p.terms), [repr(c) for c in p.terms.values()], repr(p.offset)


@settings(max_examples=400, deadline=None)
@given(doc=problem_documents())
@example(doc={"num_vars": 3, "terms": [{"vars": [2, 0, 1], "coeff": 1.0}, {"vars": [0, 1], "coeff": 2.0},
                                       {"vars": [1, 2, 0], "coeff": -1.0}]})  # a degree-3 sum cancels
@example(doc={"num_vars": 2, "space": "ising", "terms": [{"vars": [0, 0], "coeff": 1.0},
                                                         {"vars": [5], "coeff": 1.0}]})  # two faults
def test_problem_documents_load_identically(doc):
    assert loaded(problem_from_dict, doc) == loaded(ref.problem_from_dict, doc)


@pytest.mark.parametrize("space", ["boolean", "ising"])
@pytest.mark.parametrize("where, value", DOCUMENT_FAULTS,
                         ids=[f"{where}{i}" for i, (where, _) in enumerate(DOCUMENT_FAULTS)])
def test_single_fault_documents_fail_identically(space, where, value):
    """Each fault alone, in the second term of a valid document: both
    loaders raise the same InputError message, or accept it alike."""
    terms = [{"vars": [1], "coeff": 0.5}, {"vars": [0, 1], "coeff": -1.0}, {"vars": [2], "coeff": 2.0}]
    doc = with_fault({"num_vars": 3, "offset": 1.0, "space": space, "terms": terms}, 1, where, value)
    assert loaded(problem_from_dict, doc) == loaded(ref.problem_from_dict, doc)


@st.composite
def embedded_samples(draw):
    """Chains of one to four nodes, two- and four-node ones often, so that
    votes tie; chain keys in any order, nodes in a shuffled node order, and
    samples of random bits."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 2, 3, 4, 4]), min_size=1, max_size=8))
    ends = np.cumsum(sizes).tolist()
    chains = {v: tuple(range(end - size, end)) for v, (size, end) in enumerate(zip(sizes, ends))}
    chains = dict(draw(st.permutations(list(chains.items()))))
    node_order = draw(st.permutations(range(ends[-1])))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=ends[-1], max_size=ends[-1]),
                         min_size=1, max_size=6))
    return EmbeddingMap(chains=chains), node_order, np.array(rows, dtype=np.uint8), draw(st.integers(0, 2**40))


@settings(max_examples=200, deadline=None)
@given(case=embedded_samples())
def test_unembed_draws_the_per_chain_coins(case):
    emb, node_order, rows, seed = case
    for idx, row in enumerate(rows):
        (new, new_cbf), (old, old_cbf) = (f(row, emb, node_order, seed=seed, sample_index=idx)
                                          for f in (unembed, ref.unembed))
        assert new.dtype == old.dtype == np.uint8 and new.tolist() == old.tolist()
        assert repr(new_cbf) == repr(old_cbf)


@pytest.mark.parametrize("tag, n", [("turn-tet", 8), ("turn-tet", 9), ("turn-tet", 10),
                                    ("turn-tet", 15), ("turn-cart", 5), ("turn-cart", 6),
                                    ("turn-cart", 7), ("turn-tet", "LKDFSAWLKDFSA")])
def test_scaling_hubos_quadratize_identically(tag, n):
    """HP chains of n beads, up to the largest of the benchmark's scaling
    report, and one MJ sequence."""
    seq, model = ("H" * n, "hp") if isinstance(n, int) else (n, "mj")
    assert_same_quadratization(encode(tag, seq, get_model(model)).objective)


@settings(max_examples=150, deadline=None)
@given(hubo=dense_hubos())
def test_dense_tied_hubos_quadratize_identically(hubo):
    assert_same_quadratization(hubo)


@settings(max_examples=150, deadline=None)
@given(ising=ising_problems())
def test_ising_to_qubo_identical(ising):
    new, old = ising_to_qubo(ising), ref.ising_to_qubo(ising)
    assert [(k, repr(c)) for k, c in new.terms.items()] == [(k, repr(c)) for k, c in old.terms.items()]
    assert repr(new.offset) == repr(old.offset)
    assert new.num_vars == old.num_vars


# nonzero coefficients from a small alphabet, so that sums cancel to 0.0, and
# subnormals, whose halves, quarters and chain shares round or underflow to 0.0
SPIN_COEFFS = st.one_of(st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0, -2.0, 4.0, 5e-324, -5e-324, 1e-310]),
                        st.floats(-1e3, 1e3).filter(bool))


def assert_same_ising(new, old):
    assert type(new) is type(old) is IsingProblem and new.num_vars == old.num_vars
    assert [(k, repr(c)) for k, c in new.terms.items()] == [(k, repr(c)) for k, c in old.terms.items()]
    assert repr(new.offset) == repr(old.offset)


@st.composite
def spin_qubos(draw):
    """QUBOs over at most 6 variables, linear and quadratic terms interleaved."""
    n = draw(st.integers(1, 6))
    acc = TermAccumulator()
    acc.offset = draw(SPIN_COEFFS)
    var = st.integers(0, n - 1)
    for i, j, c in draw(st.lists(st.tuples(var, var, SPIN_COEFFS), max_size=16)):
        acc.add((i, j), c)  # i == j is a linear term
    return acc.build(n)


@settings(max_examples=200, deadline=None)
@given(q=spin_qubos())
@example(q=build_poly({(0, 1): -2.0, (0,): 1.0}, 2))  # the field of 0 cancels
@example(q=build_poly({(0, 1): 5e-324, (1,): 1.0}, 2))  # the quarters underflow
def test_qubo_to_ising_identical(q):
    assert_same_ising(qubo_to_ising(q), ref.qubo_to_ising(q))


@st.composite
def embedded_isings(draw):
    """A logical Ising problem given couplings and fields interleaved, chains
    of one to three nodes under shuffled node ids, and a hardware graph with
    each chain as a path, random other edges and one edge per logical
    coupling; then a chain strength."""
    n = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    nodes = [3 * p + 1 for p in draw(st.permutations(range(sum(sizes))))]
    ends = np.cumsum(sizes).tolist()
    chains = {v: tuple(nodes[end - size:end]) for v, (size, end) in enumerate(zip(sizes, ends))}
    spins = st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True).map(sorted).map(tuple)
    ising = IsingProblem(n, draw(st.dictionaries(spins, SPIN_COEFFS, max_size=12)), draw(st.floats(-1e3, 1e3)))
    edges = {pair for chain in chains.values() for pair in zip(chain, chain[1:])}
    if len(nodes) > 1:
        edges.update(draw(st.lists(st.sampled_from(list(combinations(nodes, 2))), max_size=12)))
    edges.update((draw(st.sampled_from(chains[i])), draw(st.sampled_from(chains[j]))) for i, j in ising.couplings)
    strength = draw(st.one_of(st.sampled_from([0.5, 1.0, 5e-324]), st.floats(1e-3, 1e3)))
    return ising, EmbeddingMap(chains=chains), HardwareGraph.from_edges(edges, nodes), strength


@settings(max_examples=200, deadline=None)
@given(case=embedded_isings())
def test_apply_embedding_identical(case):
    ising, emb, hw, strength = case
    new = apply_embedding(ising, emb, hw, strength)
    old, node_order, chain_edges = ref.apply_embedding(ising, emb, hw, strength)
    assert_same_ising(new.ising, old)
    assert new.node_order == node_order and new.chain_edge_count == chain_edges


@pytest.mark.parametrize("tag, seq", [("turn-tet", "HHHHHH"), ("turn-cart", "HPHPH"),
                                      ("turn-tet", "LKKLKK")])
def test_model_hubos_brute_force_identically(tag, seq):
    interaction = get_model("mj" if "K" in seq else "hp")
    hubo = encode(tag, seq, interaction).objective
    assert_same_brute_force(hubo)
    if hubo.degree > 2:
        qubo = quadratize(hubo).qubo
        if qubo.num_vars <= 20:
            assert_same_brute_force(qubo)


@settings(max_examples=80, deadline=None)
@given(hubo=hubos())
def test_random_hubos_identical(hubo):
    result = assert_same_quadratization(hubo)
    assert_same_brute_force(hubo)
    if result.qubo.num_vars <= 16:
        assert_same_brute_force(result.qubo)
    bits = all_assignments(hubo.num_vars)
    assert ref.split_leaves_no_remainder(hubo)
    assert hubo.evaluate_batch(bits).tobytes() == ref.exact_energies(hubo, bits).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(6, 12), ones=st.integers(2, 5), log_scale=st.floats(4.0, 8.0),
       shift=st.floats(-1.0, 1.0), offset=st.floats(-1e8, 1e8))
def test_symmetric_ties_at_large_scale(n, ones, log_scale, shift, offset):
    """Every state with the same number of ones has the same real energy;
    term-order float sums of it differ in the last bits at scale 1e4..1e8,
    more than tie_tol, but the blocked energies round the exact sums, so
    every tied state is a minimizer, as under the correctly rounded
    reference."""
    coupling = 1.5 * 10.0 ** log_scale
    field = -coupling * (ones - 0.5) + shift
    terms = {(i,): field for i in range(n)}
    terms.update({(i, j): coupling for i in range(n) for j in range(i + 1, n)})
    assert_same_brute_force(build_poly(terms, n, offset=offset))


def test_fully_degenerate_objective_keeps_every_state():
    flat = build_poly({}, 7, offset=2.5)
    energy, minimizers = assert_same_brute_force(flat)
    assert energy == 2.5 and len(minimizers) == 1 << 7
    # terms far below tie_tol: every state still ties
    tiny = build_poly({(0,): 1e-12, (1, 2): -1e-12, (3, 4, 5): 2e-12}, 6, offset=-1.0)
    energy, minimizers = assert_same_brute_force(tiny)
    assert len(minimizers) == 1 << 6


@pytest.mark.parametrize("poly, n", [({}, 0), ({}, 1), ({(0,): -2.0}, 1), ({(0,): 3.0}, 1)])
def test_zero_and_one_variables(poly, n):
    assert_same_brute_force(build_poly(poly, n, offset=0.25))


def test_ising_input(rng):
    ising = qubo_to_ising(random_qubo(rng, 12))
    assert isinstance(ising, IsingProblem)
    assert_same_brute_force(ising)


def test_brute_force_independent_of_blocking(rng, monkeypatch):
    """A budget of 64 cells splits E into many low and high blocks; the
    running minimum then falls block by block, and the output must not
    change."""
    acc = TermAccumulator()
    for _ in range(60):
        key = rng.choice(15, size=int(rng.integers(1, 5)), replace=False)
        acc.add(key, float(np.round(rng.normal() * 1e8, 2)))
    hubo = acc.build(15)
    expected = assert_same_brute_force(hubo)
    monkeypatch.setattr(core, "BLOCK_CELLS", 1 << 6)
    energy, minimizers = solvers.brute_force(hubo)
    assert repr(energy) == repr(expected[0])
    assert [a.tolist() for a in minimizers] == [a.tolist() for a in expected[1]]


@pytest.mark.parametrize("solver, problem, restarts, sweeps, cooling", [
    ("sa", "coord-tet-LKDFSAW", 432, 60, 0.9998),
    ("pt", "coord-tet-LKDFSAW", 400, 60, 1.0),
    ("sa", "cli-embedded", 32, 10, 0.9999),
    ("sa", "zero-variables", 8, 5, 0.99),
    ("sa", "one-variable", 8, 20, 0.99),
    ("pt", "coord-tet-LKDFSAW", 1, 20, 1.0),
], ids=["sa", "pt", "sa-cli-embedded", "sa-zero-variables", "sa-one-variable", "pt-one-temperature"])
def test_metropolis_visits_the_reference_kernels_states(solver, problem, restarts, sweeps, cooling):
    # SA: cooling from Atiqullah start temperatures; PT: the 400-temperature
    # ladder.  On LKDFSAW, 60 sweeps pass one exact re-evaluation of the
    # reference kernel.  The embedded problem (594 variables) runs as the
    # physical `solve` does: 32 restarts at the CLI's default cooling.  The
    # edge shapes give the kernel's class buffers widths 0 and 1, and one row.
    obj = solver_problem(problem)
    comp = _Compiled(obj)
    rows = np.arange(restarts, dtype=np.int64)
    if solver == "sa":
        temps = _atiqullah_t0(comp, rows, stable_seed(11, "sa-probe"))
    else:
        temps = temperature_ladder(PtConfig(num_temps=restarts, t_min=1.0, t_max=1e4))
    given_temps = temps.copy()
    keys = (stable_seed(11, f"{solver}-init"), stable_seed(11, f"{solver}-accept"))
    new = _metropolis(comp, keys, rows, sweeps, temps, cooling)
    old = ref.metropolis(comp, ref.dense_form(obj), keys, rows, sweeps, temps, cooling)
    for (sweep, state, pair), (ref_sweep, bits, _, e_old) in zip(new, old, strict=True):
        assert sweep == ref_sweep
        assert np.array_equal(state[:, comp.inverse], bits)
        assert np.all(state[:, -1] == 1.0)
        assert np.array_equal(pair, ref.pair_energies(comp, state))
        assert np.abs(comp.offset + pair.sum(axis=1) - e_old).max() <= ref.DRIFT_TOL
    # PT passes its ladder and reads it again for the swap exponents
    assert temps.tobytes() == given_temps.tobytes()


def cli_embedded_problem():
    """The README pipeline's embedded problem: coord-tet HPPPPHPPPPH (L = 3,
    HP; 297 variables) on 594 qubits, two shuffled nodes per chain, one
    hardware edge per coupling between random ends of its chains."""
    qubo = encode("coord-tet", "HPPPPHPPPPH", get_model("hp"), L=3).objective
    n = qubo.num_vars
    rng = random.Random(5)
    labels = list(range(2 * n))
    rng.shuffle(labels)
    chains = {i: (labels[2 * i], labels[2 * i + 1]) for i in range(n)}
    edges = {tuple(sorted(c)) for c in chains.values()}
    for i, j in sorted(k for k in qubo.terms if len(k) == 2):
        edges.add(tuple(sorted((chains[i][rng.randrange(2)], chains[j][rng.randrange(2)]))))
    embedded = apply_embedding(qubo_to_ising(qubo), EmbeddingMap(chains), HardwareGraph.from_edges(edges),
                               default_chain_strength(qubo))
    return embedded.ising


def solver_problem(name):
    """A solver test problem by name; any other name is coord-tet `LKDFSAW` (MJ)."""
    if name == "cli-embedded":
        return cli_embedded_problem()
    if name == "cli-coord-tet":  # the README pipeline's logical problem
        return encode("coord-tet", "HPPPPHPPPPH", get_model("hp"), L=3).objective
    if name == "zero-variables":
        return build_poly({}, 0, offset=0.25)
    if name == "one-variable":
        return build_poly({(0,): 1.5}, 1, offset=-0.5)
    return encode("coord-tet", "LKDFSAW", get_model("mj")).objective


@pytest.mark.parametrize("problem, rows", [
    ("coord-tet-LKDFSAW", 432), ("coord-tet-LKDFSAW", 400), ("cli-coord-tet", 216),
    ("cli-embedded", 32), ("cli-embedded", 216),
])
def test_class_products_are_the_split_products(problem, rows):
    """Each class's fields come from at most two pieces of its fused block, a
    piece has at most max(|class|, SMALL_PRODUCT / ((n + 1)·rows)) rows (that
    bound cut to a multiple of 4), and the pieces give `hi.T @ state` and
    `lo.T @ state` byte for byte."""
    comp = _Compiled(solver_problem(problem))
    assert comp.n == {"coord-tet-LKDFSAW": 189, "cli-coord-tet": 297, "cli-embedded": 594}[problem]
    state = np.ones((comp.n + 1, rows))
    state[:comp.n] = np.random.default_rng(rows).integers(0, 2, size=(comp.n, rows))
    bound = SMALL_PRODUCT // ((comp.n + 1) * rows) // 4 * 4
    products = _products(comp, state)
    assert len(products) == len(comp.blocks)
    fused = 0
    for (cls, d, pieces), (block_cls, hi, lo) in zip(products, comp.blocks):
        width = cls.stop - cls.start
        assert cls == block_cls and d.shape == (2 * width, rows)
        assert 1 <= len(pieces) <= 2 and all(len(piece) <= max(width, bound) for piece, _ in pieces)
        assert sum(len(piece) for piece, _ in pieces) == 2 * width
        fused += len(pieces) == 1
        for piece, part in pieces:
            np.matmul(piece, state, out=part)
        assert d[:width].tobytes() == (hi.T @ state).tobytes()
        assert d[width:].tobytes() == (lo.T @ state).tobytes()
    # exactly the classes whose fused block fits the bound take one product
    assert fused == sum(2 * (cls.stop - cls.start) <= bound for cls, _, _ in comp.blocks)


@pytest.mark.parametrize("problem, temps, sweeps", [
    ("coord-tet-LKDFSAW", 400, 60),
    ("coord-tet-LKDFSAW", 1, 20),
    ("coord-tet-LKDFSAW", 2, 20),
    ("zero-variables", 4, 5),
    ("cli-embedded", 32, 100),
], ids=["ladder-400", "one-temperature", "two-temperatures", "zero-variables", "cli-embedded"])
def test_pt_label_exchange_matches_the_configuration_exchange(monkeypatch, problem, temps, sweeps):
    """PT that swaps two rows' counter ids and temperatures returns the
    records, trajectory and fingerprint of PT that swaps their states, and
    leaves its ladder as `temperature_ladder` made it."""
    obj = solver_problem(problem)
    cfg = PtConfig(num_temps=temps, t_min=1.0, t_max=1e4, sweeps=sweeps, measure_sweeps=sweeps // 2, seed=11)
    ladders = []
    monkeypatch.setattr(solvers, "temperature_ladder", lambda c: ladders.append(temperature_ladder(c)) or ladders[-1])
    new, old = parallel_tempering(obj, cfg), ref.parallel_tempering(obj, cfg)
    for name in ("bits", "energies", "replicas", "sweeps"):
        assert getattr(new.sample_set, name).tobytes() == getattr(old.sample_set, name).tobytes(), name
    assert new.energy_trajectory.tobytes() == old.energy_trajectory.tobytes()
    assert new.sample_set.meta["problem_fingerprint"] == old.sample_set.meta["problem_fingerprint"]
    (ladder,) = ladders
    assert ladder.tobytes() == temperature_ladder(cfg).tobytes()


PROBE_PROBLEM = {(0,): 1e10, (1,): -2.0, (0, 2): 3e12}


def test_sa_kernel_at_a_tiny_temperature_raises_no_float_warning():
    """t0 = 1e-300 overflows ΔE/T: the kernel decides as the reference kernel
    does, and no float warning leaves it or `simulated_annealing`."""
    obj = build_poly(PROBE_PROBLEM, 3)
    comp = _Compiled(obj)
    rows = np.arange(8, dtype=np.int64)
    keys = (stable_seed(1, "sa-init"), stable_seed(1, "sa-accept"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [(sweep, state[:, comp.inverse].copy(), pair.copy())
               for sweep, state, pair in _metropolis(comp, keys, rows, 30, np.full(8, 1e-300), 0.99)]
        ss = solvers.simulated_annealing(obj, solvers.SaConfig(0.99, 30, 8, seed=1, t0=1e-300))
    want = ref.metropolis(comp, ref.dense_form(obj), keys, rows, 30, np.full(8, 1e-300), 0.99)
    for (sweep, bits, pair), (ref_sweep, ref_bits, _, energies) in zip(got, want, strict=True):
        assert sweep == ref_sweep and np.array_equal(bits, ref_bits)
        assert np.array_equal(comp.offset + pair.sum(axis=1), energies)
    assert np.array_equal(ss.energies, obj.evaluate_batch(ss.bits))


@pytest.mark.parametrize("t_min", [1e-300, 1e-310])
def test_pt_at_a_tiny_temperature_raises_no_float_warning(t_min):
    """t_min = 1e-300 overflows ΔE/T in the kernel, and 1e-310 overflows 1/T
    in the swap exponent as well: PT returns the reference PT's output, and
    no float warning leaves it."""
    obj = build_poly(PROBE_PROBLEM, 3)
    cfg = PtConfig(num_temps=8, t_min=t_min, t_max=1e3, sweeps=30, measure_sweeps=10, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = parallel_tempering(obj, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        old = ref.parallel_tempering(obj, cfg)
    assert new.sample_set.bits.tobytes() == old.sample_set.bits.tobytes()
    assert new.sample_set.energies.tobytes() == old.sample_set.energies.tobytes()
    assert new.energy_trajectory.tobytes() == old.energy_trajectory.tobytes()


def assert_same_split(a):
    before = a.copy()
    (hi, lo), (ref_hi, ref_lo) = _exact_split(a), ref.exact_split(a)
    assert a.tobytes() == before.tobytes()  # the input is left as it was
    assert hi.tobytes() == ref_hi.tobytes() and lo.tobytes() == ref_lo.tobytes()


@pytest.mark.parametrize("problem", ["coord-tet-LKDFSAW", "cli-embedded"])
def test_exact_split_identical_on_solver_inputs(problem):
    """The split of the coefficient vector equals the allocating split, and
    the kernel's blocks, scattered from it straight from the term cells in
    kernel order, equal, column for column, the dense `[Q; c]` of each half
    permuted into kernel order, on both bench problems."""
    obj = solver_problem(problem)
    comp = _Compiled(obj)
    assert comp.n == (594 if problem == "cli-embedded" else 189)
    qubo = ising_to_qubo(obj) if isinstance(obj, IsingProblem) else obj
    coeffs = np.fromiter(qubo.terms.values(), np.float64, len(qubo.terms))
    assert_same_split(coeffs)
    ref_hi, ref_lo = (ref.kernel_matrix(comp, *ref.dense_form(obj, half)) for half in ref.exact_split(coeffs))
    for cls, hi, lo in comp.blocks:
        assert hi.tobytes() == ref_hi[:, cls].tobytes() and lo.tobytes() == ref_lo[:, cls].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 30), st.integers(1, 12)),
    entries=st.lists(st.one_of(st.just(0.0), st.just(4.78e7), st.floats(1e-6, 1e8),
                               st.floats(1e-200, 1e200)), min_size=360, max_size=360),
    signs=st.lists(st.booleans(), min_size=360, max_size=360),
)
@example(shape=(3, 2), entries=[0.0] * 360, signs=[False] * 360)
def test_exact_split_identical_on_matrices(shape, entries, signs):
    k, w = shape
    assert_same_split(np.array([-x if neg else x for x, neg in zip(entries, signs)])[: k * w].reshape(k, w))


def assert_same_verdict(hubo, res, budget=20):
    """`verify_quadratization` against the whole-table check, which scans
    every case (its verdict: discrepancy and lift residual within the
    tolerance, gap positive).  A pass is a pass there.  A certificate is at
    most the scanned gap, and at least the bound on the whole mass, alpha -
    M - tolerance.  A scanned gap is the same, bit for bit.  A refusal (a
    certificate that is not positive, with no scan) is a failure there too
    unless that check only sampled, which proves nothing."""
    new = verify_quadratization(hubo, res, budget=budget)
    exhaustive, checked, max_disc, gap = ref.verify_quadratization(hubo, res, budget=budget)
    ref_ok = max_disc <= new.tolerance and new.lift_residual <= new.tolerance and gap > 0.0
    if new.gap_source == "exhaustive":
        assert exhaustive and new.checked == checked and repr(new.gap_bound) == repr(gap)
    else:
        mass = sum(abs(c) for key, c in hubo.terms.items() if len(key) > 2)
        assert new.checked == 0 and gap >= new.gap_bound >= res.alpha - mass - new.tolerance
    if new.ok or exhaustive and len(res.aux_map) + hubo.num_vars <= 30:
        assert new.ok == ref_ok
    return new


@pytest.mark.parametrize("case, budget", [
    ("three-variable", 20), ("three-variable", 0),
    ("halved-alpha", 20), ("halved-alpha", 0),
    ("turn-tet-HHHHHH", 14), ("turn-tet-HHHHHH", 0),
    ("turn-cart-HPPHHP", 0),
    ("cli", 20),
])
def test_verify_quadratization_matches_the_whole_table_check(case, budget):
    """The reduction cases of `test_reduction.py` and the README pipeline's
    turn-tet LKKKKLKKKKL at the worst-case alpha, with the whole-table check
    exhaustive (budget above the originals) and sampled (budget 0)."""
    policy = "worst_case"
    if case in ("three-variable", "halved-alpha"):
        hubo = build_poly({(0, 1, 2): 1.0 if case == "three-variable" else -8.0}, 3)
        policy = "worst_case" if case == "three-variable" else "fixed:0.5"
    elif case == "cli":
        hubo = encode("turn-tet", "LKKKKLKKKKL", get_model("mj")).objective
    else:
        tag, seq = case.rsplit("-", 1)
        hubo = encode(tag, seq, get_model("hp")).objective
    new = assert_same_verdict(hubo, quadratize(hubo, policy), budget)
    assert new.gap_source == ("exhaustive" if policy != "worst_case" and budget else "certificate")
    assert new.ok == (case != "halved-alpha")


@settings(max_examples=300, deadline=None)
@given(hubo=small_hubos())
def test_verify_quadratization_matches_the_whole_table_check_around_the_mass(hubo):
    """Random HUBOs at alphas on both sides of M, the mass of the terms of
    degree > 2: the certificate holds from just above M, if not before, and
    the scan decides where it does not."""
    mass = sum(abs(c) for key, c in hubo.terms.items() if len(key) > 2)
    for factor in (*((0.25, 0.5, 0.9, 1.0, 1.1, 2.0) if mass else ()), None):
        res = quadratize(hubo, "worst_case" if factor is None else f"fixed:{factor * mass!r}")
        new = assert_same_verdict(hubo, res)
        assert new.gap_source == "exhaustive" or new.gap_bound > 0.0
        assert new.gap_source == "certificate" or factor <= 1.0


@settings(max_examples=300, deadline=None)
@given(hubo=small_hubos(), fraction=st.floats(0.05, 1.0))
def test_weak_alpha_certificate_is_at_most_the_whole_table_gap(hubo, fraction):
    """At a weak alpha, a fraction of M, a positive certificate is a lower
    bound on the gap the whole-table check scans, and a pass there."""
    mass = sum(abs(c) for key, c in hubo.terms.items() if len(key) > 2)
    res = quadratize(hubo, f"fixed:{max(fraction * mass, 0.01)!r}")
    new = verify_quadratization(hubo, res, budget=0)
    exhaustive, _, _, gap = ref.verify_quadratization(hubo, res, budget=20)
    assert exhaustive and new.gap_source == "certificate"
    if new.gap_bound > 0.0:
        assert new.ok and new.gap_bound <= gap


@pytest.mark.parametrize("alpha, source, gap", [("fixed:40000", "certificate", 21916.0),
                                                ("fixed:10000", "exhaustive", 948.0)])
def test_weak_alphas_on_lkklkk_against_the_whole_table(alpha, source, gap):
    """The pinned turn-tet LKKLKK under MJ (12 originals, 7 auxiliaries) at
    two alphas below M = 90,460: at 40,000 the per-auxiliary certificate
    proves a gap the whole table puts at 30,948; at 10,000 it is not
    positive and the exhaustive scan decides."""
    hubo = encode("turn-tet", "LKKLKK", get_model("mj")).objective
    new = assert_same_verdict(hubo, quadratize(hubo, alpha))
    assert new.gap_source == source and new.ok
    assert new.gap_bound == pytest.approx(gap, abs=1e-6)
