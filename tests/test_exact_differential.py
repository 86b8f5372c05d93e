"""The blocked brute force, the incremental quadratizer, the contiguous
`evaluate_batch` and the direct `ising_to_qubo` against their term-by-term
reference versions: every output must be identical, down to the dict order
of the QUBO terms and the repr of the minimum energy.  The Metropolis kernel
against the incremental-field kernel it replaced: the same state after every
sweep, and an energy pair equal to the one recomputed from the state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_exact as ref
from conftest import all_assignments, build_poly, random_qubo
from latticefold.core import IsingProblem, TermAccumulator, ising_to_qubo, qubo_to_ising
from latticefold.encoders import encode, get_model
from latticefold.reduction import quadratize
from latticefold.solvers import (
    PtConfig,
    _atiqullah_t0,
    _Compiled,
    _metropolis,
    brute_force,
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
    return IsingProblem.from_tables(n, fields, couplings, draw(st.floats(-1e3, 1e3)))


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
    assert hubo.evaluate_batch(bits).tobytes() == ref.evaluate_batch(hubo, bits).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(6, 12), ones=st.integers(2, 5), log_scale=st.floats(4.0, 8.0),
       shift=st.floats(-1.0, 1.0), offset=st.floats(-1e8, 1e8))
def test_symmetric_ties_at_large_scale(n, ones, log_scale, shift, offset):
    """Every state with the same number of ones has the same real energy, but
    the float sums differ in the last bits at scale 1e4..1e8, more than
    tie_tol: the blocked candidates must still hold every tied minimizer."""
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
    import latticefold.solvers as solvers

    acc = TermAccumulator()
    for _ in range(60):
        key = rng.choice(15, size=int(rng.integers(1, 5)), replace=False)
        acc.add(key, float(np.round(rng.normal() * 1e8, 2)))
    hubo = acc.build(15)
    expected = assert_same_brute_force(hubo)
    monkeypatch.setattr(solvers, "BRUTE_BLOCK_CELLS", 1 << 6)
    energy, minimizers = solvers.brute_force(hubo)
    assert repr(energy) == repr(expected[0])
    assert [a.tolist() for a in minimizers] == [a.tolist() for a in expected[1]]


@pytest.mark.parametrize("solver", ["sa", "pt"])
def test_metropolis_visits_the_reference_kernels_states(solver):
    # SA: 432 restarts, cooling 0.9998 from Atiqullah start temperatures; PT:
    # the 400-temperature ladder.  60 sweeps pass one exact re-evaluation of
    # the reference kernel.
    comp = _Compiled(encode("coord-tet", "LKDFSAW", get_model("mj")).objective)
    if solver == "sa":
        rows = np.arange(432, dtype=np.int64)
        temps = _atiqullah_t0(comp, rows, stable_seed(11, "sa-probe-state"), stable_seed(11, "sa-probe"))
        cooling = 0.9998
    else:
        temps = temperature_ladder(PtConfig(num_temps=400, t_min=1.0, t_max=1e4))
        rows = np.arange(400, dtype=np.int64)
        cooling = 1.0
    keys = (stable_seed(11, f"{solver}-init"), stable_seed(11, f"{solver}-accept"))
    new = _metropolis(comp, keys, rows, 60, temps, cooling)
    old = ref.metropolis(comp, keys, rows, 60, temps, cooling)
    for (sweep, state, pair), (ref_sweep, bits, _, e_old) in zip(new, old, strict=True):
        assert sweep == ref_sweep
        assert np.array_equal(state[:, comp.inverse], bits)
        assert np.all(state[:, -1] == 1.0)
        assert np.array_equal(pair, ref.pair_energies(comp, state))
        assert np.abs(comp.offset + pair.sum(axis=1) - e_old).max() <= ref.DRIFT_TOL
