import numpy as np
import pytest

from latticefold.core import TermAccumulator, code_bits


def build_poly(terms, num_vars, offset=0.0):
    acc = TermAccumulator()
    acc.offset = offset
    for key, coeff in terms.items():
        acc.add(key, coeff)
    return acc.build(num_vars)


def random_qubo(rng, n, n_quad=None):
    acc = TermAccumulator()
    for i in range(n):
        acc.add((i,), float(rng.normal()))
    n_quad = n_quad if n_quad is not None else 2 * n
    for _ in range(n_quad):
        i, j = sorted(rng.choice(n, 2, replace=False))
        acc.add((int(i), int(j)), float(rng.normal()))
    return acc.build(n)


def chain_lift(logical_bits, emb, node_order):
    """Chain-consistent physical assignment from a logical one (bit space)."""
    idx = {p: i for i, p in enumerate(node_order)}
    out = np.zeros(len(node_order), dtype=np.uint8)
    for logical, chain in emb.chains.items():
        for p in chain:
            out[idx[p]] = logical_bits[logical]
    return out


def classes_independent(classes, obj):
    """True when no term of `obj` has two variables in one colour class."""
    member = {int(v): ci for ci, cls in enumerate(classes) for v in cls}
    return all(len({member[v] for v in key}) == len(key) for key in obj.terms)


def all_assignments(n):
    return code_bits(np.arange(1 << n), n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
