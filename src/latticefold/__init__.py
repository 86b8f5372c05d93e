"""latticefold: coarse-grained lattice protein folding as QUBO/HUBO
optimization, with annealing-family solvers and landscape analysis."""

from .core import (
    BOOLEAN,
    ISING,
    InputError,
    IsingProblem,
    PolynomialObjective,
    coefficient_stats,
    ising_to_qubo,
    load_problem,
    qubo_to_ising,
    save_problem,
)
from .lattice import CARTESIAN, TETRAHEDRAL, LatticeSpec, Site, min_grid, neighbors, sites

__version__ = "0.1.0"
