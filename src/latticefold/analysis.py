"""Post-processing: spin-overlap distributions, barrier classification,
time-to-solution, success-probability estimation, and the model-scaling
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, coefficient_stats, finite_float
from .encoders import encode, get_model
from .reduction import quadratize

Z95 = 1.959963984540054


# ---------------------------------------------------------------------------
# spin overlap
# ---------------------------------------------------------------------------

@dataclass
class SodHistogram:
    bin_edges: np.ndarray
    counts: np.ndarray

    @property
    def sample_count(self) -> int:
        return int(self.counts.sum())

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def to_rows(self):
        return [
            (float(c), int(n)) for c, n in zip(self.bin_centers, self.counts)
        ]


def spin_overlap_values(states1: np.ndarray, states2: np.ndarray) -> np.ndarray:
    """Per-sweep overlap q of two equally shaped 0/1 state trajectories.

    q_t = (1/n) sum_i s_i^(1) s_i^(2) in spin space; states must come from
    two independent runs on the identical problem over equal measurement
    windows.
    """
    a = np.asarray(states1)
    b = np.asarray(states2)
    if a.shape != b.shape:
        raise InputError(f"trajectory shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 2 or a.shape[1] == 0:
        raise InputError("need (sweeps, variables) trajectories with >= 1 variable")
    s1 = 2.0 * a - 1.0
    s2 = 2.0 * b - 1.0
    return (s1 * s2).mean(axis=1)


def overlap_histogram(q_values: np.ndarray, bins: int = 101) -> SodHistogram:
    if bins < 1:
        raise InputError(f"histogram bins must be at least 1, got {bins}")
    q = np.asarray(q_values, dtype=np.float64)
    if not np.all(np.abs(q) <= 1.0 + 1e-12):
        raise InputError("overlap values must lie in [-1, 1]")
    q = np.clip(q, -1.0, 1.0)
    counts, edges = np.histogram(q, bins=bins, range=(-1.0, 1.0))
    return SodHistogram(bin_edges=edges, counts=counts)


THIN = "thin"
THICK = "thick"


def classify_barriers(hist: SodHistogram, threshold: float = 0.5) -> str:
    """thin iff every detected density peak lies at |q| > threshold.

    Peaks are local maxima of the 3-bin moving-averaged counts.  Smoothing an
    isolated spike produces a flat 3-bin plateau, so a maximal run of equal
    smoothed values that sits strictly above both flanks counts as one peak,
    represented by its highest raw-count bin.
    """
    if hist.sample_count == 0:
        raise InputError("cannot classify an empty histogram")
    threshold = finite_float(threshold, "threshold")
    c = hist.counts.astype(np.float64)
    smooth = np.convolve(c, np.ones(3) / 3.0, mode="same")
    centers = hist.bin_centers
    nbins = len(smooth)
    peaks = []
    b = 0
    while b < nbins:
        run_end = b
        while run_end + 1 < nbins and smooth[run_end + 1] == smooth[b]:
            run_end += 1
        left = smooth[b - 1] if b > 0 else -np.inf
        right = smooth[run_end + 1] if run_end + 1 < nbins else -np.inf
        if smooth[b] > left and smooth[b] > right and smooth[b] > 0.0:
            rep = b + int(np.argmax(c[b : run_end + 1]))
            peaks.append(rep)
        b = run_end + 1
    if not peaks:
        peaks = [int(np.argmax(c))]
    return THIN if all(abs(centers[p]) > threshold for p in peaks) else THICK


# ---------------------------------------------------------------------------
# time-to-solution and success probability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TtsResult:
    tau_seconds: float
    p_ground: float
    tts_seconds: float
    p_interval: tuple[float, float]


def tts(tau_seconds: float, p_ground: float, p_interval=(0.0, 1.0)) -> TtsResult:
    """TTS = tau * log(1 - 0.99) / log(1 - p_ground).

    p = 0 never succeeds (+inf); p >= 0.99 already meets the confidence
    target in one run, so the run factor clamps to 1.
    """
    if finite_float(tau_seconds, "tau") <= 0:
        raise InputError("tau must be positive")
    if not (0.0 <= p_ground <= 1.0):
        raise InputError("p_ground must lie in [0, 1]")
    if p_ground == 0.0:
        value = float("inf")
    elif p_ground >= 0.99:
        value = tau_seconds
    else:
        value = tau_seconds * math.log(1.0 - 0.99) / math.log(1.0 - p_ground)
    return TtsResult(
        tau_seconds=tau_seconds,
        p_ground=p_ground,
        tts_seconds=value,
        p_interval=tuple(p_interval),
    )


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval of the proportion hits / n."""
    if n == 0:
        return (0.0, 1.0)
    z = Z95
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_p_ground(energies, reference_energy: float, tol: float = 1e-6):
    """Fraction of the runs' best energies that reach the reference, with a
    Wilson 95% interval."""
    energies = np.asarray(energies)
    if energies.size == 0:
        raise InputError("empty sample set")
    threshold = finite_float(reference_energy, "reference energy") + finite_float(tol, "tol")
    hits = int(np.sum(energies <= threshold))
    n = int(energies.size)
    return hits / n, wilson_interval(hits, n)


# ---------------------------------------------------------------------------
# scaling report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingRow:
    model: str
    n: int
    L: int | None
    qubits: int
    density: float
    couplers_per_qubit: float
    resolution: float


@dataclass
class ScalingReport:
    rows: list

    def to_csv_rows(self):
        header = ("model", "N", "L", "qubits", "density", "couplers_per_qubit", "resolution")
        data = [
            (r.model, r.n, "" if r.L is None else r.L, r.qubits,
             repr(r.density), repr(r.couplers_per_qubit), repr(r.resolution))
            for r in self.rows
        ]
        return header, data


def scaling_report(model_tags, n_values, interaction=None) -> ScalingReport:
    """Post-reduction QUBO metrics per (model, N) of the poly-H chain of
    length N, which keeps the coefficient alphabet constant across N
    (default interaction: HP).

    Turn models are quadratized at worst-case alpha; coordinate models are
    built at the minimal grid, so qubit counts step whenever the grid grows.
    """
    interaction = interaction or get_model("hp")
    rows = []
    for tag in model_tags:
        for n in n_values:
            model = encode(tag, "H" * n, interaction)
            L = model.layout.get("L")
            qubo = model.objective if tag.startswith("coord") else quadratize(model.objective).qubo
            n_quad = len(qubo.quadratic)
            nv = qubo.num_vars
            _, _, resolution = coefficient_stats(qubo)
            rows.append(
                ScalingRow(
                    model=tag,
                    n=n,
                    L=L,
                    qubits=nv,
                    density=qubo.density,
                    couplers_per_qubit=2.0 * n_quad / nv if nv else 0.0,
                    resolution=resolution,
                )
            )
    return ScalingReport(rows=rows)
