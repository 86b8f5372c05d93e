"""Span tracing around the public functions of each latticefold layer.

The program itself carries no tracing. A `Tracer` patches each probed
function at the name its caller looks it up under (a module attribute or a
class attribute), records one span per call (name, start, end, parent) in
memory, and accumulates per-call counts. `layer_metrics` turns the spans and
counts of one traced pass into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

LAYERS = ("core", "encoders", "reduction", "solvers", "analysis", "embedding", "cli")
EXIT_CODES = (0, 1, 2, 3, 4)
CLI_COMMANDS = ("encode", "reduce", "solve", "decode", "analyze", "embed", "unembed", "gen-dataset")
ENCODE_MODELS = ("turn-cart", "turn-tet", "coord-tet")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# --- count hooks: (counts, args, kwargs, result) -> None -------------------

def _bump(counts, key, value=1):
    counts[key] = counts.get(key, 0) + value


def _count_sa(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    _bump(counts, "solvers.sa_restart_sweeps", cfg.restarts * cfg.sweeps)


def _count_pt(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    _bump(counts, "solvers.pt_replica_sweeps", cfg.num_temps * cfg.sweeps)


def _count_uniforms(counts, args, kwargs, result):
    _bump(counts, "solvers.counter_uniforms_calls")
    _bump(counts, "solvers.uniforms_drawn", int(np.size(result)))


def _count_colours(counts, args, kwargs, result):
    _bump(counts, "solvers.color_graph_calls")
    _bump(counts, "solvers.colour_classes", len(result.classes))


def _count_brute(counts, args, kwargs, result):
    _bump(counts, "solvers.brute_states", 1 << _arg(args, kwargs, 0, "obj").num_vars)


def _count_evaluate_batch(counts, args, kwargs, result):
    rows = len(result)
    _bump(counts, "core.evaluate_batch_rows", rows)
    _bump(counts, "core.evaluate_batch_row_terms", rows * len(args[0].terms))


def _count_encode(counts, args, kwargs, result):
    _bump(counts, "encoders.encode_calls")
    _bump(counts, "encoders.terms", len(result.objective.terms))


def _count_decode(counts, args, kwargs, result):
    _bump(counts, "encoders.decoded_samples")
    _bump(counts, "encoders.physical_samples", int(result.physical))


def _count_quadratize(counts, args, kwargs, result):
    _bump(counts, "reduction.quadratize_calls")
    _bump(counts, "reduction.aux_vars", len(result.aux_map))
    _bump(counts, "reduction.qubo_terms", len(result.qubo.terms))


def _count_verify(counts, args, kwargs, result):
    _bump(counts, "reduction.verify_checked", result.checked)


def _count_scaling(counts, args, kwargs, result):
    _bump(counts, "analysis.scaling_rows", len(result.rows))


def _count_unembed(counts, args, kwargs, result):
    _bump(counts, "embedding.unembed_samples")
    _bump(counts, "embedding.chain_break_sum", float(result[1]))


def _encode_name(args, kwargs):
    return "encoders.encode." + _arg(args, kwargs, 0, "model")


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return "cli." + argv[0]


# (span name or naming function, count hook, [(module, attribute), ...]).
# Each function is patched where its callers look it up: `from x import f`
# binds f into the caller's namespace, so that binding is patched too.
# `lattice` is measured through its callers in `encoders`.
PROBES = (
    ("solvers.simulated_annealing", _count_sa,
     [("latticefold.solvers", "simulated_annealing"), ("latticefold.cli", "simulated_annealing")]),
    ("solvers.parallel_tempering", _count_pt,
     [("latticefold.solvers", "parallel_tempering"), ("latticefold.cli", "parallel_tempering")]),
    ("solvers.counter_uniforms", _count_uniforms,
     [("latticefold.solvers", "counter_uniforms"), ("latticefold.cli", "counter_uniforms"),
      ("latticefold.embedding", "counter_uniforms")]),
    ("solvers.color_graph", _count_colours, [("latticefold.solvers", "color_graph")]),
    ("solvers.brute_force", _count_brute,
     [("latticefold.solvers", "brute_force"), ("latticefold.cli", "brute_force")]),
    ("solvers.to_csv", None, [("latticefold.solvers:SampleSet", "to_csv")]),
    ("solvers.sample_set_from_csv", None, [("latticefold.cli", "sample_set_from_csv")]),
    ("core.evaluate_batch", _count_evaluate_batch,
     [("latticefold.core:PolynomialObjective", "evaluate_batch")]),
    ("core.load_problem", None, [("latticefold.core", "load_problem"), ("latticefold.cli", "load_problem")]),
    ("core.save_problem", None, [("latticefold.core", "save_problem"), ("latticefold.cli", "save_problem")]),
    (_encode_name, _count_encode,
     [("latticefold.encoders", "encode"), ("latticefold.analysis", "encode"), ("latticefold.cli", "encode")]),
    ("encoders.decode", _count_decode,
     [("latticefold.encoders", "decode"), ("latticefold.cli", "decode_assignment")]),
    ("reduction.quadratize", _count_quadratize,
     [("latticefold.reduction", "quadratize"), ("latticefold.analysis", "quadratize"),
      ("latticefold.cli", "quadratize")]),
    ("reduction.verify_quadratization", _count_verify,
     [("latticefold.reduction", "verify_quadratization"), ("latticefold.cli", "verify_quadratization")]),
    ("analysis.scaling_report", _count_scaling,
     [("latticefold.analysis", "scaling_report"), ("latticefold.cli", "scaling_report")]),
    ("analysis.spin_overlap_values", None, [("latticefold.cli", "spin_overlap_values")]),
    ("analysis.overlap_histogram", None, [("latticefold.cli", "overlap_histogram")]),
    ("analysis.classify_barriers", None, [("latticefold.cli", "classify_barriers")]),
    ("analysis.tts", None, [("latticefold.analysis", "tts"), ("latticefold.cli", "tts")]),
    ("analysis.estimate_p_ground", None, [("latticefold.cli", "estimate_p_ground")]),
    ("embedding.apply_embedding", None, [("latticefold.cli", "apply_embedding")]),
    ("embedding.validate_embedding", None,
     [("latticefold.cli", "validate_embedding"), ("latticefold.embedding", "validate_embedding")]),
    ("embedding.default_chain_strength", None, [("latticefold.cli", "default_chain_strength")]),
    ("embedding.unembed", _count_unembed, [("latticefold.cli", "unembed")]),
    (_cli_name, None, [("latticefold.cli", "main")]),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans and counts while its probes are installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.counts: dict = {}
        self._stack: list[int] = []
        self._patched: list = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, count, sites in PROBES:
            for target, attr in sites:
                owner = _resolve(target)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name, count))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_seconds(self) -> tuple[dict, float]:
        """({span name: (total s, self s, calls)}, seconds covered by root spans).

        Self time is a span's duration minus the durations of its children.
        """
        names = np.asarray(self.span_name, dtype=np.int64)
        dur = (np.asarray(self.span_end, dtype=np.int64) - np.asarray(self.span_start, dtype=np.int64)) / 1e9
        parent = np.asarray(self.span_parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        calls = np.bincount(names, minlength=k)
        roots = float(dur[~has_parent].sum())
        out = {n: (float(total[i]), float(selfs[i]), int(calls[i])) for i, n in enumerate(self.names)}
        return out, roots

    def dump(self, path) -> None:
        """Write every span as columns: name id, start ns, end ns, parent index."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.span_name, "start_ns": self.span_start,
                       "end_ns": self.span_end, "parent": self.span_parent}, fh)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


# counts reported as they are; the hooks above fill them
COUNTS = (
    "solvers.sa_restart_sweeps", "solvers.pt_replica_sweeps", "solvers.counter_uniforms_calls",
    "solvers.uniforms_drawn", "solvers.color_graph_calls", "solvers.colour_classes", "solvers.brute_states",
    "core.evaluate_batch_rows", "core.evaluate_batch_row_terms", "encoders.encode_calls", "encoders.terms",
    "encoders.decoded_samples", "reduction.quadratize_calls", "reduction.aux_vars", "reduction.qubo_terms",
    "reduction.verify_checked", "analysis.scaling_rows", "embedding.unembed_samples",
    *(f"cli.exit_code.{code}" for code in EXIT_CODES),
)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass whose workload took wall_s."""
    spans, root_s = tracer.self_seconds()
    c = tracer.counts

    def total(*names):
        return sum(spans.get(n, (0.0, 0.0, 0))[0] for n in names)

    m = {key: c.get(key, 0) for key in COUNTS}
    for layer in LAYERS:
        self_s = sum(v[1] for n, v in spans.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share_of_wall"] = _ratio(self_s, wall_s)
    m["unattributed_s"] = max(wall_s - root_s, 0.0)
    m["trace.spans"] = len(tracer.span_name)

    m["solvers.sa_s"] = total("solvers.simulated_annealing")
    m["solvers.sa_ns_per_restart_sweep"] = _ratio(m["solvers.sa_s"], m["solvers.sa_restart_sweeps"], 1e9)
    m["solvers.pt_s"] = total("solvers.parallel_tempering")
    m["solvers.pt_ns_per_replica_sweep"] = _ratio(m["solvers.pt_s"], m["solvers.pt_replica_sweeps"], 1e9)
    m["solvers.counter_uniforms_s"] = total("solvers.counter_uniforms")
    m["solvers.color_graph_s"] = total("solvers.color_graph")
    m["solvers.brute_s"] = total("solvers.brute_force")
    m["solvers.brute_ns_per_state"] = _ratio(m["solvers.brute_s"], m["solvers.brute_states"], 1e9)
    m["solvers.to_csv_s"] = total("solvers.to_csv")
    m["solvers.sample_set_from_csv_s"] = total("solvers.sample_set_from_csv")

    m["core.evaluate_batch_s"] = total("core.evaluate_batch")
    m["core.evaluate_batch_ns_per_row_term"] = _ratio(
        m["core.evaluate_batch_s"], m["core.evaluate_batch_row_terms"], 1e9)
    m["core.load_problem_s"] = total("core.load_problem")
    m["core.save_problem_s"] = total("core.save_problem")

    m["encoders.encode_s"] = total(*(n for n in spans if n.startswith("encoders.encode.")))
    for model in ENCODE_MODELS:
        m[f"encoders.encode_s.{model}"] = total(f"encoders.encode.{model}")
    m["encoders.decode_s"] = total("encoders.decode")
    m["encoders.decode_us_per_sample"] = _ratio(m["encoders.decode_s"], m["encoders.decoded_samples"], 1e6)
    m["encoders.physical_share"] = _ratio(c.get("encoders.physical_samples", 0), m["encoders.decoded_samples"])

    m["reduction.quadratize_s"] = total("reduction.quadratize")
    m["reduction.verify_s"] = total("reduction.verify_quadratization")

    m["analysis.scaling_report_s"] = total("analysis.scaling_report")
    m["analysis.scaling_report_self_s"] = spans.get("analysis.scaling_report", (0.0, 0.0, 0))[1]
    m["analysis.spin_overlap_s"] = total(
        "analysis.spin_overlap_values", "analysis.overlap_histogram", "analysis.classify_barriers")
    m["analysis.tts_s"] = total("analysis.tts", "analysis.estimate_p_ground")

    m["embedding.apply_embedding_s"] = total("embedding.apply_embedding")
    m["embedding.unembed_s"] = total("embedding.unembed")
    m["embedding.chain_break_fraction"] = _ratio(
        c.get("embedding.chain_break_sum", 0.0), m["embedding.unembed_samples"])

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    m["cli.commands"] = sum(spans.get(f"cli.{cmd}", (0.0, 0.0, 0))[2] for cmd in CLI_COMMANDS)
    return m
