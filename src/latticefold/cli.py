"""Batch front-end: encode -> reduce -> solve -> decode -> analyze, plus
embedding application, over JSON/CSV files with reproducible seeds.

Exit codes: 0 success, 2 input error, 3 verification failure, 4 resource
refusal.  Every output file is accompanied by a .manifest.json recording the
command, resolved configuration, seed, input hashes, and timings; sample
CSVs stay byte-identical across reruns and thread counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    classify_barriers,
    estimate_p_ground,
    overlap_histogram,
    scaling_report,
    spin_overlap_values,
    tts,
)
from .core import (
    ISING,
    InputError,
    assignment_strings,
    finite_float,
    is_int,
    ising_to_qubo,
    load_doc,
    load_problem,
    qubo_to_ising,
    read_lines,
    save_problem,  # not called here: perfbench's tracer patches this name
    write_csv,
    write_json,
)
from .embedding import (
    EmbeddingMap,
    HardwareGraph,
    apply_embedding,
    default_chain_strength,
    load_embedded,
    unembed,
    validate_embedding,  # not called here: perfbench's tracer patches this name
)
from .encoders import (
    AMINO_ACIDS,
    EncodedModel,
    MODEL_TAGS,
    decode as decode_assignment,
    encode,
    geometric_energy,
    get_model,
)
from .reduction import quadratize, scaled_alpha, verify_quadratization
from .solvers import (
    PtConfig,
    ResourceRefusal,
    SaConfig,
    brute_force,  # not called here: perfbench's tracer patches this name
    brute_force_samples,
    counter_uniforms,
    parallel_tempering,
    sample_set_from_csv,
    simulated_annealing,
    stable_seed,
)

EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4


# ---------------------------------------------------------------------------
# manifest plumbing
# ---------------------------------------------------------------------------

def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


class Manifest:
    def __init__(self, command: str, args: argparse.Namespace, inputs: list):
        self.doc = {
            "tool": "latticefold",
            "version": __version__,
            "command": command,
            "config": {
                k: v for k, v in sorted(vars(args).items()) if k not in ("func",)
            },
            "seed": getattr(args, "seed", None),
            "inputs": {str(p): _hash_file(p) for p in inputs},
            "started_utc": datetime.now(timezone.utc).isoformat(),
        }
        self._t0 = time.perf_counter()

    def write(self, out_path) -> str:
        self.doc["elapsed_seconds"] = time.perf_counter() - self._t0
        manifest_path = Path(str(out_path) + ".manifest.json")
        write_json(manifest_path, self.doc)
        return manifest_path.name


def _write_json(path, doc: dict, manifest: Manifest) -> None:
    """Write the manifest, then doc with its name as the last key."""
    doc["manifest"] = manifest.write(path)
    write_json(path, doc)


def _read_fasta(path) -> str:
    lines = [ln.strip() for ln in read_lines(path) if ln.strip()]
    body = [ln for ln in lines if not ln.startswith(">")]
    if not body:
        raise InputError(f"no sequence record in {path}")
    return "".join(body).upper()


def _parse_penalties(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise InputError(f"penalty overrides look like name=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = finite_float(v, f"penalty {k.strip()}")
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_encode(args) -> int:
    if (args.seq is None) == (args.fasta is None):
        raise InputError("provide exactly one of --seq or --fasta")
    sequence = args.seq.upper() if args.seq else _read_fasta(args.fasta)
    inputs = [args.fasta] if args.fasta else []
    manifest = Manifest("encode", args, inputs)
    model = encode(
        args.model,
        sequence,
        get_model(args.interaction),
        L=args.L,
        penalties=_parse_penalties(args.penalty),
        efficient_h3=args.efficient_h3,
        penalty_variant=args.penalty_variant,
    )
    _write_json(args.out, model.to_doc(), manifest)
    obj = model.objective
    print(f"model={args.model} N={len(sequence)} qubits={obj.num_vars} "
          f"degree={obj.degree} density={obj.density:.4f}")
    return 0


def cmd_reduce(args) -> int:
    manifest = Manifest("reduce", args, [args.problem])
    problem, doc = load_problem(args.problem)
    policy = args.alpha
    if policy == "scaled":
        penalties = doc.get("penalties", {})
        lam = penalties.get("lambda_global") if isinstance(penalties, dict) else None
        if lam is None:
            raise InputError("--alpha scaled needs a problem with a lambda_global penalty")
        policy = f"fixed:{scaled_alpha(finite_float(lam, 'penalty lambda_global'))}"
    result = quadratize(problem, policy)
    report = verify_quadratization(problem, result, budget=args.verify_budget)
    out_doc = result.qubo.to_dict()
    for key in ("model", "sequence", "interaction", "penalties", "layout"):
        if key in doc:
            out_doc[key] = doc[key]
    out_doc["aux_map"] = result.aux_map_doc()
    out_doc["original_num_vars"] = problem.num_vars
    out_doc["alpha"] = result.alpha
    out_doc["verification"] = dataclasses.asdict(report)
    _write_json(args.out, out_doc, manifest)
    print(f"aux={len(result.aux_map)} alpha={result.alpha} "
          f"discrepancy={report.lift_residual:.3g} gap={report.gap_bound:.6g}")
    if not report.ok:
        why = _refusal(report, problem.num_vars, len(result.aux_map), args.verify_budget)
        print(f"verification FAILED: {why}", file=sys.stderr)
        return EXIT_VERIFY
    return 0


def _refusal(report, n: int, n_aux: int, budget: int) -> str:
    """Why `reduce` refuses a reduction whose report is not ok."""
    if not report.lift_residual <= report.tolerance:
        return f"the lift residual {report.lift_residual:.6g} exceeds the tolerance {report.tolerance:.6g}"
    if report.gap_source == "exhaustive":
        return f"the exhaustive scan found an inconsistent setting at gap {report.gap_bound:.6g}"
    where = f"n = {n} > --verify-budget {budget}" if n > budget else f"n + n_aux = {n + n_aux} > 30"
    return f"the certificate {report.gap_bound:.6g} is not positive and {where}"


def _config(cls, args):
    """A solver config from the options named as its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


def cmd_solve(args) -> int:
    if args.solver in ("sa", "pt") and args.seed is None:
        raise InputError("--seed is mandatory for sa and pt")
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    manifest = Manifest("solve", args, [args.problem])
    problem, doc = load_problem(args.problem)

    if args.solver == "sa":
        samples = simulated_annealing(problem, _config(SaConfig, args), jobs=args.jobs)
    elif args.solver == "pt":
        samples = parallel_tempering(problem, _config(PtConfig, args)).sample_set
    else:  # brute
        samples = brute_force_samples(problem, free_var_limit=args.brute_limit)

    name = manifest.write(args.out)
    samples.to_csv(args.out, manifest_name=name)
    write_json(Path(args.out).with_suffix(".summary.json"), {**samples.summary(), "manifest": name})
    print(f"solver={args.solver} records={len(samples.energies)} "
          f"best_energy={samples.best_energy!r}")
    return 0


def cmd_decode(args) -> int:
    manifest = Manifest("decode", args, [args.problem, args.samples])
    # a reduced problem's auxiliary variables follow the original ones, which
    # are all the layout reads
    model = EncodedModel.from_doc(load_doc(args.problem))
    samples = sample_set_from_csv(args.samples)
    records = []
    for row, energy, rep, sweep in zip(samples.bits, samples.energies, samples.replicas, samples.sweeps):
        fold = decode_assignment(model, row[:model.num_vars])
        rec = fold.to_dict()
        rec["sample_energy"] = float(energy)
        rec["replica"] = int(rep)
        rec["sweep"] = int(sweep)
        if fold.physical:
            rec["geometric_energy"] = geometric_energy(fold, model.interaction, model.sequence)
        records.append(rec)
    physical = sum(1 for r in records if r["physical"])
    out_doc = {
        "model": model.model,
        "sequence": model.sequence,
        "count": len(records),
        "physical": physical,
        "folds": records,
    }
    _write_json(args.out, out_doc, manifest)
    print(f"decoded={len(records)} physical={physical}")
    return 0


def _trajectory(path) -> np.ndarray:
    ss = sample_set_from_csv(path)
    rows = ss.replicas == 0
    if not rows.any():
        raise InputError(f"{path} has no lowest-temperature trajectory rows")
    return ss.bits[rows]


def _analyze_sod(args) -> int:
    manifest = Manifest("analyze-sod", args, [args.run1, args.run2])
    t1 = _trajectory(args.run1)
    t2 = _trajectory(args.run2)
    q = spin_overlap_values(t1, t2)
    hist = overlap_histogram(q, bins=args.bins)
    label = classify_barriers(hist, threshold=args.threshold)
    write_csv(args.out, manifest.write(args.out), ("q_bin_center", "count"),
              zip(hist.bin_centers.tolist(), hist.counts.tolist()))
    print(f"samples={hist.sample_count} classification={label}")
    return 0


def _analyze_tts(args) -> int:
    if set(args.model) & set(",\r\n"):
        raise InputError(f"--model {args.model!r} holds a comma or a line break")
    inputs = [args.samples]
    summary = {}
    if args.summary:
        inputs.append(args.summary)
        summary = load_doc(args.summary)
    manifest = Manifest("analyze-tts", args, inputs)
    ss = sample_set_from_csv(args.samples)
    tau = args.tau if args.tau is not None else summary.get("tau_seconds")
    if tau is None:
        raise InputError("provide --tau or a solve summary with tau_seconds")
    seed = summary.get("seed", -1)
    if not (is_int(tau) or isinstance(tau, float)):
        raise InputError(f"{args.summary}: tau_seconds {tau!r} is not a number")
    if not is_int(seed):
        raise InputError(f"{args.summary}: seed {seed!r} is not an integer")
    p, interval = estimate_p_ground(ss.energies, args.reference_energy, tol=args.tol)
    result = tts(tau, p, interval)
    write_csv(args.out, manifest.write(args.out), ("model", "N", "seed", "tau_s", "p_ground", "tts_s"),
              [(args.model, args.n, seed, tau, p, result.tts_seconds)])
    print(f"p_ground={p:.4f} interval=({interval[0]:.4f},{interval[1]:.4f}) "
          f"tts={result.tts_seconds!r}")
    return 0


def _analyze_scaling(args) -> int:
    manifest = Manifest("analyze-scaling", args, [])
    tags = [t.strip() for t in args.models.split(",")]
    for t in tags:
        if t not in MODEL_TAGS:
            raise InputError(f"unknown model {t!r}")
    interaction = get_model(args.interaction)
    report = scaling_report(
        tags,
        range(args.n_min, args.n_max + 1),
        interaction=interaction,
    )
    header, rows = report.to_csv_rows()
    write_csv(args.out, manifest.write(args.out), header, rows)
    print(f"rows={len(rows)}")
    return 0


def cmd_embed(args) -> int:
    manifest = Manifest("embed", args, [args.problem, args.embedding, args.hardware])
    problem, doc = load_problem(args.problem)
    emb = EmbeddingMap.load(args.embedding)
    hw = HardwareGraph.load(args.hardware)
    if problem.degree > 2:
        raise InputError("embed expects a quadratic problem; reduce first")
    ising = problem if problem.space == ISING else qubo_to_ising(problem)
    strength = args.chain_strength
    if strength == "auto":
        strength = default_chain_strength(ising_to_qubo(ising) if ising is problem else problem)
    embedded = apply_embedding(ising, emb, hw, strength)  # validates the embedding
    out_doc = embedded.ising.to_dict()
    out_doc["embedding"] = {
        "node_order": list(embedded.node_order),
        "chain_strength": embedded.chain_strength,
        "chain_edge_count": embedded.chain_edge_count,
        "physical_qubits": len(embedded.node_order),
        "chains": {str(k): list(v) for k, v in sorted(emb.chains.items())},
        "source_problem": str(args.problem),
    }
    manifest.doc["chain_strength"] = embedded.chain_strength
    _write_json(args.out, out_doc, manifest)
    print(f"physical_qubits={len(embedded.node_order)} chain_strength={embedded.chain_strength!r}")
    return 0


def cmd_unembed(args) -> int:
    manifest = Manifest("unembed", args, [args.samples, args.embedded, args.problem])
    emb, node_order = load_embedded(args.embedded)
    problem, _ = load_problem(args.problem)
    stray = sorted(set(emb.chains) ^ set(range(problem.num_vars)))
    if stray:
        raise InputError(f"{args.embedded}: chains must be keyed by the variables 0..{problem.num_vars - 1} "
                         f"of {args.problem}; extra or missing: {stray}")
    samples = sample_set_from_csv(args.samples)
    logical, breaks = zip(*(
        unembed(row, emb, node_order, seed=args.seed, sample_index=idx)
        for idx, row in enumerate(samples.bits)
    ))
    rows = np.array(logical, dtype=np.int64)
    energies = problem.evaluate_batch(2 * rows - 1 if problem.space == ISING else rows).tolist()
    header = ("assignment", "energy", "replica", "sweep", "chain_break_fraction")
    write_csv(args.out, manifest.write(args.out), header,
              zip(assignment_strings(rows), energies, samples.replicas.tolist(), samples.sweeps.tolist(), breaks))
    print(f"samples={len(breaks)} mean_chain_break_fraction={float(np.mean(breaks)):.4f}")
    return 0


def cmd_gen_dataset(args) -> int:
    if args.count < 0:
        raise InputError(f"--count must be non-negative, got {args.count}")
    if args.len < 2:
        raise InputError(f"--len must be at least 2, the shortest chain a model encodes, got {args.len}")
    manifest = Manifest("gen-dataset", args, [])
    key = stable_seed(args.seed, "dataset")
    u = counter_uniforms(key, np.arange(args.count)[:, None], np.arange(args.len)[None, :])
    letters = np.minimum(u * len(AMINO_ACIDS), len(AMINO_ACIDS) - 1).astype(int)
    records = []
    for i, row in enumerate(letters.tolist()):
        seq = "".join(AMINO_ACIDS[k] for k in row)
        records.append(
            {
                "id": i,
                "sequence": seq,
                "prefixes": {str(n): seq[:n] for n in range(4, args.len + 1)},
            }
        )
    doc = {
        "seed": args.seed,
        "count": args.count,
        "length": args.len,
        "alphabet": AMINO_ACIDS,
        "sequences": records,
    }
    _write_json(args.out, doc, manifest)
    print(f"sequences={args.count} length={args.len}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _load_config_defaults(argv):
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    defaults = {}
    for line in read_lines(known.config) if known.config else ():
        line = line.split("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config lines look like key = value, got {line!r}")
        k, v = (s.strip() for s in line.split("=", 1))
        defaults[k.replace("-", "_")] = v
    return defaults


def _subparsers(parser):
    """Every subcommand parser under `parser`, the analyses' too."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                yield sp
                yield from _subparsers(sp)


def _apply_config_defaults(parser, defaults: dict) -> None:
    """Make the config values the subcommands' defaults.  They stay strings:
    argparse parses a string default with its option's type, and exits 2 on
    a bad one.  A flag takes true or false; the repeatable --penalty cannot
    come from a config file, and a key must name an option other than --help
    that some subcommand does not require: argparse ignores the default of a
    positional or required argument."""
    subparsers = list(_subparsers(parser))
    options = [a for sp in subparsers for a in sp._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    unknown = sorted(defaults.keys() - {a.dest for a in options})
    if unknown:
        raise InputError(f"config key {', '.join(unknown)} names no option of any subcommand")
    required = sorted(defaults.keys() - {a.dest for a in options if not a.required})
    if required:
        raise InputError(f"config key {', '.join(required)} names only required arguments; "
                         "give it on the command line")
    for sp in subparsers:
        for a in sp._actions:
            raw = defaults.get(a.dest)
            if raw is None:
                continue
            if isinstance(a, argparse._AppendAction):
                raise InputError(f"config key {a.dest} is repeatable; give it on the command line")
            if a.nargs == 0 and raw not in ("true", "false"):
                raise InputError(f"config flag {a.dest} takes true or false, got {raw!r}")
            sp.set_defaults(**{a.dest: raw == "true" if a.nargs == 0 else raw})


def _chain_strength(text: str):
    """--chain-strength: auto or a finite number."""
    if text == "auto":
        return text
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is neither auto nor a number") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticefold",
        description="Lattice protein folding as QUBO/HUBO optimization.",
    )
    parser.add_argument("--config", help="key = value defaults file, overridden by flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="build a model objective from a sequence")
    p.add_argument("model", choices=MODEL_TAGS)
    p.add_argument("--seq", help="residue string")
    p.add_argument("--fasta", help="single-record FASTA file")
    p.add_argument("--L", type=int, default=None, help="grid side (coordinate models)")
    p.add_argument("--interaction", default="hp", choices=("hp", "mj"))
    p.add_argument("--penalty", action="append", metavar="NAME=VALUE")
    p.add_argument("--efficient-h3", action="store_true")
    p.add_argument("--penalty-variant", default="strict", choices=("strict", "tts"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("reduce", help="quadratize a HUBO problem file")
    p.add_argument("problem")
    p.add_argument("--alpha", default="worst_case",
                   help="worst_case | fixed:VALUE | scaled")
    p.add_argument("--verify-budget", type=int, default=20,
                   help="most original variables for the exhaustive gap scan, which runs only "
                   "where the gap certificate is not positive; beyond it such a reduction "
                   "is refused (exit 3)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("solve", help="minimize a problem file")
    p.add_argument("problem")
    p.add_argument("--solver", required=True, choices=("sa", "pt", "brute"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for SA restart blocks (sa only)")
    p.add_argument("--restarts", type=int, default=432)
    p.add_argument("--sweeps", type=int, default=400)
    p.add_argument("--cooling-rate", type=float, default=0.9999)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--num-temps", type=int, default=400)
    p.add_argument("--t-min", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=1e4)
    p.add_argument("--measure-sweeps", type=int, default=100)
    p.add_argument("--brute-limit", type=int, default=30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decode", help="decode samples into folds")
    p.add_argument("problem")
    p.add_argument("samples")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    analyses = sub.add_parser("analyze", help="sod | tts | scaling reports").add_subparsers(
        dest="what", required=True)

    p = analyses.add_parser("sod", help="spin-overlap distribution of two PT runs")
    p.add_argument("run1", help="first PT samples CSV")
    p.add_argument("run2", help="second PT samples CSV")
    p.add_argument("--bins", type=int, default=101)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_analyze_sod)

    p = analyses.add_parser("tts", help="time to solution of one solve")
    p.add_argument("--samples", required=True, help="samples CSV")
    p.add_argument("--summary", help="solve summary JSON")
    p.add_argument("--reference-energy", type=float, required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--model", default="-")
    p.add_argument("--n", type=int, default=-1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_analyze_tts)

    p = analyses.add_parser("scaling", help="post-reduction QUBO metrics per model and N")
    p.add_argument("--models", default="coord-cart,coord-tet", help="comma-separated model tags")
    p.add_argument("--n-min", type=int, default=8)
    p.add_argument("--n-max", type=int, default=24)
    p.add_argument("--interaction", default="hp", choices=("hp", "mj"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_analyze_scaling)

    p = sub.add_parser("embed", help="apply a minor embedding to a problem")
    p.add_argument("problem")
    p.add_argument("--embedding", required=True, help="JSON {logical: [nodes...]}")
    p.add_argument("--hardware", required=True, help="edge list or JSON graph")
    p.add_argument("--chain-strength", type=_chain_strength, default="auto")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("unembed", help="project physical samples to logical")
    p.add_argument("samples")
    p.add_argument("--embedded", required=True, help="embed output JSON")
    p.add_argument("--problem", required=True, help="pre-embedding problem JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unembed)

    p = sub.add_parser("gen-dataset", help="random benchmark sequences")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--len", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_dataset)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_defaults(parser, _load_config_defaults(argv))
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:  # a missing, unreadable or directory path, or a failed read or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
