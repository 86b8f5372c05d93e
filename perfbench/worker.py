"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload anneal --seed 5 --mode pass --result r.json

Modes:
  setup    set up (imports and inputs) and exit; times start-up only
  prepare  write the cli workload's generated inputs into --prep
  pass     set up, run the workload once, check its results, write --result

The worker imports latticefold from the checkout's `src/` only. Every
program call is an operation: it fails if it raises, exits non-zero or
returns a result that does not match its exact reference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# anneal: the criterion-5 solver configuration on one 7-residue MJ instance
ANNEAL_SEQ = "LKDFSAW"
SA_RESTARTS, SA_SWEEPS, SA_COOLING = 432, 200, 0.9998
PT_TEMPS, PT_SWEEPS, PT_MEASURE = 400, 200, 100
GROUND_TOL = 1e-6

# hubo: turn-model scaling ranges and the brute-force instance
SCALING = (("turn-tet", range(8, 16)), ("turn-cart", range(5, 8)))
HUBO_SEQ = "HPPHHP"

# cli: the README batch pipeline
CLI_SEQ = "HPPPPHPPPPH"
CLI_TURN_SEQ = "LKKKKLKKKKL"
CLI_L = 3
CLI_SA_RESTARTS = 432  # above one 64-restart block, so --jobs 2 starts the pool
CLI_PHYS_RESTARTS = 32
CLI_PT_MEASURE = 100
CLI_DATASET = (100, 10)
CLI_TIMEOUT_S = 120


def sub_seed(seed: int, role: str) -> int:
    """Seed for one role, derived from the workload seed by the benchmark."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{role}".encode()).digest()[:4], "little")


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_array(arr) -> str:
    return digest_bytes(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())


class Pass:
    """Operations, output digests and timed values of one pass."""

    def __init__(self) -> None:
        self.ops: list[dict] = []
        self.digests: dict[str, str] = {}
        self.values: dict[str, float] = {}

    def begin(self) -> float:
        self._t0 = time.perf_counter()
        return self._t0

    def end(self) -> None:
        """Close the timed region: wall_s covers the workload's program calls."""
        self.values["wall_s"] = time.perf_counter() - self._t0

    def call(self, name: str, fn, *args, **kwargs):
        """Run one program call; an exception fails the operation, not the pass."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - each failure is counted
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None

    def record(self, name: str, ok: bool, detail: str = "", wrong: bool = False) -> None:
        """wrong marks a result that disagrees with its reference."""
        self.ops.append({"op": name, "ok": bool(ok), "wrong": bool(wrong and not ok), "detail": detail})

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.record(name, ok, "" if ok else detail, wrong=True)


# ---------------------------------------------------------------------------
# anneal: SA and PT kernels on coord-tet LKDFSAW (MJ, minimal grid)
# ---------------------------------------------------------------------------

def anneal_setup(seed: int) -> dict:
    from latticefold import analysis, encoders, lattice, solvers  # noqa: F401

    mj = encoders.get_model("mj")
    model = encoders.encode("coord-tet", ANNEAL_SEQ, mj,
                            L=lattice.min_grid(lattice.TETRAHEDRAL, len(ANNEAL_SEQ)))
    reference = encoders.optimal_fold_energy(lattice.TETRAHEDRAL, ANNEAL_SEQ, mj, model.lattice_spec())
    return {"model": model, "reference": reference,
            "sa_seed": sub_seed(seed, "anneal-sa"), "pt_seed": sub_seed(seed, "anneal-pt")}


def anneal_run(inp: dict, p: Pass) -> None:
    import numpy as np
    from latticefold import analysis, solvers

    model, ref = inp["model"], inp["reference"]
    sa_cfg = solvers.SaConfig(cooling_rate=SA_COOLING, sweeps=SA_SWEEPS, restarts=SA_RESTARTS,
                              seed=inp["sa_seed"])
    pt_cfg = solvers.PtConfig(num_temps=PT_TEMPS, t_min=1.0, t_max=1e4, sweeps=PT_SWEEPS,
                              measure_sweeps=PT_MEASURE, seed=inp["pt_seed"])
    t0 = p.begin()
    sa = p.call("sa", solvers.simulated_annealing, model.objective, sa_cfg, jobs=1)
    t1 = time.perf_counter()
    pt = p.call("pt", solvers.parallel_tempering, model.objective, pt_cfg)
    t2 = time.perf_counter()
    if sa is None:
        p.record("tts", False, "sa failed")
    else:
        hits = int(np.sum(np.abs(sa.energies - ref) <= GROUND_TOL))
        # tau is the SA call's own seconds per restart, so a change to the
        # program's tau_seconds cannot move this metric
        result = p.call("tts", analysis.tts, (t1 - t0) / SA_RESTARTS, hits / SA_RESTARTS,
                        analysis.wilson_interval(hits, SA_RESTARTS))
    p.end()

    if sa is not None:
        below = float(sa.energies.min()) < ref - GROUND_TOL
        p.check("sa", abs(sa.best_energy - ref) <= GROUND_TOL and not below,
                f"best {sa.best_energy!r} vs reference {ref!r}")
        p.values.update(sa_s=t1 - t0, sa_hits=hits, sa_p_ground=hits / SA_RESTARTS)
        for field in ("bits", "energies", "replicas", "sweeps"):
            p.digests[f"sa.{field}"] = digest_array(getattr(sa, field))
        if result is not None:
            p.check("tts", 0.0 < result.tts_seconds < float("inf") and result.p_ground == hits / SA_RESTARTS,
                    f"tts {result.tts_seconds!r} at p {result.p_ground!r}")
            p.values["sa_tts_s"] = result.tts_seconds
    if pt is not None:
        ss = pt.sample_set
        below = float(ss.energies.min()) < ref - GROUND_TOL
        p.check("pt", abs(ss.best_energy - ref) <= GROUND_TOL and not below,
                f"best {ss.best_energy!r} vs reference {ref!r}")
        p.values["pt_run_s"] = t2 - t1
        for field in ("bits", "energies", "replicas", "sweeps"):
            p.digests[f"pt.{field}"] = digest_array(getattr(ss, field))
        p.digests["pt.trajectory"] = digest_array(pt.energy_trajectory)


# ---------------------------------------------------------------------------
# hubo: turn-model encode + quadratize, exact enumeration of one HUBO
# ---------------------------------------------------------------------------

def hubo_setup(seed: int) -> dict:
    from latticefold import analysis, encoders, solvers  # noqa: F401

    model = encoders.encode("turn-cart", HUBO_SEQ, encoders.get_model("hp"))
    ref_energy, ref_minimizers = encoders.turn_ground_states(model)
    return {"model": model, "ref_energy": ref_energy,
            "ref_minimizers": {tuple(int(b) for b in a) for a in ref_minimizers}}


def hubo_run(inp: dict, p: Pass) -> None:
    import numpy as np
    from latticefold import analysis, encoders, solvers

    model = inp["model"]
    t0 = p.begin()
    reports = [(tag, ns, p.call(f"scaling.{tag}", analysis.scaling_report, [tag], ns))
               for tag, ns in SCALING]
    t1 = time.perf_counter()
    exact = p.call("brute", solvers.brute_force, model.objective)
    folds = None
    if exact is not None:
        folds = p.call("decode", lambda mins: [encoders.decode(model, a) for a in mins], exact[1])
    p.end()
    p.values.update(scaling_report_s=t1 - t0, exact_s=p.values["wall_s"] - (t1 - t0))

    for tag, ns, report in reports:
        if report is None:
            continue
        p.check(f"scaling.{tag}", len(report.rows) == len(ns), f"{len(report.rows)} rows for {len(ns)} N")
        header, rows = report.to_csv_rows()
        text = "\n".join(",".join(str(x) for x in row) for row in [header, *rows])
        p.digests[f"scaling.{tag}"] = digest_bytes(text.encode())
    if exact is None:
        p.record("decode", False, "brute force failed")
        return
    energy, minimizers = exact
    found = {tuple(int(b) for b in a) for a in minimizers}
    p.check("brute", abs(energy - inp["ref_energy"]) <= 1e-9 and len(minimizers) == len(found)
            and found == inp["ref_minimizers"],
            f"{energy!r} with {len(minimizers)} minimizers vs {inp['ref_energy']!r} with "
            f"{len(inp['ref_minimizers'])}")
    p.digests["brute.energy"] = digest_bytes(repr(float(energy)).encode())
    p.digests["brute.minimizers"] = digest_array(np.array(minimizers, dtype=np.uint8))
    if folds is not None:
        p.check("decode", len(folds) == len(minimizers) and all(f.physical for f in folds),
                f"{sum(f.physical for f in folds)} of {len(folds)} decoded minimizers are physical")
        p.digests["decode.folds"] = digest_bytes(json.dumps([f.to_dict() for f in folds]).encode())


# ---------------------------------------------------------------------------
# cli: the README batch pipeline, one latticefold command per step
# ---------------------------------------------------------------------------

def cli_setup(seed: int) -> dict:
    import latticefold.cli  # noqa: F401  - the per-command start-up

    return {"seed": seed}


def cli_prepare(seed: int, prep: Path) -> None:
    """Reference energy, minor embedding and hardware graph from the seed."""
    from latticefold import encoders, lattice

    hp = encoders.get_model("hp")
    model = encoders.encode("coord-tet", CLI_SEQ, hp, L=CLI_L)
    reference = encoders.optimal_fold_energy(lattice.TETRAHEDRAL, CLI_SEQ, hp, model.lattice_spec())
    n = model.objective.num_vars
    pairs = sorted(k for k in model.objective.terms if len(k) == 2)
    rng = random.Random(sub_seed(seed, "cli-embedding"))
    labels = list(range(2 * n))
    rng.shuffle(labels)
    chains = {i: (labels[2 * i], labels[2 * i + 1]) for i in range(n)}
    edges = {tuple(sorted(c)) for c in chains.values()}
    for i, j in pairs:
        edges.add(tuple(sorted((chains[i][rng.randrange(2)], chains[j][rng.randrange(2)]))))
    prep.mkdir(parents=True, exist_ok=True)
    with open(prep / "emb.json", "w") as fh:
        json.dump({str(i): list(c) for i, c in chains.items()}, fh)
    with open(prep / "hw.txt", "w") as fh:
        fh.writelines(f"{u} {v}\n" for u, v in sorted(edges))
    with open(prep / "prep.json", "w") as fh:
        json.dump({"reference": reference, "num_vars": n}, fh)


def cli_commands(seed: int, reference: float) -> list[list[str]]:
    def s(role):
        return str(sub_seed(seed, role))

    pt = ["--num-temps", "32", "--t-min", "1", "--t-max", "1e4", "--sweeps", str(CLI_PT_MEASURE),
          "--measure-sweeps", str(CLI_PT_MEASURE)]
    return [
        ["encode", "coord-tet", "--seq", CLI_SEQ, "--L", str(CLI_L), "--interaction", "hp", "--out", "prob.json"],
        ["solve", "prob.json", "--solver", "sa", "--seed", s("cli-sa"), "--restarts", str(CLI_SA_RESTARTS),
         "--sweeps", "25", "--cooling-rate", "0.9998", "--jobs", "2", "--out", "samples.csv"],
        ["decode", "prob.json", "samples.csv", "--out", "folds.json"],
        ["analyze", "tts", "--samples", "samples.csv", "--summary", "samples.summary.json",
         "--reference-energy", repr(reference), "--out", "tts.csv"],
        ["encode", "turn-tet", "--seq", CLI_TURN_SEQ, "--interaction", "mj", "--out", "tt.json"],
        # exits 3 today: alpha 4.78e7 leaves a 6.5e-6 discrepancy against the
        # fixed 1e-9 tolerance; kept verbatim so the defect stays counted
        ["reduce", "tt.json", "--alpha", "worst_case", "--out", "ttq.json"],
        ["solve", "prob.json", "--solver", "pt", "--seed", s("cli-pt1"), *pt, "--out", "pt_run1.csv"],
        ["solve", "prob.json", "--solver", "pt", "--seed", s("cli-pt2"), *pt, "--out", "pt_run2.csv"],
        ["analyze", "sod", "pt_run1.csv", "pt_run2.csv", "--out", "sod.csv"],
        ["embed", "prob.json", "--embedding", "emb.json", "--hardware", "hw.txt", "--out", "embedded.json"],
        ["solve", "embedded.json", "--solver", "sa", "--seed", s("cli-phys"), "--restarts",
         str(CLI_PHYS_RESTARTS), "--sweeps", "25", "--out", "phys.csv"],
        ["unembed", "phys.csv", "--embedded", "embedded.json", "--problem", "prob.json",
         "--seed", s("cli-phys"), "--out", "logical.csv"],
        ["gen-dataset", "--count", str(CLI_DATASET[0]), "--len", str(CLI_DATASET[1]),
         "--seed", s("cli-dataset"), "--out", "dataset.json"],
    ]


def _run_in_process(argv: list[str], tracer) -> tuple[int, bytes]:
    import latticefold.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = latticefold.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - an uncaught error is exit 1, as in a shell
            rc = 1
    if tracer is not None:
        key = f"cli.exit_code.{rc}"
        tracer.counts[key] = tracer.counts.get(key, 0) + 1
    return rc, out.getvalue().encode()


def _run_subprocess(argv: list[str], work: Path) -> tuple[int, bytes]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "latticefold.cli", *argv], cwd=work, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _cli_checks(work: Path, inp: dict) -> dict:
    """Result check per output-producing command, read back with the stdlib only."""
    ref, n = inp["reference"], inp["num_vars"]

    def doc(name):
        return json.loads((work / name).read_text())

    def rows(name):
        return _csv_rows(work / name)

    def tts():
        hits = sum(abs(float(r[1]) - ref) <= GROUND_TOL for r in rows("samples.csv"))
        p = rows("tts.csv")[0][4]
        return float(p) == hits / CLI_SA_RESTARTS, f"p_ground {p} for {hits} hits"

    def unembed():
        logical = rows("logical.csv")
        return len(logical) == CLI_PHYS_RESTARTS and all(len(r[0]) == n for r in logical), "logical samples"

    def dataset():
        seqs = doc("dataset.json")["sequences"]
        return len(seqs) == CLI_DATASET[0] and all(len(r["sequence"]) == CLI_DATASET[1] for r in seqs), "sequences"

    def pt(name):
        return lambda: (len(rows(name)) == CLI_PT_MEASURE + 1, "trajectory rows plus the best row")

    return {
        "encode:prob.json": lambda: (doc("prob.json")["num_vars"] == n, "num_vars"),
        "solve:samples.csv": lambda: (len(rows("samples.csv")) == CLI_SA_RESTARTS, "one row per restart"),
        "decode:folds.json": lambda: (doc("folds.json")["count"] == len(doc("folds.json")["folds"])
                                      == CLI_SA_RESTARTS, "one fold per sample"),
        "analyze:tts.csv": tts,
        "encode:tt.json": lambda: (doc("tt.json")["sequence"] == CLI_TURN_SEQ, "sequence"),
        "reduce:ttq.json": lambda: (doc("ttq.json")["original_num_vars"] == doc("tt.json")["num_vars"],
                                    "original_num_vars"),
        "solve:pt_run1.csv": pt("pt_run1.csv"),
        "solve:pt_run2.csv": pt("pt_run2.csv"),
        "analyze:sod.csv": lambda: (sum(int(r[1]) for r in rows("sod.csv")) == CLI_PT_MEASURE, "histogram mass"),
        "embed:embedded.json": lambda: (doc("embedded.json")["num_vars"] == 2 * n, "physical qubits"),
        "solve:phys.csv": lambda: (len(rows("phys.csv")) == CLI_PHYS_RESTARTS, "one row per restart"),
        "unembed:logical.csv": unembed,
        "gen-dataset:dataset.json": dataset,
    }


def cli_run(inp: dict, p: Pass, work: Path, in_process: bool, tracer) -> None:
    for name in ("emb.json", "hw.txt"):
        shutil.copy(inp["prep"] / name, work / name)
        p.digests[f"input:{name}"] = digest_bytes((work / name).read_bytes())
    commands = cli_commands(inp["seed"], inp["reference"])
    rcs, seconds = [], []
    cwd = os.getcwd()
    p.begin()
    try:
        if in_process:
            os.chdir(work)
        for argv in commands:
            ts = time.perf_counter()
            try:
                rc, out = _run_in_process(argv, tracer) if in_process else _run_subprocess(argv, work)
            except subprocess.TimeoutExpired:
                rc, out = -1, b""
            seconds.append(time.perf_counter() - ts)
            rcs.append(rc)
            p.digests[f"stdout:{' '.join(argv[:2])}:{argv[-1]}"] = digest_bytes(out)
    finally:
        os.chdir(cwd)
    p.end()
    for argv, sec in zip(commands, seconds):
        key = f"cli.{argv[0]}_s"
        p.values[key] = p.values.get(key, 0.0) + sec

    checks = _cli_checks(work, inp)
    for argv, rc in zip(commands, rcs):
        name = f"{argv[0]}:{argv[-1]}"
        if rc != 0:
            p.record(name, False, f"exit {rc}")
            continue
        try:
            ok, detail = checks[name]()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, detail = False, f"unreadable output: {type(exc).__name__}: {exc}"
        p.check(name, ok, detail)
    p.values["exit_codes"] = rcs
    for path in sorted(work.iterdir()):
        if path.name.endswith((".manifest.json", ".summary.json")) or path.name in ("emb.json", "hw.txt"):
            continue  # manifests and summaries carry timings and timestamps
        data = path.read_bytes()
        if path.name == "tts.csv":  # drop tau_s and tts_s, which are timings
            data = "\n".join(",".join(r[:3] + r[4:5]) for r in _csv_rows(path)).encode()
        p.digests[f"file:{path.name}"] = digest_bytes(data)


# ---------------------------------------------------------------------------

SETUP = {"anneal": anneal_setup, "hubo": hubo_setup, "cli": cli_setup}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "prepare", "pass"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--in-process", action="store_true", help="cli: call main(argv) in this process")
    ap.add_argument("--prep", type=Path, help="cli: directory of prepared inputs")
    ap.add_argument("--work", type=Path, help="cli: working directory for the output files")
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="write the traced pass's spans here")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import latticefold

    if Path(latticefold.__file__).resolve().parent != SRC / "latticefold":
        print(f"latticefold imported from {latticefold.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.mode == "prepare":
        cli_prepare(args.seed, args.prep)
        args.result.write_text("{}")
        return 0

    inp = SETUP[args.workload](args.seed)
    ready = time.monotonic()
    result = {"ready_monotonic": ready}
    if args.mode == "pass":
        import numpy as np

        from tracing import Tracer, layer_metrics

        if args.workload == "cli":
            prep = json.loads((args.prep / "prep.json").read_text())
            inp.update(prep, prep=args.prep)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        p = Pass()
        try:
            if args.workload == "anneal":
                anneal_run(inp, p)
            elif args.workload == "hubo":
                hubo_run(inp, p)
            else:
                args.work.mkdir(parents=True, exist_ok=True)
                try:
                    cli_run(inp, p, args.work, args.in_process, tracer)
                finally:
                    shutil.rmtree(args.work, ignore_errors=True)
        finally:
            if tracer is not None:
                tracer.uninstall()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(ops=p.ops, digests=p.digests, values=p.values,
                      peak_rss_mb=(own + children) / 1024.0, numpy=np.__version__)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, p.values["wall_s"])
            if args.spans:
                tracer.dump(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
