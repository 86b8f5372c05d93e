"""latticefold benchmark: run one workload for a fixed time, check its
results and print its metrics.

    python3 perfbench/run.py --workload anneal --seed 5 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (perfbench/worker.py) and repeats the
same work on inputs made from --seed. Passes start until --seconds have been
spent, with at least two. Set-up (interpreter start, imports, input
generation) is timed apart from the pass, in extra set-up-only starts too.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced passes and reports the per-layer metrics,
with the tracing overhead. The last line of stdout is one JSON object; the
full report (machine, every pass, every output digest) is written to
perfbench/out/. Needs the checkout's src/ and numpy; builds nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("anneal", "hubo", "cli")
SETUP_PROBES = 9
MIN_PASSES = 2
DEADLINE_S = 170.0  # every run must end inside 180 s

# every end-to-end metric the report prints: (name, unit, workloads or None for all)
REPORTED = (
    ("wall_s", "s", None),
    ("setup_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("failed_share", "ratio", None),
    ("sa_tts_s", "s", ("anneal",)),
    ("sa_p_ground", "ratio", ("anneal",)),
    ("pt_run_s", "s", ("anneal",)),
    ("scaling_report_s", "s", ("hubo",)),
    ("exact_s", "s", ("hubo",)),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def machine() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg") as fh:
        load = fh.read().split()[:3]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "loadavg": [float(x) for x in load], "python": platform.python_version(),
            "platform": platform.platform()}


def quartiles(values: list) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def spawn_worker(argv: list, result: Path, deadline: float) -> tuple[dict, float]:
    """Start the worker, wait for it, and return (its result, start time).

    The worker leads its own process group; whatever is left of the group
    when the worker ends or the deadline passes is killed.
    """
    result.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv, "--result", str(result)],
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv)} ran past the deadline") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0 or not result.exists():
        raise BenchError(f"worker {' '.join(argv)} exited {rc}")
    return json.loads(result.read_text()), started


def run(args) -> dict:
    t_begin = time.monotonic()
    deadline = t_begin + DEADLINE_S
    run_dir = OUT / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine()}
    try:
        if args.workload == "cli":
            spawn_worker([*base, "--mode", "prepare", "--prep", str(run_dir / "prep")],
                         run_dir / "prep.json", deadline)
            base += ["--prep", str(run_dir / "prep"), "--work", str(run_dir / "work")]
        setups = []
        for _ in range(SETUP_PROBES):
            res, started = spawn_worker([*base, "--mode", "setup"], run_dir / "setup.json", deadline)
            setups.append(res["ready_monotonic"] - started)

        passes = []
        t_passes = time.monotonic()
        while True:
            now = time.monotonic()
            longest = max((p["elapsed_s"] for p in passes), default=0.0)
            if len(passes) >= MIN_PASSES and now - t_passes + longest > args.seconds:
                break
            if passes and now + 1.5 * longest > deadline:
                break
            traced = bool(args.trace) and len(passes) % 2 == 0
            argv = [*base, "--mode", "pass", "--trace", str(int(traced))]
            if args.trace and args.workload == "cli":
                # traced cli passes call main(argv) in-process, so the untraced
                # passes they are compared with do too
                argv.append("--in-process")
            if traced:
                argv += ["--spans", str(OUT / f"{args.workload}-seed{args.seed}.spans.json")]
            res, started = spawn_worker(argv, run_dir / "pass.json", deadline)
            res["elapsed_s"] = time.monotonic() - started
            res["setup_s"] = res["ready_monotonic"] - started
            res["traced"] = traced
            passes.append(res)
            setups.append(res["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report["machine"]["loadavg_end"] = machine()["loadavg"]
    report["machine"]["numpy"] = passes[0]["numpy"]
    report["setup_s_samples"] = setups
    report["passes"] = passes

    # correctness gate: every operation of every pass, and bit-identical outputs across passes
    ops = [op for p in passes for op in p["ops"]]
    differing = sorted({k for p in passes[1:] for k in set(p["digests"]) | set(passes[0]["digests"])
                        if p["digests"].get(k) != passes[0]["digests"].get(k)})
    if differing:
        ops.append({"op": "repeat", "ok": False, "wrong": True,
                    "detail": "outputs differ between passes: " + ", ".join(differing)})
    failed = [op for op in ops if not op["ok"]]
    gate = {"attempted": len(ops), "failed": len(failed), "correct": not any(op["wrong"] for op in ops),
            "failures": failed, "digests": passes[0]["digests"]}
    report["gate"] = gate

    untraced = [p for p in passes if not p["traced"]]
    values = {
        "wall_s": [p["values"]["wall_s"] for p in untraced],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "failed_share": [len(failed) / len(ops)],
    }
    for name, _, workloads in REPORTED:
        if workloads and args.workload in workloads:
            values[name] = [p["values"][name] for p in untraced if name in p["values"]]
    summary = {name: quartiles(v) for name, v in values.items() if v}

    traced = [p for p in passes if p["traced"]]
    if traced:
        layer_names = sorted(traced[0]["layers"])
        layers = {n: quartiles([p["layers"][n] for p in traced]) for n in layer_names}
        cli_setup = setups if args.workload == "cli" else [0.0]
        layers["cli.startup_s"] = quartiles(cli_setup)
        traced_wall = quartiles([p["values"]["wall_s"] for p in traced])["median"]
        plain_wall = summary["wall_s"]["median"]
        layers["trace.wall_s"] = quartiles([traced_wall])
        layers["trace.untraced_wall_s"] = quartiles([plain_wall])
        layers["trace.overhead_share"] = quartiles([(traced_wall - plain_wall) / plain_wall])
        report["per_layer"] = layers
    report["end_to_end"] = summary
    return report


def print_report(report: dict, spec: dict) -> None:
    m = report["machine"]
    print(f"latticefold benchmark: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} passes={len(report['passes'])}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} load={m['loadavg']} -> {m['loadavg_end']} "
          f"python={m['python']} numpy={m['numpy']}")
    units = {name: unit for name, unit, _ in REPORTED}
    units.update({e["name"]: e["unit"] for e in spec["per_layer"]})
    rows = [("end-to-end", report["end_to_end"])]
    if "per_layer" in report:
        rows.append(("per-layer (traced passes)", report["per_layer"]))
    for title, table in rows:
        print(f"{title}:")
        print(f"  {'metric':<40} {'median':>16} {'q1':>16} {'q3':>16} {'n':>3}  unit")
        for name, q in table.items():
            print(f"  {name:<40} {q['median']:>16.6g} {q['q1']:>16.6g} {q['q3']:>16.6g} {q['n']:>3}  "
                  f"{units.get(name, '')}")
    gate = report["gate"]
    print(f"gate: correct={str(gate['correct']).lower()} attempted={gate['attempted']} "
          f"failed={gate['failed']} failed_share={gate['failed'] / gate['attempted']:.6g}")
    for op in gate["failures"]:
        print(f"  failed: {op['op']}: {op['detail']}")
    print(f"outputs: {len(gate['digests'])} sha256 digests, identical across passes: "
          f"{not any(op['op'] == 'repeat' for op in gate['failures'])}")


def main() -> int:
    ap = argparse.ArgumentParser(description="latticefold benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "latticefold" / "__init__.py").is_file():
        print(f"error: no latticefold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    try:
        report = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    table = report["per_layer"] if args.trace else report["end_to_end"]
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))
    print_report(report, spec)
    print(f"report: {report_path.relative_to(ROOT)}")
    gate = report["gate"]
    print(json.dumps({
        "correct": gate["correct"],
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {e["name"]: {"value": table[e["name"]]["median"], "unit": e["unit"]} for e in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
