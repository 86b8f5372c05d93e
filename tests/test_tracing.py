"""The benchmark's tracer (perfbench/tracing.py) patches latticefold
functions where their callers look them up. Every probe site must still
resolve against the package, or a traced benchmark run breaks, and a
traced run must count each call once."""

import importlib.util
import sys
from pathlib import Path

from latticefold import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_probe_site_installs_and_uninstalls(monkeypatch):
    tracing = load_tracing(monkeypatch)
    sites = [(tracing._resolve(target), attr) for _, _, targets in tracing.PROBES
             for target, attr in targets]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert len(tracer._patched) == len(sites)
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(sites, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(sites, originals))


def test_a_traced_reduce_counts_its_one_quadratize_once(monkeypatch, tmp_path, capsys):
    # the verifier checks the reduction against its own substitution, so the
    # one reduce is the one quadratize the tracer sees
    monkeypatch.chdir(tmp_path)
    assert cli.main(["encode", "turn-tet", "--seq", "HHHHHH", "--out", "p.json"]) == 0
    capsys.readouterr()
    tracer = load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
        assert cli.main(["reduce", "p.json", "--out", "q.json"]) == 0
    finally:
        tracer.uninstall()
    aux = int(capsys.readouterr().out.split()[0].removeprefix("aux="))
    assert aux > 0
    assert tracer.counts["reduction.quadratize_calls"] == 1
    assert tracer.counts["reduction.aux_vars"] == aux
