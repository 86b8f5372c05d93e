"""The benchmark's tracer (perfbench/tracing.py) patches latticefold
functions where their callers look them up. Every probe site must still
resolve against the package, or a traced benchmark run breaks."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_probe_site_installs_and_uninstalls(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

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
