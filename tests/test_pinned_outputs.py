"""The bytes of a short README pipeline, pinned.

One chain of CLI commands at fixed seeds: encode, SA over two worker
processes, two PT runs, decode, the TTS and overlap analyses, a worst-case
reduction, embed, SA on the physical problem, unembed and a dataset.  Every
output file and stdout line is hashed and compared with the values below, so
a change to any sample, best row, energy or writer fails here.  Manifests and
summaries are left out (they carry timings and timestamps), and so are the
`tau_s` and `tts_s` columns of `tts.csv` and the stdout of `analyze tts`.

The values were taken on x86-64 Linux, Python 3.11, numpy 2.4.  Every solver
sum is exact in any order (the split products and the energy pair), so no
SIMD level or BLAS kernel can move it; `np.exp` in the accept test and the
start-temperature probe's mean and std follow numpy's own code, which
`test_digests_do_not_depend_on_simd_or_blas_kernels` runs under each x86
dispatch level of this numpy, two OpenBLAS core types and one OpenBLAS
thread (so the BLAS thread count cannot move a digest).  It does not cover
ARM, another numpy version or another BLAS.  A declared output change
updates the moved values in the same commit and says which moved and why; a
failure lists each moved value as a PINNED entry, with the pinned digest
beside it.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from latticefold.cli import main
from latticefold.core import load_problem

PT = ["--num-temps", "16", "--t-max", "1e3", "--sweeps", "60", "--measure-sweeps", "30"]
CHAIN = [
    ["encode", "coord-tet", "--seq", "HHHHHH", "--L", "3", "--interaction", "hp", "--out", "prob.json"],
    ["solve", "prob.json", "--solver", "sa", "--seed", "5", "--restarts", "48", "--sweeps", "60",
     "--cooling-rate", "0.998", "--jobs", "2", "--out", "samples.csv"],
    ["decode", "prob.json", "samples.csv", "--out", "folds.json"],
    ["analyze", "tts", "--samples", "samples.csv", "--summary", "samples.summary.json",
     "--reference-energy", "-1.0", "--out", "tts.csv"],
    ["solve", "prob.json", "--solver", "pt", "--seed", "6", *PT, "--out", "pt_run1.csv"],
    ["solve", "prob.json", "--solver", "pt", "--seed", "7", *PT, "--out", "pt_run2.csv"],
    ["analyze", "sod", "pt_run1.csv", "pt_run2.csv", "--bins", "11", "--out", "sod.csv"],
    ["encode", "turn-tet", "--seq", "LKKLKK", "--interaction", "mj", "--out", "tt.json"],
    ["reduce", "tt.json", "--alpha", "worst_case", "--out", "ttq.json"],
    ["embed", "ttq.json", "--embedding", "emb.json", "--hardware", "hw.txt", "--out", "embedded.json"],
    ["solve", "embedded.json", "--solver", "sa", "--seed", "8", "--restarts", "16", "--sweeps", "60",
     "--cooling-rate", "0.998", "--out", "phys.csv"],
    ["unembed", "phys.csv", "--embedded", "embedded.json", "--problem", "ttq.json", "--seed", "8",
     "--out", "logical.csv"],
    ["gen-dataset", "--count", "5", "--len", "8", "--seed", "11", "--out", "dataset.json"],
]

PINNED = {
    "file:dataset.json": "8e688054773cf610ff366a0bb6bb97a50399254cc4ccae5542c99aa8195cc6fc",
    "file:embedded.json": "13e231bb08a2d1c26d4fca8ea75a702da958c712be3ab1dbdc311e91170b471a",
    "file:folds.json": "4c6c6f09978c015274d7934fa90c76e531868d92a493fd6bee735e4f4ab1312e",
    "file:logical.csv": "6b4ca0fa4be5882d65be9a0b78b889f0fefa53396c844c4ed855a08dc43d71a8",
    "file:phys.csv": "02bcd24bb5e7d85def1a98211167524efa646c5995057dd42b9d275655c316b8",
    "file:prob.json": "addc324c164d449a29c747667d035ab8a4af381a6c85110aafd0f55a85919db0",
    "file:pt_run1.csv": "483c84e5dddc65b4d96993f3a27d4b9dc126ca8027c2c50919eb7e91fa0e2400",
    "file:pt_run2.csv": "da24ad4c40ad47ba6acffe529c3e8a7105b451155f05c4e0a5798f19d3546adc",
    "file:samples.csv": "d5532fbf71a23875401ae126f4313a162668136609bd4d4981ce77b0fa9ff972",
    "file:sod.csv": "672a5cd9d5554bd5b19de929fbbd03fac335e1938efc32c53c9195696cf612a6",
    "file:tt.json": "c0ca64fa1de8800bcb8fb469e1248fbd4412827dc490fff7d03526634d77879a",
    "file:ttq.json": "8c178876cc12c5d7bdde5b5b8802669cee882c2a2843b824a113b0f6f1942f76",
    "file:tts.csv": "a970e42013abb9a739130b36a933493af19acfc90c324577fb01af49e39f8670",
    "stdout:analyze sod:sod.csv": "678db10b4b94e5b92b48c605e348aed855eab6963230e3dec4e46472c9d6b654",
    "stdout:decode prob.json:folds.json": "fa2f4fbd0cd98408e9fcf213512e8bb8587d3a3f0f6b98c4be74a5c07ea8f89e",
    "stdout:embed ttq.json:embedded.json": "3ce0b4b331ff96c018476ccb5bc25d5f68ea7164b88287f06ede72e77a64575f",
    "stdout:encode coord-tet:prob.json": "2dd55bb311d007d4f2e98bca7737d377e9c7ea9c3d862e931bb6e69fb76e6d5a",
    "stdout:encode turn-tet:tt.json": "761a02e5278584934f8d50f8cd45737ddda5cdcda558a55af595485843e7cfc7",
    "stdout:gen-dataset --count:dataset.json": "fc855c377fb15f7a77dbd96e66d486452d2b5f663a39766b0bedb0cef3e8719c",
    "stdout:reduce tt.json:ttq.json": "844642a09a3c2ebe3068bc592b1012ae5f0686f935e467c2ffa358b38e96eaec",
    "stdout:solve embedded.json:phys.csv": "75b0344658a0b435d212add0e36b0321ce8644db84e765aa2605a89a90567cd9",
    "stdout:solve prob.json:pt_run1.csv": "3a5221120a38add0ee21c44eee9b547ba42f56e3855b9c8b941fdff7a2c9a358",
    "stdout:solve prob.json:pt_run2.csv": "3a5221120a38add0ee21c44eee9b547ba42f56e3855b9c8b941fdff7a2c9a358",
    "stdout:solve prob.json:samples.csv": "295ce9667c0afa5c71f5a067eae629015b95d6efb92ec6e9bc3e5bbe298e839b",
    "stdout:unembed phys.csv:logical.csv": "ea8c94871bca7b3fb029aa26d5c5efb183daec8a547742b97f5d79644c649813",
}


def write_embedding(problem, work):
    """Chain i is nodes 2i and 2i+1; a coupling (i, j) is the edge (2i+1, 2j)."""
    qubo, _ = load_problem(problem)
    n = qubo.num_vars
    (work / "emb.json").write_text(json.dumps({str(i): [2 * i, 2 * i + 1] for i in range(n)}))
    edges = [(2 * i, 2 * i + 1) for i in range(n)]
    edges += [(2 * i + 1, 2 * j) for i, j in sorted(k for k in qubo.terms if len(k) == 2)]
    (work / "hw.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def chain_digests(work: Path) -> dict:
    """Run CHAIN in `work`, the current directory, and hash its outputs."""
    got = {}
    for argv in CHAIN:
        if argv[0] == "embed":
            write_embedding(work / "ttq.json", work)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        if argv[:2] != ["analyze", "tts"]:
            got[f"stdout:{' '.join(argv[:2])}:{argv[-1]}"] = sha(out.getvalue().encode())
    for path in sorted(work.iterdir()):
        if path.name.endswith((".manifest.json", ".summary.json")) or path.name in ("emb.json", "hw.txt"):
            continue
        data = path.read_bytes()
        if path.name == "tts.csv":  # model, N, seed and p_ground; tau_s and tts_s are timings
            data = b"\n".join(b",".join(r.split(b",")[:3] + r.split(b",")[4:5])
                              for r in data.splitlines()[2:])
        got[f"file:{path.name}"] = sha(data)
    return got


def assert_pinned(got: dict) -> None:
    moved = [f'    "{key}": "{got.get(key)}",  # pinned {PINNED.get(key)}'
             for key in sorted(PINNED.keys() | got.keys()) if got.get(key) != PINNED.get(key)]
    if moved:
        pytest.fail(f"{len(moved)} pinned outputs moved, as PINNED entries:\n" + "\n".join(moved), pytrace=False)


def test_pipeline_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert_pinned(chain_digests(tmp_path))


# a child runs the chain in its working directory and prints its digests, the
# dispatch features it reads and OpenBLAS's core type and thread count (None
# where the library names none)
CHILD = """
import ctypes, glob, json, os
from pathlib import Path
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
import test_pinned_outputs as t

corename = threads = None
for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
    blas = ctypes.CDLL(lib)
    get = getattr(blas, "scipy_openblas_get_corename64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_char_p
        corename = get().decode()
    get = getattr(blas, "scipy_openblas_get_num_threads64_", None)
    if get is not None:
        get.argtypes, get.restype = [], ctypes.c_int
        threads = get()
print(json.dumps({"digests": t.chain_digests(Path.cwd()), "features": __cpu_features__,
                  "corename": corename, "threads": threads}))
"""


def dispatch_settings():
    """The environments to run the chain under: numpy's dispatch targets above
    X86_V3 that this CPU has switched off, then X86_V3 too, then two OpenBLAS
    core types, then one OpenBLAS thread; empty off x86 or where numpy names
    no X86_V3 target."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    if platform.machine().lower() not in ("x86_64", "amd64") or "X86_V3" not in __cpu_dispatch__:
        return []
    had = [t for t in __cpu_dispatch__[__cpu_dispatch__.index("X86_V3"):] if __cpu_features__.get(t)]
    return [{"NPY_DISABLE_CPU_FEATURES": " ".join(t for t in had if t != "X86_V3")},
            {"NPY_DISABLE_CPU_FEATURES": " ".join(had)},
            {"OPENBLAS_CORETYPE": "Haswell"},
            {"OPENBLAS_CORETYPE": "Sandybridge"},
            {"OPENBLAS_NUM_THREADS": "1"}]


def test_digests_do_not_depend_on_simd_or_blas_kernels(tmp_path):
    settings = dispatch_settings()
    if not settings:
        pytest.skip("needs x86-64 and a numpy with X86_V3 dispatch targets")
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])

    def start(k, setting):
        (tmp_path / str(k)).mkdir()
        return subprocess.Popen([sys.executable, "-c", CHILD], cwd=tmp_path / str(k),
                                env={**os.environ, **setting, "PYTHONPATH": path},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    runs = []
    for first in range(0, len(settings), 2):  # two children at a time
        batch = [(s, start(first + k, s)) for k, s in enumerate(settings[first:first + 2])]
        runs += [(s, *child.communicate(timeout=300), child.returncode) for s, child in batch]
    for setting, out, err, code in runs:
        assert code == 0, (setting, err)
        report = json.loads(out.splitlines()[-1])
        for name in setting.get("NPY_DISABLE_CPU_FEATURES", "").split():
            assert not report["features"][name], (setting, name)
        if "OPENBLAS_CORETYPE" in setting and report["corename"] is not None:
            assert report["corename"] == setting["OPENBLAS_CORETYPE"]
        if "OPENBLAS_NUM_THREADS" in setting and report["threads"] is not None:
            assert report["threads"] == 1
        assert_pinned(report["digests"])
