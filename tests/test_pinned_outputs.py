"""The bytes of a short README pipeline, pinned.

One chain of CLI commands at fixed seeds: encode, SA over two worker
processes, two PT runs, decode, the TTS and overlap analyses, a worst-case
reduction, embed, SA on the physical problem, unembed and a dataset.  Every
output file and stdout line is hashed and compared with the values below, so
a change to any sample, best row, energy or writer fails here.  Manifests and
summaries are left out (they carry timings and timestamps), and so are the
`tau_s` and `tts_s` columns of `tts.csv` and the stdout of `analyze tts`.

The values were taken on x86-64 Linux, Python 3.11, numpy 2.4.  Output is
deterministic per machine; a different CPU may pick other SIMD reductions in
`einsum`.  A declared output change updates the moved values in the same
commit and says which moved and why.
"""

import hashlib
import json

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
    "file:folds.json": "2818d3757bbd816092e794c6052c1a6599c7ef4d82b96318630eb9667a66570d",
    "file:logical.csv": "0fae654a3ed9c7b58bf090746b152e4426931346ea1e57007f057614d5c125d2",
    "file:phys.csv": "13bcabfae28d11004172331b4df170aee9065a07a5f5e2f41744d0256e991639",
    "file:prob.json": "addc324c164d449a29c747667d035ab8a4af381a6c85110aafd0f55a85919db0",
    "file:pt_run1.csv": "70f7ee07b8d8dc90298fd1e784c8e5bb2f053c9d09eb3b960906cf00b1974923",
    "file:pt_run2.csv": "da24ad4c40ad47ba6acffe529c3e8a7105b451155f05c4e0a5798f19d3546adc",
    "file:samples.csv": "5ba26bf3d2b648d889915df98d629514ab785fbf9109acf117e42ceab9d346e9",
    "file:sod.csv": "672a5cd9d5554bd5b19de929fbbd03fac335e1938efc32c53c9195696cf612a6",
    "file:tt.json": "c0ca64fa1de8800bcb8fb469e1248fbd4412827dc490fff7d03526634d77879a",
    "file:ttq.json": "e44b76e40a3a1a8d8afdb4af8f0e66d3a4864f9013ef6373730367e030b454f5",
    "file:tts.csv": "a970e42013abb9a739130b36a933493af19acfc90c324577fb01af49e39f8670",
    "stdout:analyze sod:sod.csv": "678db10b4b94e5b92b48c605e348aed855eab6963230e3dec4e46472c9d6b654",
    "stdout:decode prob.json:folds.json": "7ed0df52b682216d100fa4f22698ca292b7bb9584f38e94d3f8f334dacbcff22",
    "stdout:embed ttq.json:embedded.json": "3ce0b4b331ff96c018476ccb5bc25d5f68ea7164b88287f06ede72e77a64575f",
    "stdout:encode coord-tet:prob.json": "2dd55bb311d007d4f2e98bca7737d377e9c7ea9c3d862e931bb6e69fb76e6d5a",
    "stdout:encode turn-tet:tt.json": "761a02e5278584934f8d50f8cd45737ddda5cdcda558a55af595485843e7cfc7",
    "stdout:gen-dataset --count:dataset.json": "fc855c377fb15f7a77dbd96e66d486452d2b5f663a39766b0bedb0cef3e8719c",
    "stdout:reduce tt.json:ttq.json": "d00fcfc489e6e516a62ea5cabd56f5f6eb32673502d5333d9e508d10effe9aea",
    "stdout:solve embedded.json:phys.csv": "1989fef001f83ddf5a643944230acb15ddb42475152a7e83ef058f152a4dde26",
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


def test_pipeline_output_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {}
    for argv in CHAIN:
        if argv[0] == "embed":
            write_embedding(tmp_path / "ttq.json", tmp_path)
        capsys.readouterr()
        assert main(argv) == 0, argv
        if argv[:2] != ["analyze", "tts"]:
            got[f"stdout:{' '.join(argv[:2])}:{argv[-1]}"] = sha(capsys.readouterr().out.encode())
    for path in sorted(tmp_path.iterdir()):
        if path.name.endswith((".manifest.json", ".summary.json")) or path.name in ("emb.json", "hw.txt"):
            continue
        data = path.read_bytes()
        if path.name == "tts.csv":  # model, N, seed and p_ground; tau_s and tts_s are timings
            data = b"\n".join(b",".join(r.split(b",")[:3] + r.split(b",")[4:5])
                              for r in data.splitlines()[2:])
        got[f"file:{path.name}"] = sha(data)
    assert got == PINNED
