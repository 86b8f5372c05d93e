"""README "Determinism": every random draw of the package comes from the
stateless counter mixer (`solvers.counter_uniforms`), keyed by the seed and a
role.  A module that imports `random` or `numpy.random`, or reaches for
`np.random`, would draw from a generator the seed does not name."""

import ast
from pathlib import Path

import latticefold

PACKAGE = Path(latticefold.__file__).resolve().parent


def rng_uses(path):
    """Line numbers in `path` that import `random` or `numpy.random`, or read
    the `random` attribute of `np` or `numpy`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module or ""]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name.split(".")[:2] in (["random"], ["numpy", "random"], ["np", "random"])
               or name.startswith("random.") for name in names):
            yield node.lineno


def test_no_module_draws_from_another_generator():
    found = [f"{path.relative_to(PACKAGE)}:{line}"
             for path in sorted(PACKAGE.rglob("*.py")) for line in sorted(rng_uses(path))]
    assert found == []


def test_the_scan_finds_each_spelling(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import random\nimport numpy.random\nfrom numpy import random\n"
                      "from random import choice\nimport numpy as np\nx = np.random.default_rng(0)\n"
                      "y = np.random\nz = np.randomize\n")
    assert sorted(rng_uses(source)) == [1, 2, 3, 4, 6, 7]
