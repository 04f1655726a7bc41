"""All randomness flows from a single seed: the package draws only from
`random.Random` instances it seeds itself.

This scans each `*.py` under `src/zerosum` and fails on a call of a
module-level `random` function (the shared, unseeded generator) and on any
use of `numpy.random`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zerosum"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def unseeded_uses(source: str):
    """(line, text) of every shared-generator use in a module's source."""
    tree = ast.parse(source)
    aliases = {"random": set(), "numpy": set()}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name.startswith("numpy.random"):
                    found.append((node.lineno, f"import {item.name}"))
                elif item.name in aliases:
                    aliases[item.name].add(item.asname or item.name)
        elif isinstance(node, ast.ImportFrom):
            names = [item.name for item in node.names]
            if (node.module == "random" and names != ["Random"]) or (
                node.module == "numpy" and "random" in names
            ) or (node.module or "").startswith("numpy.random"):
                found.append((node.lineno, f"from {node.module} import {', '.join(names)}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases["numpy"] and node.attr == "random":
                found.append((node.lineno, f"{node.value.id}.random"))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in aliases["random"]
            and node.func.attr != "Random"
        ):
            found.append((node.lineno, f"{node.func.value.id}.{node.func.attr}()"))
    return sorted(found)


def test_scanner_finds_shared_generators():
    source = (
        "import random\nimport numpy as np\nfrom random import shuffle\n"
        "rng = random.Random(1)\nrng.random()\nrandom.randrange(5)\n"
        "np.random.default_rng(0)\nnp.zeros(3)\n"
    )
    assert unseeded_uses(source) == [
        (3, "from random import shuffle"),
        (6, "random.randrange()"),
        (7, "np.random"),
    ]


@pytest.mark.parametrize("name", MODULES)
def test_module_draws_only_from_seeded_generators(name):
    uses = unseeded_uses((PACKAGE / name).read_text())
    assert uses == [], f"{name} uses a shared generator: {uses}"
