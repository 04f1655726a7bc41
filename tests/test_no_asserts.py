"""Library invariants must survive `python -O`, which strips `assert`.

Every module of the package raises `group.InvariantError` through `_check`
instead; this scans each `*.py` under `src/zerosum`, so a new module is
covered without being listed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zerosum"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def test_package_is_scanned():
    assert "pipeline.py" in MODULES and "group.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_has_no_assert(name):
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} asserts at lines {lines}"
