"""Library invariants must survive `python -O`, which strips `assert`.

Each module listed here raises its own checked errors instead; a module
joins the list once its asserts have moved onto such a check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zerosum"
CHECKED = ("thickness.py", "expansion.py", "pipeline.py")


@pytest.mark.parametrize("name", CHECKED)
def test_module_has_no_assert(name):
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{name} asserts at lines {lines}"
