"""Theorem guards must survive `python -O`, which strips `assert`."""

import ast
from pathlib import Path

import newton_cocenter

SOURCE = Path(newton_cocenter.__file__).resolve().parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], "use LogicError instead of assert: " + ", ".join(found)
