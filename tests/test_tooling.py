"""Package-level checks: the public namespace and the absence of bare asserts."""

import ast
from pathlib import Path

import fel


def test_public_names_resolve():
    missing = [name for name in fel.__all__ if not hasattr(fel, name)]
    assert not missing


def test_no_assert_in_package():
    # Checks in the package must survive python -O, which strips asserts.
    found = []
    for path in sorted(Path(fel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found
