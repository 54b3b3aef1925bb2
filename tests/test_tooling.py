"""Package-level checks: the public namespace and the absence of bare asserts."""

import ast
from pathlib import Path

import fel


def package_trees():
    for path in sorted(Path(fel.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_public_names_resolve():
    missing = [name for name in fel.__all__ if not hasattr(fel, name)]
    assert not missing


def test_no_assert_in_package():
    # Checks in the package must survive python -O, which strips asserts.
    found = [f"{path.name}:{node.lineno}" for path, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_no_assertion_error_raised_in_package():
    # Broken invariants raise fel's InvariantViolation, which the CLI maps
    # to exit 2; an AssertionError would escape it with a traceback.
    def raised_name(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else None

    found = [f"{path.name}:{node.lineno}" for path, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and raised_name(node) == "AssertionError"]
    assert not found
