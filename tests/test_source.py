"""Checks on the library source itself."""

import ast
import glob
import os

import gamecat


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants must be real checks.
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gamecat.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
