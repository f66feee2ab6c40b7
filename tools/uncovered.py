"""List the statements of src/gamecat that the test suite never runs.

    python3 tools/uncovered.py

Runs `pytest tests` in this process under a line tracer that only looks at
the frames of src/gamecat/*.py, then prints `file:line statement` for each
statement that never ran, in file and line order. tests/test_scaling.py,
whose time bounds the tracer's cost would break, runs afterwards, untraced,
and counts no statement. A module that the package loads lazily is traced
when its first attribute read runs it. Statements are read with
`ast`, leaving out docstrings, `global` and `nonlocal`, which run no code of
their own, and `def` and `class` lines, which run at import (their bodies'
statements are listed instead). A simple statement ran when any of its
lines did; a compound one when its header did or its first body statement
ran (a `try:` line runs no code). Code run in subprocesses is not seen.
Exit status: 0 when every statement ran and every test passed, 1 otherwise.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
PACKAGE = os.path.join(REPO, "src", "gamecat")
SCALING = os.path.join(REPO, "tests", "test_scaling.py")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


def _is_docstring(stmt, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and parent.body[0] is stmt and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))


def _bodies(stmt) -> list:
    """The statement lists nested in stmt, in source order."""
    out = [getattr(stmt, f) for f in ("body", "orelse", "finalbody")
           if isinstance(getattr(stmt, f, None), list) and getattr(stmt, f)]
    out[1:1] = [h.body for h in getattr(stmt, "handlers", ())]
    out += [case.body for case in getattr(stmt, "cases", ())]
    return out


def _uncovered(path: str, ran: set) -> list:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    lines = source.splitlines()
    parents = {id(s): p for p in ast.walk(tree) for body in _bodies(p) for s in body}
    out = []
    for stmt in ast.walk(tree):
        if not isinstance(stmt, ast.stmt) or isinstance(stmt, SKIPPED):
            continue
        if _is_docstring(stmt, parents[id(stmt)]):
            continue
        bodies = _bodies(stmt)
        first = bodies[0][0] if bodies else None
        end = first.lineno if first is not None else stmt.end_lineno + 1
        if ran.intersection(range(stmt.lineno, end)):
            continue
        if first is not None and first.lineno in ran:
            continue
        out.append((stmt.lineno, lines[stmt.lineno - 1].strip()))
    return sorted(set(out))


def _trace() -> tuple:
    """Run the tests: whether all passed, and each package file's absolute
    path -> its lines that ran."""
    import pytest

    ran: dict = {}  # file -> lines that ran
    inside: dict = {}  # code file name -> whether it is in the package

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.dirname(os.path.abspath(name)) == PACKAGE
        if not inside[name]:
            return None
        ran.setdefault(name, set())
        return local

    sys.path.insert(0, os.path.join(REPO, "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    quiet = ["-q", "-p", "no:cacheprovider"]
    try:
        failed = pytest.main([*quiet, os.path.join(REPO, "tests"), "--ignore", SCALING])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    failed = pytest.main([*quiet, SCALING]) or failed
    out: dict = {}
    for name, lines in ran.items():
        out.setdefault(os.path.abspath(name), set()).update(lines)
    return not failed, out


def main() -> int:
    passed, ran = _trace()
    missing = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        for line, text in _uncovered(path, ran.get(path, set())):
            print(f"src/gamecat/{name}:{line} {text}")
            missing += 1
    print(f"{missing} statements never ran")
    return 0 if passed and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
