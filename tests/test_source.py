"""Checks on the library source itself."""

import ast
import glob
import os
import re

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


def test_term_order_is_defined_only_in_terms():
    # Terms order and hash themselves; other modules sort them through the
    # helper in terms and never read a term's key, so the order stays one
    # module's decision.
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gamecat.__file__), "*.py"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if "cmp_to_key" in text:
            found.append(f"{name}: cmp_to_key")
        if name not in ("terms.py", "__init__.py") and re.search(r"\bterm_(key|cmp)\b", text):
            found.append(f"{name}: term_key or term_cmp")
        if name != "terms.py" and re.search(r"\b_key\b", text):
            found.append(f"{name}: _key")
    assert found == []


def test_each_word_grammar_is_written_once():
    # The term parser, the block reader and the line reader read words by
    # one set of rules: each rule is written on one line of the library and
    # every pattern that needs it is built from that line.
    rules = {"quoted atom": r'"(?:[^"\\]|\\.)*', "\\u escape": "(?![Dd][89A-Fa-f])[0-9A-Fa-f]{4}",
             "bare atom": "[A-Za-z0-9_.+-]", "rational": "[+-]?[0-9]+",
             "line break": r"\x85\u2028\u2029"}
    found = {rule: [] for rule in rules}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gamecat.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                for rule, text in rules.items():
                    if text in line:
                        found[rule].append(f"{os.path.basename(path)}:{lineno}")
    assert {rule: len(lines) for rule, lines in found.items()} == dict.fromkeys(rules, 1), found


def test_file_reader_has_no_public_helpers():
    # perfbench's tracer wraps every public module-level function in a span,
    # so a public per-line helper would add a span and a wrapper call to each
    # line read: the reader's helpers stay private.
    path = os.path.join(os.path.dirname(gamecat.__file__), "fileformat.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert public == ["parse_game_text", "print_game", "parse_morphism_text", "print_morphism"]


def test_library_reads_no_derived_view():
    # OutTree, CLT and Game store each fact once; the pair-keyed and set
    # forms below are views built on first read for callers outside the
    # library, so no library module reads one.
    views = {"edges", "label", "feasible", "infosets", "actions", "utilities", "next"}
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gamecat.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}: .{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in views]
    assert found == []


def test_library_opens_files_for_writing_only_in_one_writer():
    # open(path, "w") truncates with O_TRUNC, and ext4 flushes a file
    # truncated to 0 when it is closed: every file the CLI writes goes
    # through cli._write_text, which overwrites in place, and nothing else
    # opens a file for writing or truncates one.
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gamecat.__file__), "*.py"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        writers = [node for node in ast.walk(tree) if name == "cli.py"
                   and isinstance(node, ast.FunctionDef) and node.name == "_write_text"]
        inside = {id(node) for writer in writers for node in ast.walk(writer)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC":
                found.append(f"{name}:{node.lineno}: O_TRUNC")
            if not isinstance(node, ast.Call) or id(node) in inside:
                continue
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            reads = called == "open" and isinstance(f, ast.Name) and (
                mode is None or isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
            if not reads and called in ("open", "fdopen", "write_text", "write_bytes",
                                        "truncate", "ftruncate"):
                found.append(f"{name}:{node.lineno}: {called}")
        if name == "cli.py" and len(writers) != 1:
            found.append("cli.py: no _write_text")
    assert found == []


def test_only_clt_lays_out_a_clt():
    # A CLT's stored layout (the cells in encoding order, info_of, each
    # cell's actions in term order and succ) is built in one place,
    # clt._laid_out, which validation and pushforward both end in: no other
    # module calls CLT(...), and clt.py calls it once.
    calls = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gamecat.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        calls += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "CLT" in (getattr(node.func, "id", None),
                                                              getattr(node.func, "attr", None))]
    assert [call.split(":")[0] for call in calls] == ["clt.py"], calls


def test_object_validators_check_only_outside_input():
    # The public tree, CLT and game validators check outside input: the one
    # caller in the library is build_game, which only the file reader calls,
    # for the text it reads. What the library builds for itself (restrictions,
    # probes, transports) is valid by construction and goes straight to the
    # cores, tree._indexed, clt._laid_out and game._game.
    validators = {"validate_out_tree", "validate_clt", "validate_game", "build_game"}
    calls = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gamecat.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for top in tree.body:
            calls += [(getattr(node.func, "id", None) or node.func.attr, os.path.basename(path),
                       getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Call) and validators & {
                          getattr(node.func, "id", None), getattr(node.func, "attr", None)}]
    assert sorted(calls) == [("build_game", "fileformat.py", "parse_game_text"),
                             ("validate_clt", "game.py", "build_game"),
                             ("validate_game", "game.py", "build_game"),
                             ("validate_out_tree", "game.py", "build_game")], calls


def test_only_outside_input_reaches_the_tree_core():
    # tree._out_tree decides whether listed nodes and a parent map make a
    # tree, which only outside input can fail: validate_out_tree and the
    # .gm block reader call it. What the library builds for itself (a
    # transport, a restriction, a probe) has its root and a preorder in
    # hand and goes to tree._indexed.
    calls = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(gamecat.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for top in tree.body:
            calls += [(os.path.basename(path), getattr(top, "name", None))
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and "_out_tree" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
    assert sorted(calls) == [("fileformat.py", "_game_blocks"),
                             ("tree.py", "validate_out_tree")], calls
