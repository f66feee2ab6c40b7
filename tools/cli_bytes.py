"""Compare the bytes every gamecat CLI command prints and writes between two
source trees.

    python3 tools/cli_bytes.py PARENT [--tree TREE] [--games 200] [--seed 1]

PARENT and TREE are checkouts holding src/gamecat; TREE defaults to the
checkout this script is in, and PARENT can be made with, for example,
`git worktree add /tmp/parent HEAD~1`.

The inputs are built once, with this checkout's library and
tests/genrandom: the files of tests/fixtures; seeded random games, every
other one renamed to quoted, tuple and set names, each with a relabelled
copy, the identity morphism, the certificate of the copy and a morphism
that swaps two nodes; mutated copies of those files (a piece put in, a
character dropped, a blank turned into a tab or dropped, a line repeated or
dropped); the first identity morphism with a key that is no source node; a
game in a directory named `a#b`; one game for each error a utility value
can give; and the games of tests/examplegames whose information sets are no
partition: a cell listed twice, for one player and for two, and two cells
that overlap, in two line orders; a game of bare names, which the block
reader reads, and copies of it that it leaves to the line reader: a node
with two parents, a utility missing and a player with no utility line; and
an identity morphism of that game whose target is a symlink to its source
(the inputs are copied with their symlinks); and, for the equilibrium
printer, a lopsided game (2**10 strategies for one player, 2 for the
other; its action-set form is longer than the longer old text) and a
binary game with tied utilities and 56 Nash equilibria. Each game goes
through validate, props, strategies, nash, spe, subgames, subgame --at
(the least and the greatest node, the least and the greatest root of a
proper subgame, the least decision node below the root that a cell
straddles, the least node with blanks around it, and one term that does
not parse), convert to all four forms (reading the two
files it writes) and iso against its copy with --emit-morphism (reading
the file);
each morphism through morphism check, classify and compose; every call in
both output formats. Two games whose names cannot be joined into a
printable one (`a"b` and `c"#d"`) go through iso both ways and through
subgame at a node named `x#y`. Eleven more calls try the forms of the command
line once each: an option cut to a prefix, `--option=value`, an option
before the positionals, `--` before a positional, a machine-format
--emit-morphism path that ends in a blank, and four usage errors (a bad
--format, a missing --to, an unknown option, a --max-strategies that is no
number); their usage text on stderr is not compared.

Each tree runs every call in its own subprocess (PYTHONPATH=TREE/src), in
its own copy of the inputs, and absolute paths into that copy are written
`<work>` before comparing. Before each call, each file it may write is,
by a seeded draw, missing, or holds an old text shorter than any output,
or one of 8,000 characters, longer than most outputs, so new files, files
written over and a writer that leaves a longer file's old tail are all
compared; a file a call leaves as it was is compared as `<old>`, and one
that it creates or removes against the other tree's. An output longer than
the longer old text is compared like any other. The report gives the calls
made, their exit codes, the files they wrote by what each held before (an
output longer than the longer old text counts as written over a shorter
file), the error codes that the `morphism` calls print (with a detail that
is words), and every call whose standard output, exit code or written
files differ.
Exit status: 0 when nothing differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
CONVERT = ["distinguished", "sequence", "action-set", "distinguished-sequence"]
PIECES = ["(", ")", "{", "}", ",", '"', "\\", "\t", " ", "/", "->", "-", ">", "#", "x",
          "1/0", "--1", "infoset", "end", "run", "\\u12", "é", '""', '"a b"', "(a,"]
NAMES = ["a b", 'x"y', "é", "q#r", "m\\n", "(", "{z}", "1/2", "end", "run", "-", "->"]
# What an output path holds before a call: nothing, a shorter old text or
# (for most outputs) a longer one.
OLD = (None, "old\n", "an older and longer file\n" * 320)
# Terms that do not parse, for subgame --at, and valid ones with blanks around.
BAD_ATS = ["(a, b c)", "(a,", '"x', "a b", '"\\u12"', " v0", "v0\t", " (v0, v1) ", '"x\\', '""']
# Utility values that do not read, one for each error of the rational reader.
BAD_VALUES = ["1/0", "--1", "1/2x", "1 2", "9" * 5000]
# A game named a"b with a node named x#y: iso onto a copy named c"#d" would
# name its morphism a"b.iso.c"#d", and subgame at "x#y" its game
# a"b.at."x#y"; neither name reads back, so both are refused.
NAMED = """game a"b
node r
node "x#y"
node e
node f
node z
edge r "x#y" a
edge r z b
edge "x#y" e c
edge "x#y" f d
infoset i0 { r }
infoset i1 { "x#y" }
player P infoset i0
player P infoset i1
utility P end e 1
utility P end f 0
utility P end z 0
"""
# A game of bare names only, which the block reader reads.
PLAIN = """game p
node r
node x
node e
node f
node z
edge r x a
edge r z b
edge x e a
edge x f b
infoset i0 { r }
infoset i1 { x }
player P infoset i0
player Q infoset i1
utility P end e 1
utility P end f 0
utility P end z 0
utility Q end e 0
utility Q end f 1
utility Q end z 2
"""


def _lopsided(n=10):
    """Q picks L or R at the root; below each, a comb of n P nodes that go on
    by a or leave by b, the k-th nodes of the two combs one cell: 2**n
    strategies for P, 2 for Q."""
    lines = ["game lopsided", "node r", "infoset q { r }", "player Q infoset q"]
    for side in "LR":
        lines += [f"node {side}{k}" for k in range(n + 1)] + [f"edge r {side}0 {side}"]
        for k in range(n):
            lines += [f"node {side}x{k}", f"edge {side}{k} {side}{k + 1} a",
                      f"edge {side}{k} {side}x{k} b", f"utility P end {side}x{k} {k}",
                      f"utility Q end {side}x{k} {k % 3}"]
        lines += [f"utility P end {side}{n} {2 * n - (side == 'R')}",
                  f"utility Q end {side}{n} {1 + (side == 'R')}"]
    for k in range(n):
        lines += [f"infoset c{k} {{ L{k} R{k} }}", f"player P infoset c{k}"]
    return "\n".join(lines) + "\n"


def _tied():
    """The binary tree of depth 3, P moving at depths 0 and 2 and Q at 1,
    with utilities 0 or 1: 128 strategies, 56 of them Nash."""
    lines, frontier = ["game tied", "node r"], ["r"]
    for d in range(3):
        for x in frontier:
            lines += [f"infoset i{x} {{ {x} }}", f"player {'PQ'[d % 2]} infoset i{x}"]
            lines += [f"node {x}{a}\nedge {x} {x}{a} {a}" for a in "lr"]
        frontier = [x + a for x in frontier for a in "lr"]
    for k, e in enumerate(frontier):
        lines += [f"utility P end {e} {int(k == 1)}", f"utility Q end {e} {int(k % 3 == 0)}"]
    return "\n".join(lines) + "\n"


def _mutant(rng, text):
    """text with one or two lines changed."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 2)):
        j = rng.randrange(len(lines))
        line, pos, r = lines[j], rng.randint(0, len(lines[j])), rng.random()
        if r < 0.45:
            lines[j] = line[:pos] + rng.choice(PIECES) + line[pos:]
        elif r < 0.6:
            lines[j] = line[:pos] + line[pos + 1:]
        elif r < 0.8 and " " in line:
            k = rng.choice([k for k, ch in enumerate(line) if ch == " "])
            lines[j] = line[:k] + rng.choice(["\t", ""]) + line[k + 1:]
        elif r < 0.9:
            lines.insert(j, line)
        else:
            del lines[j]
    return "\n".join(lines)


def build_inputs(inputs, n_games, seed):
    """Write the inputs under inputs; return the calls, each (argv, the
    files it may write, each with the index into OLD of what it holds
    before the call), with paths relative to inputs."""
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "tests")]
    from gamecat import (Atom, GameError, encode, parse_game_text, print_game, print_morphism,
                         pushforward, subgame_roots)
    from gamecat.terms import FinSet, Tup
    from examplegames import OVERLAP, REPEATED_CELL, REPEATED_CELL_TWO_PLAYERS
    from genrandom import random_game

    rng = random.Random(seed)
    shutil.copytree(os.path.join(REPO, "tests", "fixtures"), os.path.join(inputs, "fixtures"))
    os.makedirs(os.path.join(inputs, "a#b"))
    for name in ("collapse_src.gm", "x#y.gm"):
        shutil.copy(os.path.join(inputs, "fixtures", "collapse_src.gm"),
                    os.path.join(inputs, "a#b", name))

    def put(path, text):
        with open(os.path.join(inputs, path), "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def name(k, renamed):
        if not renamed or rng.random() < 0.4:
            return Atom(f"v{k}")
        base = Atom(f"{rng.choice(NAMES)}{k}")
        r = rng.random()
        return Tup((base, Atom("t"))) if r < 0.2 else FinSet((base,)) if r < 0.35 else base

    def relabel(g, names):
        nodes = sorted(g.tree.nodes)
        bij = dict(zip(nodes, names))
        return pushforward(g, bij, {x: {a: a for a in g.clt.feasible[x]}
                                    for x in g.tree.decision_nodes}, {i: i for i in g.players})

    games, morphisms, pairs, texts = [], [], [], []
    for k in range(n_games):
        g = random_game(rng, max_nodes=9)
        n, renamed = len(g.tree.nodes), k % 2 == 1
        g, _ = relabel(g, [name(j, renamed) for j in range(n)])
        copy, cert = relabel(g, rng.sample([name(j, renamed) for j in range(n)], n))
        src, dst = f"r{k}.gm", f"r{k}.copy.gm"
        texts += [put(src, print_game(f"r{k}", g)), put(dst, print_game(f"r{k}c", copy))]
        ident = {x: x for x in g.tree.nodes}
        swapped = dict(ident)
        x, y = rng.sample(sorted(g.tree.nodes), 2)
        swapped[x], swapped[y] = y, x
        ms = [put(f"r{k}.id.gmm", print_morphism(f"id{k}", src, src, ident)),
              put(f"r{k}.iso.gmm", print_morphism(f"iso{k}", src, dst, cert.node_map)),
              put(f"r{k}.bad.gmm", print_morphism(f"bad{k}", src, src, swapped))]
        texts += ms
        morphisms += ms
        games += [src, dst]
        pairs += [(ms[0], ms[0]), (ms[0], ms[1]), (ms[1], ms[0])]
    for j, path in enumerate(rng.sample(texts, min(len(texts), max(10, n_games // 2)))):
        ext = os.path.splitext(path)[1]
        with open(os.path.join(inputs, path), encoding="utf-8") as fh:
            text = fh.read()
        out = put(f"mutant{j}{ext}", _mutant(rng, text))
        (games if ext == ".gm" else morphisms).append(out)
    # The identity with a key that is no source node: the one BadNodeMap
    # detail that neither the random morphisms nor the mutants reach.
    with open(os.path.join(inputs, "r0.id.gmm"), encoding="utf-8") as fh:
        morphisms.append(put("r0.extra.gmm", fh.read() + "map zz -> v0\n"))
    fixtures = sorted(os.listdir(os.path.join(inputs, "fixtures")))
    games += [f"fixtures/{f}" for f in fixtures if f.endswith(".gm")]
    morphisms += [f"fixtures/{f}" for f in fixtures if f.endswith(".gmm")]
    pairs += [(m, m) for m in morphisms if m.startswith("fixtures/")]
    games += ["a#b/collapse_src.gm", "a#b/x#y.gm"]
    named = [put("named_a.gm", NAMED), put("named_c.gm", NAMED.replace('game a"b', 'game c"#d"'))]
    games += [put(f"value{j}.gm", NAMED.replace("end e 1", f"end e {v}"))
              for j, v in enumerate(BAD_VALUES)]
    head, *lines = OVERLAP.splitlines()
    games += [put("repeated.gm", REPEATED_CELL), put("repeated2.gm", REPEATED_CELL_TWO_PLAYERS),
              put("overlap.gm", OVERLAP), put("overlap2.gm", "\n".join([head, *lines[::-1]]))]
    plain = PLAIN.splitlines(keepends=True)
    games += [put("plain.gm", PLAIN), put("plain.parents.gm", PLAIN + "edge f z c\n"),
              put("plain.missing.gm", PLAIN.replace("utility Q end z 2\n", "")),
              put("plain.unpaid.gm", "".join(line for line in plain if "utility Q" not in line)),
              put("lopsided.gm", _lopsided()), put("tied.gm", _tied())]
    os.symlink("plain.gm", os.path.join(inputs, "plain.link.gm"))
    morphisms.append(put("plain.link.gmm", "morphism link\nsource plain.gm\ntarget plain.link.gm\n"
                         + "".join(f"map {x} -> {x}\n" for x in "rxefz")))

    calls = [(["iso", *named, "--emit-morphism", "named.gmm"], ["named.gmm"]),
             (["iso", *named[::-1], "--emit-morphism", "named.gmm"], ["named.gmm"]),
             (["subgame", named[0], "--at", '"x#y"'], [])]
    for j, path in enumerate(games):
        stem = os.path.splitext(path)[0]
        with open(os.path.join(inputs, path), encoding="utf-8") as fh:
            text = fh.read()
        try:
            g = parse_game_text(text)[1]
        except GameError:  # a mutant: the commands report its error
            ats = ["v0"]
        else:
            nodes, roots = g.tree.sorted_nodes, subgame_roots(g)
            proper = [x for x in nodes if x in roots and x is not g.tree.root]
            straddled = [x for x in nodes if x in g.tree.decision_nodes and x not in roots]
            ats = [encode(x) for x in dict.fromkeys([nodes[0], nodes[-1], *proper[:1],
                                                     *proper[-1:], *straddled[:1]])]
            ats.append(f" {encode(nodes[0])}\t")
        ats.append(BAD_ATS[j % len(BAD_ATS)])
        calls += [([cmd, path], []) for cmd in
                  ("validate", "props", "strategies", "nash", "spe", "subgames")]
        calls += [(["subgame", path, "--at", at], []) for at in ats]
        calls += [(["convert", path, "--to", to], [f"{stem}.{to}.gm", f"{stem}.{to}.gmm"])
                  for to in CONVERT]
        twin = f"{stem}.copy.gm"
        other = twin if os.path.exists(os.path.join(inputs, twin)) else path
        emit = f"{stem}.emitted.gmm"
        calls.append((["iso", path, other, "--emit-morphism", emit], [emit]))
    for path in morphisms:
        calls += [(["morphism", action, path], []) for action in ("check", "classify")]
    calls += [(["morphism", "compose", a, b], []) for a, b in pairs]
    # The forms of the command line, each once: prefixes, `=value`, options
    # before positionals, `--`, and four usage errors.
    game, copy = games[0], games[1]
    written = [f"{os.path.splitext(game)[0]}.sequence.{ext}" for ext in ("gm", "gmm")]
    shapes = [(["--form", "machine", "validate", game], []),
              (["--format=machine", "validate", game], []),
              (["convert", "--to=sequence", game], written),
              (["convert", "--to", "sequence", game], written),
              (["iso", "--emit-morphism", "o.gmm", game, copy], ["o.gmm"]),
              (["--format", "machine", "iso", game, copy, "--emit-morphism", "o.gmm "], ["o.gmm "]),
              (["iso", game, "--", copy], []),
              (["--format", "xml", "validate", game], []),
              (["convert", game], []),
              (["validate", "--no-such-option", game], []),
              (["--max-strategies", "x", "nash", game], [])]
    calls = [(["--format", fmt, *argv], writes) for argv, writes in calls
             for fmt in ("human", "machine")] + shapes
    return [(argv, [(path, rng.randrange(len(OLD))) for path in writes]) for argv, writes in calls]


def run_calls(calls_path, out_path):
    """Child: run every call in this process, in the current directory."""
    import gamecat
    from gamecat.cli import main
    work = os.getcwd()
    with open(calls_path, encoding="utf-8") as fh:
        calls = json.load(fh)
    results = []
    for argv, writes in calls:
        for path, k in writes:
            if OLD[k] is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(OLD[k])
        buf = io.StringIO()
        try:  # usage on stderr is not compared
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except Exception:  # a traceback is an outcome to compare too
            code = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        files = {}
        for path, k in writes:
            if not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
            files[path] = "<old>" if text == OLD[k] else text.replace(work, "<work>")
        results.append([code, buf.getvalue().replace(work, "<work>"), files])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"library": gamecat.__file__, "results": results}, fh)


def _error_code(out):
    """The code of an output's error line, with its detail when the detail
    is words (`BadNodeMap (node unmapped)`); None when it has none."""
    for line in out.splitlines():
        if line.startswith(("error: ", "error ")):
            code = line.split()[1]
            detail = re.search(r" (\([a-z]+(?: [a-z]+)+\))$", line)
            return f"{code} {detail.group(1)}" if detail else code
    return None


def _difference(a, b, label):
    lines = difflib.unified_diff(a.splitlines(), b.splitlines(), "parent", "tree", lineterm="", n=0)
    return [f"  {label}: " + line for line in list(lines)[2:8]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="the source tree to compare against")
    p.add_argument("--tree", default=REPO, help="the source tree to check (this checkout)")
    p.add_argument("--games", type=int, default=200, help="random games to build")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    trees = [os.path.abspath(args.parent), os.path.abspath(args.tree)]
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "gamecat")):
            p.error(f"{tree} holds no src/gamecat")
    with tempfile.TemporaryDirectory(prefix="cli-bytes-") as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        calls = build_inputs(inputs, args.games, args.seed)
        calls_path = os.path.join(tmp, "calls.json")
        with open(calls_path, "w", encoding="utf-8") as fh:
            json.dump(calls, fh)
        procs = []
        for side, tree in zip(("parent", "tree"), trees):
            work = os.path.join(tmp, side)
            shutil.copytree(inputs, work, symlinks=True)
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            procs.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--child", calls_path,
                 os.path.join(tmp, side + ".json")], cwd=work, env=env))
        if any(proc.wait() for proc in procs):
            print("a child run failed", file=sys.stderr)
            return 2
        runs = []
        for side, tree in zip(("parent", "tree"), trees):
            with open(os.path.join(tmp, side + ".json"), encoding="utf-8") as fh:
                run = json.load(fh)
            if not run["library"].startswith(os.path.join(tree, "src")):
                print(f"{side} loaded {run['library']}, not its tree's library", file=sys.stderr)
                return 2
            runs.append(run["results"])
    # A file longer than the longer old text was written over a shorter one.
    written = Counter(1 if k == 2 and len(files[path]) > len(OLD[-1]) else k
                      for (_, writes), (_, _, files) in zip(calls, runs[1])
                      for path, k in writes if files.get(path, "<old>") != "<old>")
    codes = Counter(code for code, _, _ in runs[1])
    print(f"calls {len(calls)}  files written {sum(written.values())} (new {written[0]}, "
          f"over a shorter file {written[1]}, over a longer one {written[2]})  exit codes "
          + " ".join(f"{code}:{n}" for code, n in sorted(codes.items(), key=str)))
    reached = Counter(_error_code(out) for (argv, _), (_, out, _) in zip(calls, runs[1])
                      if "morphism" in argv)
    print("morphism calls' errors: " + ", ".join(
        f"{code} {n}" for code, n in sorted(reached.items(), key=str) if code))
    differing = 0
    for (argv, _), (c0, out0, f0), (c1, out1, f1) in zip(calls, *runs):
        report = []
        if c0 != c1:
            report.append(f"  exit code: {c0} -> {c1}")
        if out0 != out1:
            report += _difference(out0, out1, "stdout")
        for path in sorted(set(f0) | set(f1)):
            if f0.get(path) != f1.get(path):
                report += _difference(f0.get(path, ""), f1.get(path, ""), path)
        if report:
            differing += 1
            print("differs: gamecat " + " ".join(argv), *report, sep="\n")
    print(f"differing calls {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_calls(*sys.argv[2:4])
    else:
        sys.exit(main())
