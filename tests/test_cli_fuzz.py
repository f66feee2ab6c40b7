"""A deterministic fuzz gate over the command line.

Random games, half of them with quoted, tuple and set node names and with
game names that only quoting keeps whole, are printed with their relabelled
copies and three morphisms each, then mutated: 0-3 character edits, and now
and then a line repeated or the lines shuffled. Every command runs on them
in both output formats, `subgame --at` with malformed terms too. No
exception may escape cli.main, and each exit code must show in its output:
2 a coded error line, 1 a verdict line. Every game that validate accepts,
and every morphism file that reads, prints back as it was; every file the
CLI writes, and every game subgame prints, reads back, name included; a
call that fails writes nothing.

A second gate mutates the argument lists of valid calls: words dropped,
repeated, swapped, cut short or replaced from the vocabulary of
test_cli_args. Each call must exit 0, 1 or 2 without an exception; a usage
error prints nothing on stdout and its usage on stderr, help prints usage
on stdout, and any other exit 2 prints one coded error line.
"""

import contextlib
import io
import os
import random
import re
import shutil
from collections import Counter

from gamecat import (GameError, encode, parse_game_text, parse_morphism_text, parse_term,
                     print_game, print_morphism, pushforward)
from gamecat.cli import main
from gamecat.terms import Atom, FinSet, Tup
from genrandom import random_game
from test_cli_args import WORDS

GAME_NAMES = ['c"#d"', 'a"b', '"#"', 'a"b', "x y", "é", "(p, q)", "q\\"]
NODE_NAMES = ["a b", 'x"y', "é", "q#r", "#", "m\\n", "(", "{z}", "1/2", "end", "run", "-", "->"]
PIECES = ["(", ")", "{", "}", ",", '"', "\\", "\t", " ", "/", "->", "#", "x", "1/0",
          "infoset", "end", "run", "\\u12", "é", '""', "(a,", "\n", "node", "0"]
BAD_ATS = ["(a, b c)", "(a,", '"x', "a b", '"\\u12"', " v0", "v0\t", "", "-v0"]
CONVERT = ["distinguished", "sequence", "action-set", "distinguished-sequence"]
NOT_UTF8 = os.fsdecode(b"\xff")  # a byte that no UTF-8 name holds, as Python reads it
# An error line: a taxonomy code (FileError for a file the OS refused).
ERROR_LINE = re.compile(r"error:? [A-Z][A-Za-z]+(?: |$)")


def _relabel(g, names):
    bij = dict(zip(sorted(g.tree.nodes), names))
    return pushforward(g, bij, {x: {a: a for a in g.clt.feasible[x]}
                                for x in g.tree.decision_nodes}, {i: i for i in g.players})


def _node_name(rng, k, renamed):
    if not renamed or rng.random() < 0.4:
        return Atom(f"v{k}")
    base = Atom(f"{rng.choice(NODE_NAMES)}{k}")
    r = rng.random()
    return Tup((base, Atom("t"))) if r < 0.2 else FinSet((base,)) if r < 0.35 else base


def _mutate(rng, text):
    """text with 0-3 character edits; now and then a line is repeated or
    the lines are shuffled first."""
    lines, r = text.split("\n"), rng.random()
    if r < 0.1:
        j = rng.randrange(len(lines))
        lines.insert(j, lines[j])
    elif r < 0.2:
        rng.shuffle(lines)
    text = "\n".join(lines)
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
        pos, r = rng.randint(0, len(text)), rng.random()
        if r < 0.5:
            text = text[:pos] + rng.choice(PIECES) + text[pos:]
        elif r < 0.75:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + rng.choice(PIECES)[:1] + text[pos + 1:]
    return text


def _build(rng, work, n_games, mutate=_mutate):
    """Write the inputs into work, each text through mutate; return the
    calls, each (argv, the files it may write, a check of its output), and
    the texts written."""
    texts = {}

    def put(name, text):
        path = os.path.join(work, name)
        texts[path] = mutate(rng, text)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts[path])
        return path

    games, morphisms, pairs = [], [], []
    for k in range(n_games):
        renamed = k % 2 == 1
        g = random_game(rng, max_nodes=8, max_players=3)
        n = len(g.tree.nodes)
        g, _ = _relabel(g, [_node_name(rng, j, renamed) for j in range(n)])
        copy, cert = _relabel(g, rng.sample([_node_name(rng, j, renamed) for j in range(n)], n))
        # A game and its copy take neighbouring names: a"b beside c"#d" names
        # an isomorphism `a"b.iso.c"#d"`, which would not read back.
        j = k // 2 % len(GAME_NAMES)
        name1, name2 = (GAME_NAMES[j], GAME_NAMES[j - 1]) if renamed else (f"r{k}", f"r{k}c")
        src = put(f"r{k}.gm", print_game(name1, g))
        dst = put(f"r{k}.copy.gm", print_game(name2, copy))
        ident = {x: x for x in g.tree.nodes}
        swapped = dict(ident)
        x, y = rng.sample(sorted(g.tree.nodes), 2)
        swapped[x], swapped[y] = y, x
        ms = [put(f"r{k}.id.gmm", print_morphism(f"id{k}", f"r{k}.gm", f"r{k}.gm", ident)),
              put(f"r{k}.iso.gmm",
                  print_morphism(rng.choice(GAME_NAMES), f"r{k}.gm", f"r{k}.copy.gm", cert.node_map)),
              put(f"r{k}.bad.gmm", print_morphism(f"bad{k}", f"r{k}.gm", f"r{k}.gm", swapped))]
        inner = sorted(g.tree.decision_nodes)
        games += [(src, dst, [encode(rng.choice(inner)), rng.choice(BAD_ATS)]),
                  (dst, src, [encode(cert.node_map[rng.choice(inner)]), rng.choice(BAD_ATS)])]
        morphisms += ms
        pairs += [(ms[0], ms[0]), (ms[0], ms[1]), (ms[1], ms[0])]

    calls = []
    for path, other, ats in games:
        stem = os.path.splitext(path)[0]
        calls += [([cmd, path], [], None) for cmd in
                  ("validate", "props", "strategies", "nash", "spe", "subgames")]
        calls += [(["subgame", path, f"--at={at}"], [], ("subgame", path, at)) for at in ats]
        if rng.random() < 0.125:  # convert and iso get a copy at a name that is not UTF-8
            stem += NOT_UTF8
            path = shutil.copy(path, stem + ".gm")
        calls += [(["convert", path, "--to", to], [f"{stem}.{to}.gm", f"{stem}.{to}.gmm"],
                   ("convert", path, to)) for to in CONVERT]
        emit = f"{stem}.emitted.gmm"
        calls.append((["iso", path, other, "--emit-morphism", emit], [emit], ("iso", path, other)))
    calls += [(["morphism", action, path], [], None)
              for path in morphisms for action in ("check", "classify")]
    calls += [(["morphism", "compose", a, b], [], None) for a, b in pairs]
    return [(["--format", fmt, *argv], writes, check) for argv, writes, check in calls
            for fmt in ("human", "machine")], texts


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _game_name(path):
    return parse_game_text(_read(path))[0]


def _reads_back(text, name, parse=parse_game_text, printer=print_game):
    """text, a file the CLI wrote, reads as a file so named and prints back as itself."""
    read = parse(text)
    assert read[0] == name
    assert printer(*read) == text


def _check_output(check, out, written):
    """The files an exit-0 call wrote, and the game subgame printed, read back."""
    kind, path, arg = check
    if kind == "subgame":
        game = out.split("\n", 2)[2]
        _reads_back(game, f"{_game_name(path)}.at.{encode(parse_term(arg))}")
    elif kind == "convert":
        name, stem = _game_name(path), os.path.splitext(path)[0]
        _reads_back(written[f"{stem}.{arg}.gm"], f"{name}.{arg}")
        morphism = written[f"{stem}.{arg}.gmm"]
        _reads_back(morphism, f"{name}.to.{arg}", parse_morphism_text, print_morphism)
        assert parse_morphism_text(morphism)[1:3] == (os.path.basename(path),
                                                      os.path.basename(stem) + f".{arg}.gm")
    else:
        (morphism,) = written.values()
        _reads_back(morphism, f"{_game_name(path)}.iso.{_game_name(arg)}",
                    parse_morphism_text, print_morphism)
        assert parse_morphism_text(morphism)[1:3] == (path, arg)


def test_no_call_escapes_and_every_output_reads_back(tmp_path):
    rng = random.Random(22)
    calls, texts = _build(rng, str(tmp_path), 100)
    codes, refused = Counter(), 0
    for argv, writes, check in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)  # an exception fails the test here
        out = buf.getvalue()
        written = {}
        for path in writes:
            if os.path.exists(path):
                written[path] = _read(path)
                os.remove(path)
        codes[code] += 1
        lines = out.splitlines()
        assert code in (0, 1, 2), argv
        if NOT_UTF8 in argv[3]:  # refused, unless the game is not read or not converted
            assert code, argv
            refused += out.endswith(" is not UTF-8)\n")
        if code == 2:
            assert len(lines) == 1 and ERROR_LINE.match(lines[0]), (argv, out)
        elif code == 1:
            assert any(line.startswith("verdict") for line in lines), (argv, out)
        if code:
            assert not written, argv
        elif check is not None:
            _check_output(check, out, written)
        if argv[2] == "validate" and code == 0:
            _reads_back(print_game(*parse_game_text(texts[argv[3]])),
                        parse_game_text(texts[argv[3]])[0])
    for path, text in texts.items():
        if path.endswith(".gmm"):
            try:
                read = parse_morphism_text(text)
            except GameError:
                continue
            _reads_back(print_morphism(*read), read[0], parse_morphism_text, print_morphism)
    # A gate that only ever sees errors shows nothing: a quarter must pass,
    # and some calls reach the refusal of a name that is not UTF-8.
    assert codes[0] >= sum(codes.values()) / 4 and refused, (codes, refused)


def _mutate_argv(rng, argv):
    """argv with a word dropped, repeated, swapped with another, cut short
    (an option to a prefix of it) or replaced from the vocabulary; now and
    then twice."""
    argv = list(argv)
    for _ in range(1 if rng.random() < 0.7 else 2):
        k, r = rng.randrange(len(argv)), rng.random()
        if r < 0.15:
            del argv[k]
        elif r < 0.3:
            argv.insert(k, argv[k])
        elif r < 0.45:
            m = rng.randrange(len(argv))
            argv[k], argv[m] = argv[m], argv[k]
        elif r < 0.75:
            k = rng.choice([j for j, w in enumerate(argv) if w.startswith("--")] or [k])
            argv[k] = argv[k][:rng.randint(min(3, len(argv[k])), len(argv[k]))]
        else:
            argv[k] = rng.choice(WORDS)
        if not argv:
            break
    return argv


def test_mutated_argument_lists_end_in_a_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative words name files here
    rng = random.Random(23)
    calls, _ = _build(rng, str(tmp_path), 10, mutate=lambda rng, text: text)
    kinds = Counter()
    for argv, _, _ in calls:
        for _ in range(8):
            mutant = _mutate_argv(rng, argv)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(mutant)  # an exception fails the test here
            out, err = out.getvalue(), err.getvalue()
            lines = out.splitlines()
            assert code in (0, 1, 2), mutant
            if err:
                assert err.startswith("usage: gamecat") and code == 2 and not out, mutant
                kinds["usage"] += 1
            elif out.startswith("usage: gamecat"):
                assert code == 0, mutant
                kinds["help"] += 1
            elif code == 2:
                assert len(lines) == 1 and ERROR_LINE.match(lines[0]), (mutant, out)
                kinds["error"] += 1
            else:
                if code == 1:
                    assert any(line.startswith("verdict") for line in lines), (mutant, out)
                kinds[code] += 1
    # Each outcome is met: usage errors, help, coded errors, verdicts 0 and 1.
    assert len(kinds) == 5 and min(kinds.values()) >= 5, kinds
