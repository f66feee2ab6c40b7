"""The command-line reader against the parser it replaced.

`_build_parser` below is gamecat.cli's argparse parser as it was before the
reader, kept verbatim as the reference. Hypothesis draws argument lists from
a vocabulary of every command and action, every option name, its prefixes
and `=value` forms, `-h`, `--help`, `--`, `-`, `-5`, `-x`, words with
blanks, the empty word, and choice and non-choice values; some lists are
built as a command with its arguments in any order and a few words added.
The reader and the reference must agree on accept, reject and help, and
where both accept, on every field the handlers read. The one difference:
where the reference drops a `--` that is a value's only word and hands on an
empty list (`iso a -- --`, `subgame g --at=--`), the reader refuses the call.
The plain reader, which takes the lines with no word starting with `-` but
full option names, is checked on its own: wherever it returns fields, they
are the reference's.
"""

import argparse
import contextlib
import functools
import io

from hypothesis import example, given, settings, strategies as st

from gamecat.cli import (_CONVERTERS, _cmd_convert, _cmd_iso, _cmd_morphism, _cmd_props,
                         _cmd_strategies, _cmd_subgame, _cmd_subgames, _cmd_validate,
                         _plain_args, _read_args, main)

FIELDS = ("command", "func", "format", "max_strategies", "game", "at", "to", "action",
          "files", "game1", "game2", "emit_morphism")
COMMANDS = ["validate", "props", "strategies", "nash", "spe", "subgames", "subgame",
            "convert", "morphism", "iso"]
ACTIONS = ["check", "classify", "compose"]
LONG = ["--format", "--max-strategies", "--at", "--to", "--emit-morphism", "--help"]
VALUES = ["human", "machine", *sorted(_CONVERTERS), "5", "-5", "0", "x", "g.gm",
          "Machine", "sequence ", "a b", "", "--", "-", "-x", "h", "hh", "1_0"]
PREFIXES = [name[:k] for name in LONG for k in range(3, len(name) + 1)]
WORDS = sorted(set(
    COMMANDS + ACTIONS + PREFIXES + VALUES
    + [f"{name}={value}" for name in PREFIXES + ["-h", "--"] for value in VALUES[::3]]
    + ["-h", "--help", "--", "-", "-5", "-x", "-hh", "-hx", "-1.5", " ", "--at x", "-x y",
       "-h y", "--x", "---", "h.gm", "m.gmm"]))
# Each command with its positionals and options, as a valid call would give them.
CALLS = {cmd: [["g.gm"]] for cmd in COMMANDS[:6]}
CALLS.update(subgame=[["g.gm"], ["--at", "x"]], convert=[["g.gm"], ["--to", "sequence"]],
             morphism=[["check"], ["m.gmm"], ["n.gmm"]],
             iso=[["g.gm"], ["h.gm"], ["--emit-morphism", "o.gmm"]])


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(prog="gamecat")
    p.add_argument("--format", choices=["human", "machine"], default="human")
    p.add_argument("--max-strategies", type=int, default=1_000_000)
    sub = p.add_subparsers(dest="command", required=True)

    for cmd, fn in [("validate", _cmd_validate), ("props", _cmd_props),
                    ("strategies", _cmd_strategies), ("nash", _cmd_strategies),
                    ("spe", _cmd_strategies), ("subgames", _cmd_subgames)]:
        sp = sub.add_parser(cmd)
        sp.add_argument("game")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("subgame")
    sp.add_argument("game")
    sp.add_argument("--at", required=True)
    sp.set_defaults(func=_cmd_subgame)

    sp = sub.add_parser("convert")
    sp.add_argument("game")
    sp.add_argument("--to", required=True, choices=sorted(_CONVERTERS))
    sp.set_defaults(func=_cmd_convert)

    sp = sub.add_parser("morphism")
    sp.add_argument("action", choices=["check", "classify", "compose"])
    sp.add_argument("files", nargs="+")
    sp.set_defaults(func=_cmd_morphism)

    sp = sub.add_parser("iso")
    sp.add_argument("game1")
    sp.add_argument("game2")
    sp.add_argument("--emit-morphism")
    sp.set_defaults(func=_cmd_iso)
    return p


def _outcome(read, argv):
    """("help" | "reject" | the namespace's fields, stdout, stderr) of one reading."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = read(list(argv))
        except SystemExit as e:
            verdict = "help" if e.code == 0 else "reject"
            assert e.code in (0, 2)
        else:
            verdict = {f: getattr(ns, f) for f in FIELDS if hasattr(ns, f)}
    return verdict, out.getvalue(), err.getvalue()


@st.composite
def _built(draw):
    """A command with its arguments shuffled, global options before it, and
    up to three words put in (`--` often), dropped or doubled."""
    cmd = draw(st.sampled_from(COMMANDS))
    glob = draw(st.lists(st.sampled_from([["--format", "machine"], ["--format=human"],
                                          ["--max-strategies", "-5"], ["--m=7"]]), max_size=2))
    parts = draw(st.permutations(CALLS[cmd]))
    argv = [w for part in glob for w in part] + [cmd] + [w for part in parts for w in part]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(argv)))
        r = draw(st.integers(0, 2))
        if r == 0:
            argv.insert(k, draw(st.sampled_from(["--", "--", *WORDS])))
        elif k < len(argv):
            argv[k:k + 1] = [] if r == 1 else [argv[k], argv[k]]
    return argv


# The edges of `--`, help and ambiguity, which random lists seldom meet.
@example(["morphism", "check", "a", "--", "--", "b"])
@example(["morphism", "check", "--", "a", "--", "b"])
@example(["morphism", "--", "check", "--"])
@example(["iso", "a", "--", "--"])
@example(["subgame", "g", "--at", "x", "--"])
@example(["--format=--", "--format", "machine", "validate", "g"])
@example(["--max-strategies=--", "-hh"])
@example(["--help", "--=x"])
@example(["-h=h"])
@example(["-h="])
@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(WORDS), max_size=7), _built()))
def test_reader_agrees_with_argparse(argv):
    ref, _, _ = _outcome(_build_parser().parse_args, argv)
    got, out, err = _outcome(_read_args, argv)
    if isinstance(ref, dict) and any(isinstance(ref.get(f), list) for f in FIELDS if f != "files"):
        assert got == "reject", (argv, ref, got)  # the dropped `--`
    else:
        assert got == ref, (argv, ref, got)
    if got == "help":
        assert out.startswith("usage: gamecat") and not err
    elif got == "reject":
        assert not out and err.startswith("usage: gamecat")
        assert "\ngamecat: error: " in err
    else:
        assert not out and not err


@st.composite
def _plain(draw):
    """A command with its arguments shuffled, global options before it, each
    option spelled in full with a value drawn from choices, caps, names and
    words starting with `-`, and up to two words dropped or doubled."""
    values = st.sampled_from(VALUES + ["+5", " 5", "10"])
    cmd = draw(st.sampled_from(COMMANDS))
    glob = draw(st.lists(st.sampled_from(["--format", "--max-strategies"]), max_size=2))
    parts = draw(st.permutations(CALLS[cmd]))
    argv = [w for name in glob for w in (name, draw(values))] + [cmd]
    for part in parts:
        argv += [part[0], draw(values)] if part[0].startswith("--") else part
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(argv) - 1))
        argv[k:k + 1] = [] if draw(st.booleans()) else [argv[k], argv[k]]
    return argv


# Options before, after and among the positionals, a repeated option, caps
# int() reads, an empty game name, and values starting with `-`.
@example(["iso", "--emit-morphism", "o", "a", "b"])
@example(["iso", "a", "--emit-morphism", "o", "b"])
@example(["iso", "a", "b", "--emit-morphism", "o"])
@example(["subgame", "--at", "x", "g"])
@example(["convert", "g", "--to", "sequence", "--to", "action-set"])
@example(["--format", "human", "--format", "machine", "validate", "g"])
@example(["--max-strategies", "+5", "nash", "g"])
@example(["--max-strategies", " 5", "nash", "g"])
@example(["--max-strategies", "1_0", "nash", "g"])
@example(["validate", ""])
@example(["morphism", "compose", "m.gmm", "n.gmm"])
@example(["subgame", "g", "--at", "-5"])
@example(["--max-strategies", "-5", "nash", "g"])
@settings(max_examples=2000, deadline=None)
@given(st.one_of(_plain(), _built(), st.lists(st.sampled_from(WORDS), max_size=7)))
def test_plain_reader_agrees_with_argparse(argv):
    got = _plain_args(list(argv))
    if got is not None:
        assert all(w in LONG[:-1] for w in argv if w[:1] == "-"), argv
        ref, _, _ = _outcome(_build_parser().parse_args, argv)
        assert ref == {f: getattr(got, f) for f in FIELDS if hasattr(got, f)}, (argv, ref)


def test_usage_names_every_command_and_option():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--help"]) == 0
        for cmd in COMMANDS:
            assert main([cmd, "-h"]) == 0
    for word in COMMANDS + ACTIONS + LONG[:-1] + ["human", "machine", *_CONVERTERS]:
        assert word in out.getvalue()
