"""Command-line surface.

Exit codes: 0 for success / true verdicts, 1 for false verdicts (invalid game,
invalid morphism, no isomorphism, no subgame) and for an output name that would
not read back (UnprintableName: every text is built before any output), 2 for
usage and syntax errors, for a file the OS refused (FileError) and, with nothing
more written, for a closed standard output, `--help` included. A standard output
closed before the start ends the command at once with 2: it reads and writes no
file.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
from types import SimpleNamespace

from . import canon, equilibrium, morphism, subgame
from .errors import OperationError, ParseError, ValidationError
from .fileformat import (parse_game_text, parse_morphism_text, print_game,
                         print_morphism)
from .terms import _sorted, encode, encode_set, parse_term


class _Report:
    def __init__(self, fmt: str):
        self.sep = " " if fmt == "machine" else ": "

    def line(self, key: str, *values):
        """key, then the values as given: a path keeps a trailing blank."""
        text = " ".join(map(str, values))
        text = f"{key}{self.sep}{text}" if text else key
        try:
            sys.stdout.write(text + "\n")
        except UnicodeEncodeError:  # a path's bytes as the OS gave them, not UTF-8
            sys.stdout.flush()
            sys.stdout.buffer.write(os.fsencode(text + "\n"))


def _read_text(path: str) -> str:
    """The file's text; line breaks stay as written (the readers split lines at CRLF and CR)."""
    try:
        fh = open(path, "rb", buffering=0)
    except ValueError as e:  # a NUL character in the path
        raise ParseError(f"cannot open {path!r}: {e}") from None
    with fh:
        try:  # a leading byte-order mark is no part of the text
            return fh.read().decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8: bad byte at offset {e.start}") from None


def _write_text(path: str, text: str) -> None:
    """Write text over path: in place when the file is no longer than the
    text, as open(path, "w") cuts it to 0 first and ext4 flushes a file cut
    to 0 on close (about 100 us); a longer file is still cut to 0 first, so
    a crash cannot leave its old text cut short. A device has size 0."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except ValueError as e:  # a NUL character in the path
        raise ParseError(f"cannot open {path!r}: {e}") from None
    with open(fd, "wb") as fh:
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, 0)
        fh.write(data)


def _load_game(path: str):
    return parse_game_text(_read_text(path))


def _load_morphism(path: str):
    """The morphism file's name, source and target games and node map; a
    game that is both source and target is loaded once."""
    name, src_ref, tgt_ref, node_map = parse_morphism_text(_read_text(path))
    base = os.path.dirname(os.path.abspath(path))
    # join keeps an absolute reference as it is.
    src_path, tgt_path = os.path.join(base, src_ref), os.path.join(base, tgt_ref)
    _, src = _load_game(src_path)
    try:  # one stat of each path; a target the OS refuses is reported by loading it
        same = "\0" not in tgt_path and os.path.samefile(tgt_path, src_path)
    except OSError:
        same = False
    return name, src, src if same else _load_game(tgt_path)[1], node_map


def _run_encodings(t) -> dict:
    """end node -> the encoding of its run, as encode_set writes it, from one
    preorder walk that keeps the term ranks of the path down to each node."""
    encs = list(map(encode, t.sorted_nodes))
    rank = {x: k for k, x in enumerate(t.sorted_nodes)}
    out, path, depth = {}, [], t.depth
    for y in t.order:
        del path[depth[y]:]
        path.append(rank[y])
        if not t.children[y]:
            out[y] = "{" + ",".join([encs[k] for k in sorted(path)]) + "}"
    return out


def _cmd_validate(args, rep):
    name, g = _load_game(args.game)
    rep.line("game", name)
    rep.line("nodes", len(g.tree.nodes))
    rep.line("root", encode(g.tree.root))
    rep.line("actions", " ".join(encode(a) for a in _sorted(set(g.clt.act.values()))))
    rep.line("players", " ".join(encode(i) for i in _sorted(g.players)))
    for z in map(_run_encodings(g.tree).__getitem__, g.tree.ends):
        rep.line("run", z)
    return 0


def _cmd_props(args, rep):
    _, g = _load_game(args.game)
    p = canon.properties(g)
    for f in p._fields:
        rep.line(f, str(getattr(p, f)).lower())
    return 0


def _cmd_strategies(args, rep):
    """strategies, nash or spe: each "<cell>=<action>" is built once."""
    if args.max_strategies < 1:  # a usage error, not a verdict on the game
        raise ParseError(f"--max-strategies must be at least 1, not {args.max_strategies}")
    _, g = _load_game(args.game)
    cols = [[prefix + encode(a) for a in g.clt.cell_actions[c]]
            for c in g.clt.cells for prefix in [encode_set(c) + "="]]
    if args.command == "strategies":
        profiles = itertools.product(*map(range, equilibrium._sizes(g, args.max_strategies)))
        at, runs = equilibrium._index(g, range(len(cols)))[0], _run_encodings(g.tree)
        for p in profiles:
            rep.line("strategy", " ".join(map(list.__getitem__, cols, p)),
                     "outcome", runs[equilibrium._end(at, g.tree.root, p)])
    else:
        solver = (equilibrium._nash_profiles if args.command == "nash"
                  else equilibrium._spe_profiles)
        for p in solver(g, args.max_strategies):
            rep.line(args.command, " ".join(map(list.__getitem__, cols, p)))
    return 0


def _cmd_subgames(args, rep):
    _, g = _load_game(args.game)
    for r in _sorted(subgame.subgame_roots(g)):
        rep.line("subgame_root", encode(r))
    return 0


def _cmd_subgame(args, rep):
    name, g = _load_game(args.game)
    at = parse_term(args.at)
    res = subgame.selten_subgame(g, at)
    text = print_game(f"{name}.at.{encode(at)}", res.subgame)
    rep.line("root", encode(res.root))
    rep.line("nodes", len(res.subgame.tree.nodes))
    sys.stdout.write(text)
    return 0


_CONVERTERS = {  # target -> its converter's name in canon
    "distinguished": "to_distinguished",
    "sequence": "to_sequence",
    "action-set": "to_action_set",
    "distinguished-sequence": "to_distinguished_sequence",
}


def _cmd_convert(args, rep):
    name, g = _load_game(args.game)
    result = getattr(canon, _CONVERTERS[args.to])(g)
    stem, _ = os.path.splitext(args.game)
    out_game = f"{stem}.{args.to}.gm"
    out_morph = f"{stem}.{args.to}.gmm"
    # The certificate, the shorter text, is built first and held while the game's is.
    texts = {out_morph: print_morphism(f"{name}.to.{args.to}",
                                       os.path.basename(args.game), os.path.basename(out_game),
                                       result.certificate.node_map, g.tree.sorted_nodes),
             out_game: print_game(f"{name}.{args.to}", result.game)}
    for path, text in texts.items():
        _write_text(path, text)
    rep.line("game_file", out_game)
    rep.line("morphism_file", out_morph)
    return 0


def _check_morphism(path, rep, classify=False):
    _, src, tgt, node_map = _load_morphism(path)
    try:
        gm = morphism.validate_game_morphism(src, tgt, node_map)
    except (ValidationError, OperationError) as e:
        rep.line("verdict", "invalid")
        rep.line("error", str(e))
        if e.code == "ActionTransformNotConstant":
            for x in e.witness:
                for a, image in morphism._alpha_at(src.clt, tgt.clt, node_map, x).items():
                    rep.line("alpha", encode(x), encode(a), "->", encode(image))
        return 1
    rep.line("verdict", "valid")
    for cell, table in gm.clt_morphism.alpha.items():  # in encoding order
        cell = encode_set(cell)
        for a, image in table.items():  # in term order
            rep.line("alpha", cell, encode(a), "->", encode(image))
    runs = _run_encodings(src.tree)  # zeta: each run goes to the run through its end's image
    images = runs if tgt is src else _run_encodings(tgt.tree)
    for e in src.tree.ends:
        rep.line("zeta", runs[e], "->", images[gm.node_map[e]])
    for i in _sorted(gm.iota):
        rep.line("iota", encode(i), "->", encode(gm.iota[i]))
    if classify:
        for key, verdict in (("mono", morphism.is_mono(gm)), ("iso", morphism.is_iso(gm))):
            rep.line(key, str(verdict).lower())
        for key, w in (("mono_witness", morphism.mono_witness(gm)),
                       ("clt_mono_witness", morphism.clt_mono_witness(gm.clt_morphism))):
            if w is not None:
                m1, m2 = w
                for x in m1.source.tree.sorted_nodes:
                    rep.line(key, encode(x), "->", encode(m1.node_map[x]), "|",
                             encode(m2.node_map[x]))
    return 0


def _cmd_morphism(args, rep):
    if args.action != "compose":  # check or classify
        if len(args.files) != 1:
            raise ParseError(f"{args.action} needs one morphism file")
        return _check_morphism(args.files[0], rep, classify=args.action == "classify")
    if len(args.files) != 2:
        raise ParseError("compose needs two morphism files")
    _, s1, t1, map1 = _load_morphism(args.files[0])
    _, s2, t2, map2 = _load_morphism(args.files[1])
    m1 = morphism.validate_game_morphism(s1, t1, map1)
    m2 = morphism.validate_game_morphism(s2, t2, map2)
    m = morphism.compose(m2, m1)
    for x in m.source.tree.sorted_nodes:
        rep.line("map", encode(x), "->", encode(m.node_map[x]))
    return 0


def _cmd_iso(args, rep):
    name1, g1 = _load_game(args.game1)
    name2, g2 = _load_game(args.game2)
    m = morphism.iso_search(g1, g2)
    if m is None:
        rep.line("verdict", "not-isomorphic")
        return 1
    if args.emit_morphism:  # written before any output: a refused file is the only line
        _write_text(args.emit_morphism, print_morphism(
            f"{name1}.iso.{name2}", os.path.abspath(args.game1), os.path.abspath(args.game2),
            m.node_map, g1.tree.sorted_nodes))
    rep.line("verdict", "isomorphic")
    for x in g1.tree.sorted_nodes:
        rep.line("map", encode(x), "->", encode(m.node_map[x]))
    if args.emit_morphism:
        rep.line("morphism_file", args.emit_morphism)
    return 0


# The command line, one table: per command its handler, its positionals, each
# (field, choices or None), `files` taking one or more words, and its long
# options, each name -> (field, choices or int or None, default); an option
# whose default is ... must be given. _GLOBAL holds the options read before
# the command.
_GLOBAL = {"--format": ("format", ("human", "machine"), "human"),
           "--max-strategies": ("max_strategies", int, 1_000_000)}
_GAME = (("game", None),)
_COMMANDS = {
    "validate": (_cmd_validate, _GAME, {}),
    "props": (_cmd_props, _GAME, {}),
    "strategies": (_cmd_strategies, _GAME, {}),
    "nash": (_cmd_strategies, _GAME, {}),
    "spe": (_cmd_strategies, _GAME, {}),
    "subgames": (_cmd_subgames, _GAME, {}),
    "subgame": (_cmd_subgame, _GAME, {"--at": ("at", None, ...)}),
    "convert": (_cmd_convert, _GAME, {"--to": ("to", tuple(sorted(_CONVERTERS)), ...)}),
    "morphism": (_cmd_morphism, (("action", ("check", "classify", "compose")), ("files", None)),
                 {}),
    "iso": (_cmd_iso, (("game1", None), ("game2", None)),
            {"--emit-morphism": ("emit_morphism", None, None)}),
}


def _plain_args(words):
    """The fields of a plain command line, or None for any other: the global
    options, the command, then its positionals and options in any order,
    each option spelled in full with a value it takes as the next word, and
    no other word starting with `-`."""
    found = {f: default for f, _, default in _GLOBAL.values()}
    options, positionals, command, taken = _GLOBAL, (), None, []
    words = iter(words)
    for w in words:
        if w in options:
            (field, check, _), value = options[w], next(words, "-")  # "-": none left
            if value[:1] == "-":
                return None
            if check is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif check and value not in check:
                return None
            found[field] = value
        elif w[:1] == "-" or command is None and w not in _COMMANDS:
            return None
        elif command is None:
            command, (handler, positionals, options) = w, _COMMANDS[w]
            found.update((f, default) for f, _, default in options.values())
        else:
            taken.append(w)
    for k, (field, choices) in enumerate(positionals):
        if k == len(taken) or choices and taken[k] not in choices:
            return None
        found[field] = taken[k:] if field == "files" else taken[k]
    if command is None or ... in found.values() or (
            len(taken) > len(positionals) and "files" not in found):
        return None
    return SimpleNamespace(command=command, func=handler, **found)


@functools.cache
def _parser():
    """The argparse parser of the table, for every line that is not plain."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # a command's parser too names gamecat
            self.print_usage(sys.stderr)
            self.exit(2, f"gamecat: error: {message}\n")

        def _print_message(self, message, file=None):  # argparse's own drops an OSError
            file.write(message)

    top = Parser(prog="gamecat")
    commands = top.add_subparsers(dest="command", required=True)
    levels = [(top, (), _GLOBAL)]
    for command, (handler, positionals, options) in _COMMANDS.items():
        parser = commands.add_parser(command)
        parser.set_defaults(func=handler)
        levels.append((parser, positionals, options))
    for parser, positionals, options in levels:
        for field, choices in positionals:
            parser.add_argument(field, choices=choices, nargs="+" if field == "files" else None)
        for name, (field, check, default) in options.items():
            parser.add_argument(name, dest=field, type=check if check is int else None,
                                choices=None if check is int else check, required=default is ...,
                                default=None if default is ... else default)
    return top


def _read_args(words):
    """The command line as the handlers read it: a plain line from
    _plain_args, any other from argparse, which prints help, or usage and
    `gamecat: error: ...`, and exits; so does a value that only a dropped
    `--` gave, which argparse hands on as [] (`iso a -- --`)."""
    args = _plain_args(words)
    if args is None:
        args = _parser().parse_args(words)
        for field, value in vars(args).items():
            if isinstance(value, list) and field != "files":
                _parser().error(f"argument {field}: expected one argument")
    return args


def main(argv=None) -> int:
    if sys.stdout is None:  # Python's stdout when descriptor 1 was closed at start
        return 2
    try:
        code = _main(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()  # so that a closed standard output shows here, not at exit
        return code
    except BrokenPipeError:  # dropped, the closed output is not flushed again at exit
        sys.stdout = None
        return 2


def _main(words) -> int:
    try:
        args = _read_args(words)
    except SystemExit as e:
        return e.code
    rep = _Report(args.format)
    try:
        return args.func(args, rep)
    except ParseError as e:
        rep.line("error", str(e))
        return 2
    except (ValidationError, OperationError) as e:
        rep.line("verdict", "invalid")
        rep.line("error", str(e))
        return 1
    except OSError as e:  # a file the OS refused: one code, the OS's reason as detail
        where = "" if e.filename is None else f": {e.filename!r}"
        rep.line("error", f"FileError ({e.strerror or e}{where})")
        return 2


if __name__ == "__main__":
    sys.exit(main())
