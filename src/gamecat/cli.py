"""Command-line surface.

Exit codes: 0 for success / true verdicts, 1 for false verdicts (invalid
game, invalid morphism, no isomorphism, no subgame) and for an output name
that would not read back (UnprintableName: every text is built before any
output), 2 for usage or syntax errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .canon import (properties, to_action_set, to_distinguished,
                    to_distinguished_sequence, to_sequence)
from .equilibrium import nash, outcome, spe, strategies
from .errors import OperationError, ParseError, ValidationError
from .fileformat import (parse_game_text, parse_morphism_text, print_game,
                         print_morphism)
from .morphism import (_alpha_at, clt_mono_witness, compose, is_iso, is_mono,
                       iso_search, mono_witness, validate_game_morphism)
from .subgame import selten_subgame, subgame_roots
from .terms import _sorted, encode, encode_set, parse_term


class _Report:
    def __init__(self, fmt: str):
        self.machine = fmt == "machine"

    def line(self, key: str, *values):
        text = " ".join(map(str, values))
        if self.machine:
            sys.stdout.write(f"{key} {text}".rstrip() + "\n")
        else:
            sys.stdout.write(f"{key}: {text}\n" if text else key + "\n")


def _read_text(path: str) -> str:
    try:
        fh = open(path, encoding="utf-8")
    except ValueError as e:  # a NUL character in the path
        raise ParseError(f"cannot open {path!r}: {e}") from None
    with fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8: bad byte at offset {e.start}") from None


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
    # realpath raises on a NUL, which _read_text reports as a coded error.
    if "\0" not in tgt_path and os.path.realpath(tgt_path) == os.path.realpath(src_path):
        return name, src, src, node_map
    _, tgt = _load_game(tgt_path)
    return name, src, tgt, node_map


def _strategy_str(prefixes, s):
    return " ".join([prefixes[cell] + encode(a) for cell, a in s.choices])


def _cmd_validate(args, rep):
    name, g = _load_game(args.game)
    rep.line("game", name)
    rep.line("nodes", len(g.tree.nodes))
    rep.line("root", encode(g.tree.root))
    rep.line("actions", " ".join(encode(a) for a in _sorted(set(g.clt.act.values()))))
    rep.line("players", " ".join(encode(i) for i in _sorted(g.players)))
    for z in g.runs():
        rep.line("run", encode_set(z))
    return 0


def _cmd_props(args, rep):
    _, g = _load_game(args.game)
    p = properties(g)
    for f in dataclasses.fields(p):
        rep.line(f.name, str(getattr(p, f.name)).lower())
    return 0


def _cmd_strategies(args, rep):
    """strategies, nash or spe: each cell's "<encoding>=" is built once."""
    _, g = _load_game(args.game)
    prefixes = {cell: encode_set(cell) + "=" for cell in g.clt.cells}
    solver = {"strategies": strategies, "nash": nash, "spe": spe}[args.command]
    for s in solver(g, args.max_strategies):
        if solver is strategies:
            rep.line("strategy", _strategy_str(prefixes, s), "outcome", encode_set(outcome(g, s)))
        else:
            rep.line(args.command, _strategy_str(prefixes, s))
    return 0


def _cmd_subgames(args, rep):
    _, g = _load_game(args.game)
    for r in _sorted(subgame_roots(g)):
        rep.line("subgame_root", encode(r))
    return 0


def _cmd_subgame(args, rep):
    name, g = _load_game(args.game)
    at = parse_term(args.at)
    res = selten_subgame(g, at)
    text = print_game(f"{name}.at.{encode(at)}", res.subgame)
    rep.line("root", encode(res.root))
    rep.line("nodes", len(res.subgame.tree.nodes))
    sys.stdout.write(text)
    return 0


_CONVERTERS = {
    "distinguished": to_distinguished,
    "sequence": to_sequence,
    "action-set": to_action_set,
    "distinguished-sequence": to_distinguished_sequence,
}


def _cmd_convert(args, rep):
    name, g = _load_game(args.game)
    result = _CONVERTERS[args.to](g)
    stem, _ = os.path.splitext(args.game)
    out_game = f"{stem}.{args.to}.gm"
    out_morph = f"{stem}.{args.to}.gmm"
    # The certificate, the shorter text, is built first and held while the game's is.
    texts = {out_morph: print_morphism(f"{name}.to.{args.to}",
                                       os.path.basename(args.game), os.path.basename(out_game),
                                       result.certificate.node_map, g.tree.sorted_nodes),
             out_game: print_game(f"{name}.{args.to}", result.game)}
    for path, text in texts.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    rep.line("game_file", out_game)
    rep.line("morphism_file", out_morph)
    return 0


def _check_morphism(path, rep, classify=False):
    _, src, tgt, node_map = _load_morphism(path)
    try:
        gm = validate_game_morphism(src, tgt, node_map)
    except (ValidationError, OperationError) as e:
        rep.line("verdict", "invalid")
        rep.line("error", str(e))
        if e.code == "ActionTransformNotConstant":
            for x in e.witness:
                for a, image in _alpha_at(src.clt, tgt.clt, node_map, x).items():
                    rep.line("alpha", encode(x), encode(a), "->", encode(image))
        return 1
    rep.line("verdict", "valid")
    for cell, table in gm.clt_morphism.alpha.items():  # in encoding order
        for a, image in table.items():  # in term order
            rep.line("alpha", encode_set(cell), encode(a), "->", encode(image))
    for z, image in gm.zeta.items():
        rep.line("zeta", encode_set(z), "->", encode_set(image))
    for i in _sorted(gm.iota):
        rep.line("iota", encode(i), "->", encode(gm.iota[i]))
    if classify:
        for key, verdict in (("mono", is_mono(gm)), ("iso", is_iso(gm))):
            rep.line(key, str(verdict).lower())
        for key, w in (("mono_witness", mono_witness(gm)),
                       ("clt_mono_witness", clt_mono_witness(gm.clt_morphism))):
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
    m1 = validate_game_morphism(s1, t1, map1)
    m2 = validate_game_morphism(s2, t2, map2)
    m = compose(m2, m1)
    for x in m.source.tree.sorted_nodes:
        rep.line("map", encode(x), "->", encode(m.node_map[x]))
    return 0


def _cmd_iso(args, rep):
    name1, g1 = _load_game(args.game1)
    name2, g2 = _load_game(args.game2)
    m = iso_search(g1, g2)
    if m is None:
        rep.line("verdict", "not-isomorphic")
        return 1
    if args.emit_morphism:
        text = print_morphism(f"{name1}.iso.{name2}", os.path.abspath(args.game1),
                              os.path.abspath(args.game2), m.node_map, g1.tree.sorted_nodes)
    rep.line("verdict", "isomorphic")
    for x in g1.tree.sorted_nodes:
        rep.line("map", encode(x), "->", encode(m.node_map[x]))
    if args.emit_morphism:
        with open(args.emit_morphism, "w", encoding="utf-8") as fh:
            fh.write(text)
        rep.line("morphism_file", args.emit_morphism)
    return 0


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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
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
    except OSError as e:
        rep.line("error", str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
