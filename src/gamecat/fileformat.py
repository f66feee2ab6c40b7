"""Line-oriented game (.gm) and morphism (.gmm) files.

One declaration per line; `#` outside a quoted atom starts a comment; blank
lines are ignored. Printing is canonical (sorted lines, canonical term
encodings), so printing is idempotent and parse/print round-trips.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ValidationError
from .game import Game, build_game
from .terms import Atom, TermReader, encode

# Everything before the first `#` that is outside a quoted atom.
_BEFORE_COMMENT = re.compile(r'(?:[^"#]|"(?:[^"\\]|\\.)*")*(?=#)')

# A rational: [+-]digits, optionally /digits, ending where the run of sign,
# slash and digit characters ends; any other such run is a bad token.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?(?![-+/0-9])|[-+/0-9]*")


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line.strip()
    m = _BEFORE_COMMENT.match(line)
    return (m.group(0) if m else line).strip()


def _keyword(r: TermReader, word: str) -> bool:
    """Consume word at the cursor when a blank, `{` or the line end follows."""
    r.skip_ws()
    end = r.pos + len(word)
    if r.text.startswith(word, r.pos) and r.text[end:end + 1] in ("", " ", "\t", "{"):
        r.pos = end
        return True
    return False


def _reader_words(line: str, atoms: dict):
    """Split a stripped line into the leading keyword and a TermReader for
    the rest."""
    head, _, rest = line.partition(" ")
    return head, TermReader(rest.strip(), atoms=atoms)


def _read_rational(r: TermReader, lineno: int) -> Fraction:
    r.skip_ws()
    m = _RATIONAL.match(r.text, r.pos)
    r.pos = m.end()
    num, den = m.group(1), int(m.group(2) or 1)
    if num is None or den == 0:
        raise ParseError(f"bad rational {m.group()!r}", line=lineno)
    return Fraction(int(num), den)


def _expect_end(r: TermReader, lineno: int):
    if not r.at_end():
        raise ParseError("trailing input", line=lineno)


def _read_braced(r: TermReader, lineno: int, read_term) -> frozenset:
    """A `{ term term ... }` member list, each member read by read_term."""
    r.skip_ws()
    if r.peek() != "{":
        raise ParseError("expected '{'", line=lineno)
    r.pos += 1
    members = []
    while True:
        r.skip_ws()
        if r.peek() == "}":
            r.pos += 1
            return frozenset(members)
        members.append(read_term(r))


def parse_game_text(text: str):
    """Returns (name, Game). Raises ParseError or a validation error."""
    name = None
    nodes: set = set()
    edges: dict = {}
    edge_lines: dict = {}  # (src, tgt) -> declaration line, for error reports
    cells: dict = {}       # infoset id (Term) -> frozenset of nodes
    cell_player: dict = {}  # infoset id -> player
    utilities: dict = {}
    # One object per distinct term, so lookups hit by identity: the readers
    # share one Atom per name, and compound terms are shared by value.
    atoms: dict = {}
    shared: dict = {}

    def term(r):
        t = r.read_term()
        return t if type(t) is Atom else shared.setdefault(t, t)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        head, r = _reader_words(line, atoms)
        try:
            if head == "game":
                name = r.text.strip()
                if not name:
                    raise ParseError("missing game name", line=lineno)
            elif head == "node":
                nodes.add(term(r))
                _expect_end(r, lineno)
            elif head == "edge":
                src = term(r)
                tgt = term(r)
                act = term(r)
                _expect_end(r, lineno)
                if (src, tgt) in edges:
                    raise ParseError("duplicate edge", line=lineno)
                edges[(src, tgt)] = act
                edge_lines[(src, tgt)] = lineno
            elif head == "infoset":
                ident = term(r)
                members = _read_braced(r, lineno, term)
                _expect_end(r, lineno)
                if ident in cells:
                    raise ParseError("duplicate infoset id", line=lineno)
                cells[ident] = members
            elif head == "player":
                pid = term(r)
                if not _keyword(r, "infoset"):
                    raise ParseError("expected 'infoset'", line=lineno)
                ident = term(r)
                _expect_end(r, lineno)
                if ident in cell_player:
                    raise ParseError("infoset assigned to two players", line=lineno)
                cell_player[ident] = pid
            elif head == "utility":
                pid = term(r)
                if _keyword(r, "end"):
                    where = term(r)
                elif _keyword(r, "run"):
                    where = _read_braced(r, lineno, term)
                else:
                    raise ParseError("expected 'end' or 'run'", line=lineno)
                value = _read_rational(r, lineno)
                _expect_end(r, lineno)
                utilities[(pid, where)] = value
            else:
                raise ParseError(f"unknown declaration {head!r}", line=lineno)
        except ParseError as e:
            if e.line is None:
                raise ParseError(e.detail, line=lineno) from None
            raise
    if name is None:
        raise ParseError("missing 'game' declaration", line=1)
    unassigned = [i for i in cells if i not in cell_player]
    if unassigned:
        raise ValidationError("MoverMissing", witness=min(unassigned),
                              detail="infoset has no player line")
    stray = [i for i in cell_player if i not in cells]
    if stray:
        raise ParseError(f"player line for unknown infoset {encode(min(stray))}")
    mover = {}
    for ident, cell in cells.items():
        for x in cell:
            mover[x] = cell_player[ident]
    try:
        game = build_game(nodes, edges, cells.values(), mover, utilities)
    except ValidationError as e:
        if e.code == "NonDeterministic" and isinstance(e.witness, tuple):
            x, a = e.witness
            where = sorted(line for (s, t), line in edge_lines.items()
                           if s == x and edges[(s, t)] == a)
            if where:
                raise ValidationError(e.code, e.witness,
                                      detail=f"line {where[-1]}") from None
        raise
    return name, game


def print_game(name: str, g: Game) -> str:
    lines = [f"game {name}"]
    for x in sorted(g.tree.nodes):
        lines.append(f"node {encode(x)}")
    for (x, y) in sorted(g.tree.edges):
        lines.append(f"edge {encode(x)} {encode(y)} {encode(g.clt.label[(x, y)])}")
    cells = g.clt.sorted_infosets()
    ids = {cell: f"i{k}" for k, cell in enumerate(cells)}
    for cell in cells:
        members = " ".join(encode(x) for x in sorted(cell))
        lines.append(f"infoset {ids[cell]} {{ {members} }}")
    for cell in cells:
        pid = g.mover[next(iter(cell))]
        lines.append(f"player {encode(pid)} infoset {ids[cell]}")
    for (i, end) in sorted(g.utilities):
        lines.append(f"utility {encode(i)} end {encode(end)} {g.utilities[(i, end)]}")
    return "\n".join(lines) + "\n"


def parse_morphism_text(text: str):
    """Returns (name, source_path, target_path, node_map dict)."""
    name = None
    source = None
    target = None
    node_map: dict = {}
    atoms: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        head, r = _reader_words(line, atoms)
        if head == "morphism":
            name = r.text.strip()
        elif head == "source":
            source = r.text.strip()
        elif head == "target":
            target = r.text.strip()
        elif head == "map":
            src = r.read_term()
            r.skip_ws()
            if not r.text.startswith("->", r.pos):
                raise ParseError("expected '->'", line=lineno)
            r.pos += 2
            tgt = r.read_term()
            _expect_end(r, lineno)
            if src in node_map:
                raise ParseError("duplicate map key", line=lineno)
            node_map[src] = tgt
        else:
            raise ParseError(f"unknown declaration {head!r}", line=lineno)
    if name is None:
        raise ParseError("missing 'morphism' declaration", line=1)
    if source is None or target is None:
        raise ParseError("missing 'source' or 'target' declaration", line=1)
    return name, source, target, node_map


def print_morphism(name: str, source: str, target: str, node_map: dict) -> str:
    lines = [f"morphism {name}", f"source {source}", f"target {target}"]
    for x in sorted(node_map):
        lines.append(f"map {encode(x)} -> {encode(node_map[x])}")
    return "\n".join(lines) + "\n"
