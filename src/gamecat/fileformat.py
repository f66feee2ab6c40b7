"""Line-oriented game (.gm) and morphism (.gmm) files.

One declaration per line; `#` outside a quoted atom starts a comment; blank
lines are ignored. Printing is canonical (sorted lines, canonical term
encodings), so printing is idempotent and parse/print round-trips.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count

from .errors import OperationError, ParseError, ValidationError
from .game import Game, build_game
from .terms import _ATOMS, _BARE_ATOM, _END, _TOKENS, Atom, _read_tokens, _sorted, encode
from .tree import _run

# Everything before the first `#` that is outside a quoted atom.
_BEFORE_COMMENT = re.compile(r'(?:[^"#]|"(?:[^"\\]|\\.)*")*(?=#)')

# A rational: [+-]digits, optionally /digits, ending where the run of sign,
# slash and digit characters ends; any other such run is a bad token.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?(?![-+/0-9])|[-+/0-9]*")

# A declaration line whose terms are all bare atoms, read by one match whose
# last group is named for its keyword; other lines, bad ones too, are tokenised.
_W = _BARE_ATOM.pattern
_GM_LINE = re.compile(  # groups: node 1, edge 2-4, infoset 5-6, player 7-8, utility 9-13
    rf"node[ \t]+(?P<node>{_W})"
    rf"|edge[ \t]+({_W})[ \t]+({_W})[ \t]+(?P<edge>{_W})"
    rf"|infoset[ \t]+({_W})[ \t]*\{{[ \t]*(?P<infoset>(?:{_W}(?:[ \t]+{_W})*)?)[ \t]*\}}"
    rf"|player[ \t]+({_W})[ \t]+infoset[ \t]+(?P<player>{_W})"
    rf"|utility[ \t]+({_W})[ \t]+end[ \t]+({_W})[ \t]+(?P<utility>([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?)")
_GMM_LINE = re.compile(rf"map[ \t]+({_W})[ \t]+->[ \t]*(?P<map>{_W})")


def _word_at(toks, k: int) -> str:
    """The bare word at token k when a blank, `{` or the line end follows
    it, as a keyword must stand; else ""."""
    word = toks[k][1]
    if word:
        b, _, o = toks[k + 1]
        if b or o == "" or o == "{":
            return word
    return ""


def _members(toks, k: int):
    """A `{ term term ... }` member list at token k, and the index after it."""
    if toks[k][2] != "{":
        raise ParseError("expected '{'")
    k += 1
    members = []
    while toks[k][2] != "}":
        x, k = _read_tokens(toks, k)
        members.append(x)
    return frozenset(members), k + 1


def _fraction(num: str, den) -> Fraction:
    """num/den from digit strings, den None for 1; past int()'s digit limit a ParseError."""
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError:
        raise ParseError("rational has too many digits to read") from None


def _read_rational(toks) -> Fraction:
    """The rational that the tokens spell, which must be all of them."""
    text = "".join(["".join(t) for t in toks])
    m = _RATIONAL.match(text, len(toks[0][0]))
    num, den = m.group(1), m.group(2)
    if num is None or den is not None and not den.strip("0"):
        raise ParseError(f"bad rational {m.group()!r}")
    if m.end() < len(text):
        raise ParseError("trailing input")
    return _fraction(num, den)


def _lines(text: str, bare):
    """(line number, keyword, rest, match, tokens) for each line that is not
    blank once its comment is stripped: for a line that bare matches whole
    (all lines are stripped and matched in C), its keyword and match; else
    the keyword up to the first space or tab, the rest less leading
    whitespace, and its tokens, ending in one _END."""
    lines = list(map(str.strip, text.splitlines()))
    for lineno, line, m in zip(count(1), lines, map(bare.fullmatch, lines)):
        if m:
            yield lineno, m.lastgroup, None, m, None
            continue
        if "#" in line:
            c = _BEFORE_COMMENT.match(line)
            line = c.group(0).rstrip() if c else line
        if line:
            head, _, rest = line.partition(" ")
            if "\t" in head:
                head, _, rest = line.partition("\t")
            rest = rest.lstrip()
            toks = _TOKENS.findall(rest)
            toks.append(_END)
            yield lineno, head, rest, None, toks


def parse_game_text(text: str):
    """Returns (name, Game). Raises ParseError or a validation error."""
    name = None
    nodes: set = set()
    edges: dict = {}
    edge_lines: list = []  # each edge's declaration line, in edges' order, for error reports
    cells: dict = {}       # infoset id (Term) -> frozenset of nodes
    cell_player: dict = {}  # infoset id -> player
    utilities: list = []   # ((player, end or run), value) for each utility line
    utility_lines: list = []  # each utility's line, in utilities' order
    atom = _ATOMS.get

    # Keywords are tested most frequent first.
    for lineno, head, rest, m, toks in _lines(text, _GM_LINE):
        # A tokenised line is read to its end when only _END is left.
        try:
            if head == "node":
                if m:
                    x = atom(m[1]) or Atom(m[1])
                else:
                    x, k = _read_tokens(toks, 0)
                    if k + 1 < len(toks):
                        raise ParseError("trailing input")
                nodes.add(x)
            elif head == "edge":
                if m:
                    s, t, a = m.group(2, 3, 4)
                    src = atom(s) or Atom(s)
                    tgt = atom(t) or Atom(t)
                    act = atom(a) or Atom(a)
                else:
                    src, k = _read_tokens(toks, 0)
                    tgt, k = _read_tokens(toks, k)
                    act, k = _read_tokens(toks, k)
                    if k + 1 < len(toks):
                        raise ParseError("trailing input")
                key = (src, tgt)
                if key in edges:
                    raise ParseError("duplicate edge")
                edges[key] = act
                edge_lines.append(lineno)
            elif head == "utility":
                if m:
                    p, e, num, den = m.group(9, 10, 12, 13)
                    pid = atom(p) or Atom(p)
                    where = atom(e) or Atom(e)
                    value = _fraction(num, den)
                else:
                    pid, k = _read_tokens(toks, 0)
                    word = _word_at(toks, k)
                    if word == "end":
                        where, k = _read_tokens(toks, k + 1)
                    elif word == "run":
                        where, k = _members(toks, k + 1)
                    else:
                        raise ParseError("expected 'end' or 'run'")
                    value = _read_rational(toks[k:])
                utilities.append(((pid, where), value))
                utility_lines.append(lineno)
            elif head == "infoset":
                if m:
                    i, ws = m.group(5, 6)
                    ident = atom(i) or Atom(i)
                    members = frozenset([atom(w) or Atom(w) for w in ws.split()])
                else:
                    ident, k = _read_tokens(toks, 0)
                    members, k = _members(toks, k)
                    if k + 1 < len(toks):
                        raise ParseError("trailing input")
                if ident in cells:
                    raise ParseError("duplicate infoset id")
                cells[ident] = members
            elif head == "player":
                if m:
                    p, i = m.group(7, 8)
                    pid = atom(p) or Atom(p)
                    ident = atom(i) or Atom(i)
                else:
                    pid, k = _read_tokens(toks, 0)
                    if _word_at(toks, k) != "infoset":
                        raise ParseError("expected 'infoset'")
                    ident, k = _read_tokens(toks, k + 1)
                    if k + 1 < len(toks):
                        raise ParseError("trailing input")
                if ident in cell_player:
                    raise ParseError("infoset assigned to two players")
                cell_player[ident] = pid
            elif head == "game":
                name = rest
                if not name:
                    raise ParseError("missing game name")
            else:
                raise ParseError(f"unknown declaration {head!r}")
        except ParseError as e:
            raise ParseError(e.detail, line=lineno) from None
    if name is None:
        raise ParseError("missing 'game' declaration", line=1)
    unassigned = [i for i in cells if i not in cell_player]
    if unassigned:
        raise ValidationError("MoverMissing", witness=min(unassigned),
                              detail="infoset has no player line")
    stray = [i for i in cell_player if i not in cells]
    if stray:
        raise ParseError(f"player line for unknown infoset {encode(min(stray))}")
    mover = {x: cell_player[ident] for ident, cell in cells.items() for x in cell}
    try:
        game = build_game(nodes, edges, cells.values(), mover, utilities)
    except ValidationError as e:
        if e.code == "NonDeterministic" and isinstance(e.witness, tuple):
            x, a = e.witness
            where = [line for ((s, _), b), line in zip(edges.items(), edge_lines)
                     if s == x and b == a]
            if where:
                raise ValidationError(e.code, e.witness,
                                      detail=f"line {where[-1]}") from None
        if e.code == "UtilityConflict":
            # The keys are validated in line order and all before the
            # conflicting one are valid: it is the first of the run's keys
            # whose value differs from the first's.
            i, run = e.witness
            held = [(v, line) for ((j, where), v), line in zip(utilities, utility_lines)
                    if j == i and (where == run or where in run)]
            line = next(line for v, line in held if v != held[0][0])
            raise ValidationError(e.code, e.witness, detail=f"line {line}") from None
        raise
    return name, game


def print_game(name: str, g: Game) -> str:
    t, cells = g.tree, g.clt.cells
    lines = [f"game {name}", *[f"node {encode(x)}" for x in t.sorted_nodes]]
    lines += [f"edge {encode(x)} {encode(y)} {encode(g.clt.act[y])}"
              for x in t.sorted_nodes for y in t.children[x]]
    lines += [f"infoset i{k} {{ {' '.join([encode(x) for x in _sorted(cell)])} }}"
              for k, cell in enumerate(cells)]
    lines += [f"player {encode(g.mover[next(iter(cell))])} infoset i{k}"
              for k, cell in enumerate(cells)]
    ends = [x for x in t.sorted_nodes if x in t.end_nodes]
    try:
        for i in _sorted(g.players):
            table = g.payoffs[i]
            for end in ends:
                lines.append(f"utility {encode(i)} end {encode(end)} {table[end]}")
    except ValueError:  # str() of a value past the interpreter's digit limit
        raise OperationError("UtilityTooLong", witness=(i, _run(t, end))) from None
    return "\n".join(lines) + "\n"


def parse_morphism_text(text: str):
    """Returns (name, source_path, target_path, node_map dict)."""
    name = source = target = None
    node_map: dict = {}
    for lineno, head, rest, m, toks in _lines(text, _GMM_LINE):
        try:
            if head == "morphism":
                name = rest
            elif head == "source":
                source = rest
            elif head == "target":
                target = rest
            elif head == "map":
                if m:
                    src, tgt = [_ATOMS.get(w) or Atom(w) for w in m.group(1, 2)]
                else:
                    src, k = _read_tokens(toks, 0)
                    if toks[k][1] != "-" or toks[k + 1] != ("", "", ">"):
                        raise ParseError("expected '->'")
                    tgt, k = _read_tokens(toks, k + 2)
                    if k + 1 < len(toks):
                        raise ParseError("trailing input")
                if src in node_map:
                    raise ParseError("duplicate map key")
                node_map[src] = tgt
            else:
                raise ParseError(f"unknown declaration {head!r}")
        except ParseError as e:
            raise ParseError(e.detail, line=lineno) from None
    if name is None:
        raise ParseError("missing 'morphism' declaration", line=1)
    if source is None or target is None:
        raise ParseError("missing 'source' or 'target' declaration", line=1)
    return name, source, target, node_map


def print_morphism(name: str, source: str, target: str, node_map: dict, keys=None) -> str:
    """keys, when given, are node_map's keys in term order."""
    lines = [f"morphism {name}", f"source {source}", f"target {target}"]
    for x in _sorted(node_map) if keys is None else keys:
        lines.append(f"map {encode(x)} -> {encode(node_map[x])}")
    return "\n".join(lines) + "\n"
