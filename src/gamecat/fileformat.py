"""Line-oriented game (.gm) and morphism (.gmm) files.

One declaration per line; `#` outside a quoted atom starts a comment; blank
lines are ignored. Printing is canonical (sorted lines, canonical term
encodings), so printing is idempotent and parse/print round-trips; a game or
morphism name that would not read back is not printed (UnprintableName).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from itertools import count

from .clt import _laid_out
from .errors import OperationError, ParseError, ValidationError
from .game import Game, _game, build_game
from .terms import (_ATOMS, _BARE_ATOM, _END, _LINE_BREAK, _OPEN_QUOTED, _QUOTED, _TOKENS, Atom,
                    _quote, _read_tokens, _sorted, _unquote, encode)
from .tree import _out_tree, _run

# Everything before the first `#` that is outside a quoted atom.
_BEFORE_COMMENT = re.compile(rf'(?:[^"#]|{_OPEN_QUOTED}")*(?=#)')

# A rational: [+-]digits, optionally / and digits not all 0. _RATIONAL's
# group 1 is one that ends where the run of sign, slash and digit
# characters ends; any other such run is a bad token.
_Q = r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?"
_RATIONAL = re.compile(rf"({_Q})(?![-+/0-9])|[-+/0-9]*")

# The bare-atom grammar of each declaration kind, written once: the block
# reader checks every line of a file against it by one search.
_W = _BARE_ATOM.pattern
_GM_KINDS = {
    "node": rf"node[ \t]+{_W}",
    "edge": rf"edge[ \t]+{_W}[ \t]+{_W}[ \t]+{_W}",
    "infoset": rf"infoset[ \t]+{_W}[ \t]*\{{[ \t]*(?:{_W}(?:[ \t]+{_W})*)?[ \t]*\}}",
    "player": rf"player[ \t]+{_W}[ \t]+infoset[ \t]+{_W}",
    "utility": rf"utility[ \t]+{_W}[ \t]+end[ \t]+{_W}[ \t]+{_Q}",
}
_GMM_KINDS = {"map": rf"map[ \t]+{_W}[ \t]+->[ \t]*{_W}"}


def _plain_lines(heads: tuple, kinds: dict):
    """A pattern that finds, in lines each put after a "\n", the first that
    is not plain: a whole-line comment, a head line (a keyword in heads and
    a rest with no `#` or `"`) or a bare-atom line of kinds. Its search
    steps from "\n" to "\n" in C, keeps nothing from line to line and stops
    at the first other line."""
    heads = [rf'{h}[ \t][^#"\n]*' for h in heads]
    return re.compile(r"\n(?!(?:" + "|".join(["#.*", *heads, *kinds.values()]) + r")(?:\n|\Z))")


def _block_spec(heads: tuple, kinds: dict) -> tuple:
    """_blocks' arguments for a format: its plain-line pattern, its heads,
    and for each keyword the bounds between which its sorted lines lie."""
    return _plain_lines(heads, kinds), heads, tuple((k, k + "\t", k + "!") for k in (*heads, *kinds))


_GM_BLOCKS = _block_spec(("game",), _GM_KINDS)
_GMM_BLOCKS = _block_spec(("morphism", "source", "target"), _GMM_KINDS)


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


def _fraction(num: str, den=None) -> Fraction:
    """num/den from digit strings, den None for 1; past int()'s digit limit a ParseError."""
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ValueError:
        raise ParseError("rational has too many digits to read") from None


def _read_rational(toks) -> Fraction:
    """The rational that the tokens spell, which must be all of them."""
    text = "".join(["".join(t) for t in toks])
    m = _RATIONAL.match(text, len(toks[0][0]))
    if m[1] is None:
        raise ParseError(f"bad rational {m[0]!r}")
    if m.end() < len(text):
        raise ParseError("trailing input")
    return _fraction(*m[1].split("/"))


def _lines(text: str):
    """(line number, keyword, rest, tokens) for each line that is not blank
    once stripped and its comment removed: the keyword up to the first space
    or tab, the rest less leading whitespace, and its tokens, ending in one
    _END."""
    for lineno, line in zip(count(1), map(str.strip, text.splitlines())):
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
            yield lineno, head, rest, toks


def _atoms(names: list) -> list:
    """The atoms so named, looked up in C; only names not met before are built."""
    xs = list(map(_ATOMS.get, names))
    if all(xs):
        return xs
    # New names are built once each, in the order met. A block's names are
    # sorted, which the validator's node sort reuses, and a set of atoms
    # iterates about in the order they were built (an atom's hash is its address).
    for name in dict.fromkeys(names):
        if name not in _ATOMS:
            Atom(name)
    return list(map(_ATOMS.get, names))


def _blocks(text: str, plain, heads: tuple, bounds: tuple):
    """For a text of plain lines (see _plain_lines) with one line of each
    head: each keyword's lines joined by "\n"; else None. The lines are
    stripped and sorted, so each keyword's lines form one block."""
    lines = ["", *filter(None, map(str.strip, text.splitlines()))]  # "" puts a "\n" first
    if plain.search("\n".join(lines)):
        return None
    lines.sort()
    b = {k: "\n".join(lines[bisect_left(lines, lo):bisect_left(lines, hi)]) for k, lo, hi in bounds}
    for h in heads:
        if not b[h] or "\n" in b[h]:
            return None
    return b


def _game_blocks(text: str):
    """(name, Game) for a text of plain declarations that the line reader
    reads without error; None for any other text, which is left to it.
    Line order decides only which error the line reader reports, so the game
    read from the sorted blocks, as the parent and action maps, cells, mover
    and payoff tables that the validators' cores decide on, is the one it reads."""
    b = _blocks(text, *_GM_BLOCKS)
    if b is None:
        return None
    nodes = _atoms(b["node"].split()[1::2])  # in text order, which for bare names is term order
    w = b["edge"].split()
    targets = _atoms(w[2::4])
    pred, act = dict(zip(targets, _atoms(w[1::4]))), dict(zip(targets, _atoms(w[3::4])))
    # Each line is "infoset id {" members "}": split at the braces, the
    # pieces alternate between the two (and one empty piece ends them).
    parts = b["infoset"].replace("{", "}").split("}")
    members = parts[1::2]
    _atoms(" ".join(members).split())  # so that get finds every member
    get = _ATOMS.get
    cells = dict(zip(_atoms(" ".join(parts[::2]).split()[1::2]),
                     [frozenset(map(get, ws.split())) for ws in members]))
    w = b["utility"].split()
    texts = w[4::5]
    try:  # one Fraction per distinct value text
        value = {v: _fraction(*v.split("/")) for v in set(texts)}
    except ParseError:  # past int()'s digit limit
        return None
    payoffs: dict = {}
    for i, end, v in zip(_atoms(w[1::5]), _atoms(w[3::5]), map(value.__getitem__, texts)):
        payoffs.setdefault(i, {})[end] = v
    w = b["player"].split()
    cell_player = dict(zip(_atoms(w[3::4]), _atoms(w[1::4])))
    # A key twice (an edge's target, an infoset id, a player line's infoset, a utility's
    # player and end) and a player line for no infoset or none for one are the line reader's.
    if (len(pred) < len(targets) or len(cells) < len(members) or len(cell_player) < len(w) // 4
            or sum(map(len, payoffs.values())) < len(texts) or cell_player.keys() != cells.keys()):
        return None
    mover = {x: cell_player[ident] for ident, cell in cells.items() for x in cell}
    name = b["game"][5:].strip()
    del b, w, texts, parts, members  # the text's pieces, freed before the game is built
    try:
        tree = _out_tree(dict.fromkeys(nodes), pred)
        game = None if tree is None else _game(_laid_out(tree, cells.values(), act), mover, payoffs)
    except ValidationError:
        return None
    return None if game is None else (name, game)


def parse_game_text(text: str):
    """Returns (name, Game). Raises ParseError or a validation error."""
    read = _game_blocks(text)
    if read is not None:
        return read
    name = None
    nodes: set = set()
    edges: dict = {}
    edge_lines: list = []  # each edge's declaration line, in edges' order, for error reports
    cells: dict = {}       # infoset id (Term) -> frozenset of nodes
    cell_player: dict = {}  # infoset id -> player
    utilities: list = []   # ((player, end or run), value) for each utility line
    utility_lines: list = []  # each utility's line, in utilities' order

    # Keywords are tested most frequent first.
    for lineno, head, rest, toks in _lines(text):
        # A line is read to its end when only _END is left.
        try:
            if head == "node":
                x, k = _read_tokens(toks, 0)
                if k + 1 < len(toks):
                    raise ParseError("trailing input")
                nodes.add(x)
            elif head == "edge":
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
                ident, k = _read_tokens(toks, 0)
                members, k = _members(toks, k)
                if k + 1 < len(toks):
                    raise ParseError("trailing input")
                if ident in cells:
                    raise ParseError("duplicate infoset id")
                cells[ident] = members
            elif head == "player":
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
        if e.code == "NonDeterministic":  # the witness is (x, a): x has two a-edges
            line = max(n for ((x, _), a), n in zip(edges.items(), edge_lines) if (x, a) == e.witness)
            raise ValidationError(e.code, e.witness, detail=f"line {line}") from None
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


def _head_line(head: str, name: str) -> str:
    """The `head name` line; OperationError UnprintableName unless it reads back
    as name: one line, no blank at either end or `#` outside quotes, nonempty for a game."""
    if (name != name.strip() or _LINE_BREAK.search(name) or not name and head == "game"
            or "#" in name and _BEFORE_COMMENT.match(name)):
        raise OperationError("UnprintableName", detail=name)
    return f"{head} {name}"


def print_game(name: str, g: Game) -> str:
    t, cells = g.tree, g.clt.cells
    lines = [_head_line("game", name), *[f"node {encode(x)}" for x in t.sorted_nodes]]
    lines += [f"edge {encode(x)} {encode(y)} {encode(g.clt.act[y])}"
              for x in t.sorted_nodes for y in t.children[x]]
    lines += [f"infoset i{k} {{ {' '.join([encode(x) for x in _sorted(cell)])} }}"
              for k, cell in enumerate(cells)]
    lines += [f"player {encode(g.mover[next(iter(cell))])} infoset i{k}"
              for k, cell in enumerate(cells)]
    ends = [x for x in t.sorted_nodes if x in t.end_nodes]
    texts: dict = {}  # by id, as Fractions hash in Python; a read game shares equal values
    try:
        for i in _sorted(g.players):
            table, who = g.payoffs[i], encode(i)
            for end in ends:
                v = table[end]
                text = texts.get(id(v)) or texts.setdefault(id(v), str(v))
                lines.append(f"utility {who} end {encode(end)} {text}")
    except ValueError:  # str() of a value past the interpreter's digit limit
        raise OperationError("UtilityTooLong", witness=(i, _run(t, end))) from None
    return "\n".join(lines) + "\n"


def _morphism_blocks(text: str):
    """parse_morphism_text's result for a text of plain declarations with
    no map key repeated; None for any other text, which is left to the line
    reader."""
    b = _blocks(text, *_GMM_BLOCKS)
    if b is None:
        return None
    w = b["map"].replace("->", " ").split()
    node_map = dict(zip(_atoms(w[1::3]), _atoms(w[2::3])))
    if len(node_map) != len(w) // 3:
        return None
    return b["morphism"][9:].strip(), b["source"][7:].strip(), b["target"][7:].strip(), node_map


def _file_ref(rest: str) -> str:
    """A source or target line's file: the text of a line that is one
    quoted atom, else the line as written."""
    if rest[:1] == '"' and _QUOTED.fullmatch(rest):
        name, off = _unquote(rest)
        if off is not None:
            raise ParseError(name)
        return name
    return rest


def parse_morphism_text(text: str):
    """Returns (name, source_path, target_path, node_map dict)."""
    read = _morphism_blocks(text)
    if read is not None:
        return read
    name = source = target = None
    node_map: dict = {}
    for lineno, head, rest, toks in _lines(text):
        try:
            if head == "morphism":
                name = rest
            elif head == "source":
                source = _file_ref(rest)
            elif head == "target":
                target = _file_ref(rest)
            elif head == "map":
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


def _print_ref(path: str) -> str:
    """path as a source or target line writes it: quoted when the line,
    read back, would not give it (a `#`, a leading quote, a line break, or
    leading or trailing blanks). A ParseError for a path that is not UTF-8,
    which Python reads with its bad bytes as lone surrogates."""
    try:
        path.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(f"{path!r} is not UTF-8") from None
    if "#" in path or path[:1] == '"' or path != path.strip() or _LINE_BREAK.search(path):
        return _quote(path)
    return path


def print_morphism(name: str, source: str, target: str, node_map: dict, keys=None) -> str:
    """keys, when given, are node_map's keys in term order."""
    lines = [_head_line("morphism", name),
             f"source {_print_ref(source)}", f"target {_print_ref(target)}"]
    for x in _sorted(node_map) if keys is None else keys:
        lines.append(f"map {encode(x)} -> {encode(node_map[x])}")
    return "\n".join(lines) + "\n"
