import glob
import os
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gamecat import (Atom, OperationError, ParseError, ValidationError, build_game, encode,
                     parse_game_text, parse_morphism_text, parse_term,
                     print_game, print_morphism, pushforward)
from gamecat.fileformat import _game_blocks
from gamecat.terms import FinSet, Tup
from conftest import FIXTURES
from examplegames import A, trio_a
from genrandom import fields, random_game


def all_game_fixtures():
    return sorted(glob.glob(os.path.join(FIXTURES, "*.gm")))


def all_morphism_fixtures():
    return sorted(glob.glob(os.path.join(FIXTURES, "*.gmm")))


def test_fixture_inventory():
    assert len(all_game_fixtures()) >= 20
    assert len(all_morphism_fixtures()) >= 10


@pytest.mark.parametrize("path", all_game_fixtures())
def test_game_print_parse_round_trip(path):
    text = open(path, encoding="utf-8").read()
    name, g = parse_game_text(text)
    printed = print_game(name, g)
    name2, g2 = parse_game_text(printed)
    assert name2 == name
    assert g2 == g
    assert print_game(name2, g2) == printed


@pytest.mark.parametrize("path", all_morphism_fixtures())
def test_morphism_print_parse_round_trip(path):
    text = open(path, encoding="utf-8").read()
    name, src, tgt, node_map = parse_morphism_text(text)
    printed = print_morphism(name, src, tgt, node_map)
    assert parse_morphism_text(printed) == (name, src, tgt, node_map)
    name2, src2, tgt2, node_map2 = parse_morphism_text(printed)
    assert print_morphism(name2, src2, tgt2, node_map2) == printed


def test_parsed_fixture_matches_builder():
    path = os.path.join(FIXTURES, "trio_a.gm")
    _, g = parse_game_text(open(path, encoding="utf-8").read())
    assert g == trio_a()
    assert len(g.tree.nodes) == 9
    assert len(g.clt.infosets) == 3
    assert len(g.players) == 3
    assert len(g.runs()) == 5


def test_comments_and_blank_lines_are_ignored():
    base = print_game("tiny", trio_a())
    text = "# header\n\n" + base.replace("game tiny", "game tiny # trailing")
    name, g = parse_game_text(text)
    assert name == "tiny"
    assert g == trio_a()


def test_run_keyed_utilities_parse():
    text = """game t
node 0
node 1
node 2
edge 0 1 a
edge 0 2 b
infoset i0 { 0 }
player P1 infoset i0
utility P1 run { 0 1 } 1/2
utility P1 end 2 -3
"""
    _, g = parse_game_text(text)
    from fractions import Fraction
    assert g.utilities[(A("P1"), A(1))] == Fraction(1, 2)
    assert g.utilities[(A("P1"), A(2))] == Fraction(-3)


RUN_KEYED_TUPLES = """game t
node (0)
node (0,a)
node (0,b)
edge (0) (0,a) a
edge (0) (0,b) b
infoset i0 { (0) }
player P1 infoset i0
utility P1 run { (0) (0,a) } 1
utility P1 end (0,b) 0
"""


@pytest.mark.parametrize("path", all_game_fixtures() + [None])
def test_parsed_games_share_one_object_per_term(path):
    text = RUN_KEYED_TUPLES if path is None else open(path, encoding="utf-8").read()
    _, g = parse_game_text(text)
    node = {x: x for x in g.tree.nodes}
    uses = ([x for edge in g.tree.edges for x in edge] + list(g.mover)
            + [end for _, end in g.utilities])
    assert all(x is node[x] for x in uses)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_game_text("game t\nnode (0\n")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_game_text("game t\nfrobnicate x\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        parse_game_text("node 0\n")  # missing game declaration


def test_duplicate_labels_report_the_offending_line():
    text = """game t
node 0
node 1
node 2
edge 0 1 a
edge 0 2 a
infoset i0 { 0 }
player P1 infoset i0
utility P1 end 1 0
utility P1 end 2 0
"""
    with pytest.raises(ValidationError) as e:
        parse_game_text(text)
    assert e.value.code == "NonDeterministic"
    assert "line 6" in e.value.detail


UTILITY_BASE = """game u
node r
node a
node b
edge r a x
edge r b y
infoset i { r }
player P infoset i
utility P end a 1
utility P end b 0
"""


@pytest.mark.parametrize("later", ["utility P end a 2", "utility P run { r a } 2"])
def test_a_second_value_for_one_run_is_a_conflict_naming_its_line(later):
    # An identical repeat in between is read again and agrees.
    text = UTILITY_BASE + "utility P end a 1\n" + later + "\n"
    with pytest.raises(ValidationError) as e:
        parse_game_text(text)
    run = frozenset({A("r"), A("a")})
    assert (e.value.code, e.value.witness) == ("UtilityConflict", (A("P"), run))
    assert e.value.detail == "line 12"
    assert _parsed(ref_parse_game_text, text) == _parsed(parse_game_text, text)


def test_repeated_utility_lines_with_one_value_are_read_again():
    text = UTILITY_BASE + "utility P end a 1\nutility P run { r a } 1\nutility P end a 1/1\n"
    _, g = parse_game_text(text)
    assert g.utility(A("P"), frozenset({A("r"), A("a")})) == 1
    assert _parsed(ref_parse_game_text, text) == _parsed(parse_game_text, text)


def test_infoset_without_player_line():
    text = """game t
node 0
node 1
edge 0 1 a
infoset i0 { 0 }
"""
    with pytest.raises(ValidationError) as e:
        parse_game_text(text)
    assert e.value.code == "MoverMissing"


RATIONAL_GAME = """game q
node 0
node 1
edge 0 1 a
infoset i0 { 0 }
player P1 infoset i0
utility P1 end 1 VALUE
"""


@pytest.mark.parametrize("token, value", [
    ("3", Fraction(3)), ("+3", Fraction(3)), ("-4/6", Fraction(-2, 3)),
    ("007/010", Fraction(7, 10)), ("-0", Fraction(0)),
])
def test_rationals_parse_exactly(token, value):
    _, g = parse_game_text(RATIONAL_GAME.replace("VALUE", token))
    assert g.utilities[(A("P1"), A(1))] == value


@pytest.mark.parametrize("token", ["1/0", "0/00", "1/-2", "3-", "--1", "1/2/3", "+", "/2", ""])
def test_bad_rationals_name_the_token_and_line(token):
    with pytest.raises(ParseError) as e:
        parse_game_text(RATIONAL_GAME.replace("VALUE", token))
    assert e.value.detail == f"bad rational {token!r} at line 7"
    assert e.value.line == 7


HASH_GAME = """game h
node r
node "a#b"
node c
edge r "a#b" "x#y"  # the comment starts here, not inside the quotes
edge r c z
infoset i0 { r }
player "P#1" infoset i0
utility "P#1" end "a#b" 1
utility "P#1" end c 0
"""


def test_hash_inside_a_quoted_atom_is_not_a_comment():
    name, g = parse_game_text(HASH_GAME)
    assert A("a#b") in g.tree.nodes
    assert g.clt.label[(A("r"), A("a#b"))] == A("x#y")
    printed = print_game(name, g)
    assert parse_game_text(printed) == (name, g)


def test_unterminated_quote_before_a_hash_is_still_an_error():
    with pytest.raises(ParseError) as e:
        parse_game_text('game t\nnode "a # b\n')
    assert "unterminated quoted atom" in e.value.detail


@pytest.mark.parametrize("old, new, line", [
    ('player "P#1" infoset i0', 'player "P#1" infoseti0', 8),
    ('utility "P#1" end c 0', 'utility "P#1" endc 0', 10),
])
def test_keywords_must_stand_apart_from_the_next_term(old, new, line):
    with pytest.raises(ParseError) as e:
        parse_game_text(HASH_GAME.replace(old, new))
    assert e.value.code == "SyntaxError"
    assert e.value.line == line


_names = st.text(min_size=1)


@settings(max_examples=200, deadline=None)
@given(st.lists(_names, min_size=5, max_size=5, unique=True),
       st.lists(_names, min_size=2, max_size=2, unique=True),
       st.lists(_names, min_size=2, max_size=2, unique=True),
       st.lists(_names, min_size=2, max_size=2))
def test_any_atom_names_survive_print_and_parse(nodes, acts0, acts1, players):
    n0, n1, n2, n3, n4 = (Atom(x) for x in nodes)
    a0, b0 = (Atom(x) for x in acts0)
    a1, b1 = (Atom(x) for x in acts1)
    p0, p1 = (Atom(x) for x in players)
    ends = (n2, n3, n4)
    g = build_game({n0, n1, n2, n3, n4},
                   {(n0, n1): a0, (n0, n2): b0, (n1, n3): a1, (n1, n4): b1},
                   [{n0}, {n1}], {n0: p0, n1: p1},
                   {(i, e): Fraction(k) for i in (p0, p1) for k, e in enumerate(ends)})
    printed = print_game("g", g)
    assert parse_game_text(printed) == ("g", g)
    assert print_game("g", parse_game_text(printed)[1]) == printed


_node_names = st.recursive(
    _names.map(Atom),
    lambda inner: st.lists(inner, max_size=3).map(Tup) | st.lists(inner, max_size=3).map(FinSet),
    max_leaves=6)


def _distinct(strategy, n):
    return st.lists(strategy, min_size=n, max_size=n, unique=True)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_random_game_shapes_with_any_names_survive_print_and_parse(rng, data):
    g = random_game(rng, max_nodes=9)
    nodes, actions, players = (sorted(s) for s in (g.tree.nodes, g.clt.actions, g.players))
    node_bij = dict(zip(nodes, data.draw(_distinct(_node_names, len(nodes)))))
    action_bij = dict(zip(actions, data.draw(_distinct(_names.map(Atom), len(actions)))))
    player_bij = dict(zip(players, data.draw(_distinct(_names.map(Atom), len(players)))))
    h, _ = pushforward(g, node_bij, {x: {a: action_bij[a] for a in g.clt.feasible[x]}
                                     for x in g.tree.decision_nodes}, player_bij)
    printed = print_game("g", h)
    assert parse_game_text(printed) == ("g", h)
    assert print_game("g", parse_game_text(printed)[1]) == printed


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_names.map(Atom), _names.map(Atom), min_size=1, max_size=5))
def test_any_atom_names_survive_morphism_print_and_parse(node_map):
    printed = print_morphism("m", "a.gm", "b.gm", node_map)
    parsed = parse_morphism_text(printed)
    assert parsed == ("m", "a.gm", "b.gm", node_map)
    assert print_morphism(*parsed) == printed


@pytest.mark.parametrize("ch", "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
def test_line_breaks_in_atoms_print_as_unicode_escapes(ch):
    text = encode(Atom(f"a{ch}b"))
    assert text == '"a\\u%04xb"' % ord(ch)
    assert parse_term(text) == Atom(f"a{ch}b")


@pytest.mark.parametrize("bad", ['"\\u12"', '"\\u12g4"', '"\\ud800"'])
def test_malformed_unicode_escapes_are_syntax_errors(bad):
    with pytest.raises(ParseError) as e:
        parse_term(bad)
    assert e.value.code == "SyntaxError"


@pytest.mark.parametrize("blank", ["\t", "\t ", " \t"])
def test_a_tab_ends_the_keyword_as_a_space_does(blank):
    lines = HASH_GAME.splitlines()
    for k, line in enumerate(lines):
        text = "\n".join(lines[:k] + [line.replace(" ", blank, 1)] + lines[k + 1:])
        assert parse_game_text(text) == parse_game_text(HASH_GAME), line


def test_a_tab_ends_the_keyword_in_morphism_files():
    text = "morphism m\nsource a.gm\ntarget b.gm\nmap x -> y\n"
    tabbed = "morphism\tm\nsource\t a.gm\ntarget\tb.gm\nmap\tx -> y\n"
    assert parse_morphism_text(tabbed) == parse_morphism_text(text) == (
        "m", "a.gm", "b.gm", {A("x"): A("y")})


# The line reader as it was before the token scan, kept as the reference for
# games, errors and line numbers. It reads each line's terms with a cursor
# (test_terms._RefReader, the recursive reference reader); its one change is
# that the keyword ends at a tab as well as at a space.
from test_terms import _RefReader  # noqa: E402

_REF_BEFORE_COMMENT = re.compile(r'(?:[^"#]|"(?:[^"\\]|\\.)*")*(?=#)')
_REF_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?(?![-+/0-9])|[-+/0-9]*")


def _ref_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _REF_BEFORE_COMMENT.match(raw) if "#" in raw else None
        line = (m.group(0) if m else raw).strip()
        if line:
            head, rest = re.match(r"([^ \t]*)(.*)", line, re.S).groups()
            yield lineno, head, _RefReader(rest.strip())


def _ref_at_end(r):
    r.skip_ws()
    return r.pos >= len(r.text)


def _ref_keyword(r, word):
    r.skip_ws()
    end = r.pos + len(word)
    if r.text.startswith(word, r.pos) and r.text[end:end + 1] in ("", " ", "\t", "{"):
        r.pos = end
        return True
    return False


def _ref_expect_end(r, lineno):
    if not _ref_at_end(r):
        raise ParseError("trailing input", line=lineno)


def _ref_braced(r, lineno):
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
        members.append(r.read_term())


def _ref_rational(r, lineno):
    r.skip_ws()
    m = _REF_RATIONAL.match(r.text, r.pos)
    r.pos = m.end()
    num, den = m.group(1), int(m.group(2) or 1)
    if num is None or den == 0:
        raise ParseError(f"bad rational {m.group()!r}", line=lineno)
    return Fraction(int(num), den)


def ref_parse_game_text(text):
    name, nodes, edges, edge_lines = None, set(), {}, {}
    cells, cell_player, utilities = {}, {}, []
    for lineno, head, r in _ref_lines(text):
        try:
            if head == "game":
                name = r.text.strip()
                if not name:
                    raise ParseError("missing game name", line=lineno)
            elif head == "node":
                nodes.add(r.read_term())
                _ref_expect_end(r, lineno)
            elif head == "edge":
                src, tgt, act = r.read_term(), r.read_term(), r.read_term()
                _ref_expect_end(r, lineno)
                if (src, tgt) in edges:
                    raise ParseError("duplicate edge", line=lineno)
                edges[(src, tgt)] = act
                edge_lines[(src, tgt)] = lineno
            elif head == "infoset":
                ident = r.read_term()
                members = _ref_braced(r, lineno)
                _ref_expect_end(r, lineno)
                if ident in cells:
                    raise ParseError("duplicate infoset id", line=lineno)
                cells[ident] = members
            elif head == "player":
                pid = r.read_term()
                if not _ref_keyword(r, "infoset"):
                    raise ParseError("expected 'infoset'", line=lineno)
                ident = r.read_term()
                _ref_expect_end(r, lineno)
                if ident in cell_player:
                    raise ParseError("infoset assigned to two players", line=lineno)
                cell_player[ident] = pid
            elif head == "utility":
                pid = r.read_term()
                if _ref_keyword(r, "end"):
                    where = r.read_term()
                elif _ref_keyword(r, "run"):
                    where = _ref_braced(r, lineno)
                else:
                    raise ParseError("expected 'end' or 'run'", line=lineno)
                value = _ref_rational(r, lineno)
                _ref_expect_end(r, lineno)
                utilities.append(((pid, where), value, lineno))
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
    mover = {x: cell_player[ident] for ident, cell in cells.items() for x in cell}
    try:
        game = build_game(nodes, edges, cells.values(), mover, [u[:2] for u in utilities])
    except ValidationError as e:
        if e.code == "NonDeterministic" and isinstance(e.witness, tuple):
            x, a = e.witness
            where = sorted(line for (s, t), line in edge_lines.items()
                           if s == x and edges[(s, t)] == a)
            if where:
                raise ValidationError(e.code, e.witness, detail=f"line {where[-1]}") from None
        if e.code == "UtilityConflict":
            # A line names the run by its node set or by its end, the one
            # member no edge leaves; the first value that differs from the
            # first named is the line in conflict.
            i, run = e.witness
            end = next(x for x in run if all(s != x for s, _ in edges))
            named = [(v, n) for (j, where), v, n in utilities if j == i and where in (end, run)]
            line = next(n for v, n in named if v != named[0][0])
            raise ValidationError(e.code, e.witness, detail=f"line {line}") from None
        raise
    return name, game


def ref_parse_morphism_text(text):
    name = source = target = None
    node_map = {}
    for lineno, head, r in _ref_lines(text):
        try:
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
                _ref_expect_end(r, lineno)
                if src in node_map:
                    raise ParseError("duplicate map key", line=lineno)
                node_map[src] = tgt
            else:
                raise ParseError(f"unknown declaration {head!r}", line=lineno)
        except ParseError as e:
            # A term's error is reported at its line, as in a game file.
            if e.line is None:
                raise ParseError(e.detail, line=lineno) from None
            raise
    if name is None:
        raise ParseError("missing 'morphism' declaration", line=1)
    if source is None or target is None:
        raise ParseError("missing 'source' or 'target' declaration", line=1)
    return name, source, target, node_map


def _parsed(parse, text):
    """An error's type, code, witness, detail, line and column; a game's
    every field and printed text; a morphism file's parts and printed text."""
    try:
        result = parse(text)
    except (ParseError, ValidationError) as e:
        return (type(e).__name__, e.code, e.witness, e.detail, getattr(e, "line", None),
                getattr(e, "col", None))
    if len(result) == 2:
        return "game", fields(result), print_game(*result)
    return "morphism", result, print_morphism(*result)


_MUTATIONS = ["(", ")", "{", "}", ",", '"', "\\", "\t", " ", "  ", "/", "->", "-", ">", "#",
              " ", " ", "x", "1/0", "0/00", "--1", "3-", "1/2/3", "infoset", "end",
              "run", "\\u12", "\\u0041", "\\ud800", "é", '""', '"a b"', "{ ", " }", "(a,", ",)"]


def _mutants(rng, text, n):
    """n copies of text, each with one or two lines changed: a piece put in,
    a character dropped, a blank turned into a tab or dropped (gluing a
    keyword to a term), a line repeated or dropped."""
    for _ in range(n):
        lines = text.split("\n")
        for _ in range(rng.randint(1, 2)):
            j = rng.randrange(len(lines))
            line, pos, r = lines[j], rng.randint(0, len(lines[j])), rng.random()
            if r < 0.45:
                lines[j] = line[:pos] + rng.choice(_MUTATIONS) + line[pos:]
            elif r < 0.6:
                lines[j] = line[:pos] + line[pos + 1:]
            elif r < 0.8:
                blanks = [k for k, ch in enumerate(line) if ch == " "]
                if blanks:
                    k = rng.choice(blanks)
                    lines[j] = line[:k] + rng.choice(["\t", ""]) + line[k + 1:]
            elif r < 0.9:
                lines.insert(j, line)
            else:
                del lines[j]
        yield "\n".join(lines)


def _renamed_texts(rng, n):
    """Printed genrandom games whose node, action and player names are
    quoted atoms, tuples and sets."""
    pool = ["a b", 'x"y', "é", "q#r", "m\\n", "(", "{z}", "1/2", "end", "run", "-", "->"]

    def name(k):
        base = Atom(f"{rng.choice(pool)}{k}") if rng.random() < 0.6 else Atom(f"v{k}")
        r = rng.random()
        return Tup((base, Atom("t"))) if r < 0.2 else FinSet((base,)) if r < 0.35 else base

    for k in range(n):
        g = random_game(rng, max_nodes=9)
        node_bij = {x: name(j) for j, x in enumerate(sorted(g.tree.nodes))}
        acts = {a: Atom(f"act {j}") if j % 2 else a for j, a in enumerate(sorted(g.clt.actions))}
        players = {i: Atom(f"P {j}") if j % 2 else i for j, i in enumerate(sorted(g.players))}
        h, cert = pushforward(g, node_bij, {x: {a: acts[a] for a in g.clt.feasible[x]}
                                            for x in g.tree.decision_nodes}, players)
        yield print_game(f"g{k}", h), print_morphism(f"m{k}", "a.gm", "b.gm", cert.node_map)


def test_token_scan_parses_as_the_cursor_reader():
    rng = random.Random(11)
    games = [open(p, encoding="utf-8").read() for p in all_game_fixtures()]
    morphisms = [open(p, encoding="utf-8").read() for p in all_morphism_fixtures()]
    for game, morphism in _renamed_texts(rng, 120):
        games.append(game)
        morphisms.append(morphism)
    games += [RUN_KEYED_TUPLES, HASH_GAME, RATIONAL_GAME.replace("VALUE", "-4/6")]
    kinds = {"game": 0, "ParseError": 0, "ValidationError": 0, "morphism": 0}
    for texts, parse, ref in ((games, parse_game_text, ref_parse_game_text),
                              (morphisms, parse_morphism_text, ref_parse_morphism_text)):
        for text in list(texts):
            for case in [text, *_mutants(rng, text, 12)]:
                got = _parsed(parse, case)
                assert got == _parsed(ref, case), case
                kinds[got[0]] += 1
    # Every outcome is exercised, errors of each kind included.
    assert min(kinds.values()) >= 100, kinds


def _bare_texts(rng, n):
    """Printed genrandom games, whose names are all bare atoms, with the
    .gmm file of each game's identity map."""
    for k in range(n):
        g = random_game(rng, max_nodes=9)
        yield (print_game(f"g{k}", g),
               print_morphism(f"id{k}", "g.gm", "g.gm", {x: x for x in g.tree.nodes}))


def _boundary_variants(line):
    """Rewrites of one printed line at the edges of the bare-atom grammar:
    blanks and keywords glued or widened, other whitespace between fields,
    comments, rationals, member lists and arrows."""
    words = line.split(" ")
    head, last = words[0], words[-1]
    out = [line + " # c", line + "\t#c", line + "#"]
    for k in [j for j, ch in enumerate(line) if ch == " "][-2:]:
        out += [line[:k] + ch + line[k + 1:]
                for ch in ("\t", " \t ", "", "\v", "\x1c", "\x1f", "\u00a0", "\u3000")]
    if head == "map":
        out += [line.replace(" -> ", arrow)
                for arrow in ("->", " ->", "-> ", " - > ", " -> -> ", " => ", " -->", " >- ")]
    elif head == "utility":
        stem = line[:-len(last)]
        out += [stem + v for v in ("3/0", "1/00", "+5", "-0", "1/2/3", "007/010", "0/7",
                                   "3/", "/2", "--1", "1/-2", "+", "3-", "1 2", "x")]
        out += [line.replace(" end ", sep) for sep in (" endX ", " end", " run ", " END ")]
    elif head == "infoset":
        ident = words[1]
        t0, t1 = words[3], words[-2]
        out += [f"infoset {ident} {{{t0}{t1}}}", f"infoset {ident} {{{t0},{t1}}}",
                f"infoset {ident} {{}}", f"infoset {ident} {{ }}", f"infoset {ident} {{ {t0} {t0} }}",
                f"infoset {ident}{{{t0}}}", f"infoset {ident} {{ {t0}", f"infoset {ident} {t0} }}",
                f"infoset {ident} {{ {t0} }} }}", f"infoset{ident} {{ {t0} }}", f"infoset {{ {t0} }}"]
    elif head == "player":
        out += [line.replace(" infoset ", sep)
                for sep in (" infosetX ", " infoset", " infoset{", " infoset  ", " infosets ")]
    elif head in ("node", "edge"):
        out += [line + " " + last, line + "x", " ".join(words[:-1])]
    return out


def _validation_variants(rng, text):
    """Plain rewrites of a printed game that each break one validation
    condition, or keep the game valid (a cell split, a cell merged): a node
    with two parents, an edge repeated, a cycle, a second root, a cell split,
    two cells merged, a cell listed twice, two edges from one node with one
    action, members of one cell offering different actions, a utility
    missing, an extra utility (at a decision node and for a player who has no
    cell) and a player with no utility line."""
    _, g = parse_game_text(text)
    t, name = g.tree, encode
    lines = text.rstrip("\n").split("\n")
    edges = {line.split()[2]: line for line in lines if line.startswith("edge ")}
    cells = [line for line in lines if line.startswith("infoset ")]
    players = {line.split()[3]: line for line in lines if line.startswith("player ")}
    utilities = [line for line in lines if line.startswith("utility ")]

    def joined(*extra, drop=()):
        return "\n".join([line for line in lines if line not in drop] + list(extra)) + "\n"

    out = []
    y = rng.choice([x for x in t.sorted_nodes if x != t.root])
    x, _, a = edges[name(y)].split()[1:]
    z = rng.choice([v for v in t.sorted_nodes if v not in (y, t.pred[y])] or [y])
    out += [joined(f"edge {name(z)} {name(y)} a2"), joined(f"edge {x} {name(y)} {a}"),
            joined(f"edge {x} {name(y)} a2"), joined("node zz9")]
    inner = [v for v in t.decision_nodes if v != t.root]
    if inner:  # y's parent moved below y: the walk from the root misses y
        y = rng.choice(sorted(inner))
        below = [e for e in t.order[t.pos[y]:t.last[y] + 1] if e in t.end_nodes]
        line = edges[name(y)]
        out.append(joined(line.replace(f" {line.split()[1]} ", f" {name(below[0])} ", 1),
                          drop=[line]))
    else:
        out.append(joined(f"edge {name(t.root)} {name(t.root)} a2"))
    big = [line for line in cells if len(line.split()) > 5]
    if big:
        line = rng.choice(big)
        _, ident, _, first, *rest, _ = line.split()
        who = players[ident].split()[1]
        out.append(joined(f"infoset {ident} {{ {first} }}", f"infoset j0 {{ {' '.join(rest)} }}",
                          f"player {who} infoset j0", drop=[line]))
        member = rng.choice(rest)
        kid = next(line for line in edges.values() if line.split()[1] == member)
        out.append(joined(kid.rsplit(" ", 1)[0] + " zz", drop=[kid]))
    if len(cells) > 1:
        one, two = rng.sample(cells, 2)
        members = one.split()[3:-1] + two.split()[3:-1]
        out.append(joined(f"infoset {one.split()[1]} {{ {' '.join(members)} }}",
                          drop=[one, two, players[two.split()[1]]]))
    line = rng.choice(cells)
    out.append(joined(line.replace(f"infoset {line.split()[1]} ", "infoset j1 ", 1),
                      f"player {players[line.split()[1]].split()[1]} infoset j1"))
    wide = [v for v in t.decision_nodes if len(t.children[v]) > 1]
    if wide:
        v = rng.choice(sorted(wide))
        first, second = (edges[name(k)] for k in t.children[v][:2])
        out.append(joined(second.rsplit(" ", 1)[0] + " " + first.split()[3], drop=[second]))
    who = rng.choice(sorted(g.players))
    out += [joined(drop=[rng.choice(utilities)]),
            joined(f"utility {name(who)} end {name(t.root)} 0"),
            joined(f"utility Q9 end {name(t.ends[0])} 0"),
            joined(drop=[u for u in utilities if u.split()[1] == name(who)])]
    return out


def test_readers_agree_with_the_cursor_reader_at_the_bare_grammar_edges():
    rng = random.Random(12)
    kinds = {"game": 0, "ParseError": 0, "ValidationError": 0, "morphism": 0}
    codes = Counter()
    for game, morphism in _bare_texts(rng, 40):
        for text, parse, ref in ((game, parse_game_text, ref_parse_game_text),
                                 (morphism, parse_morphism_text, ref_parse_morphism_text)):
            lines = text.split("\n")
            by_head = {}
            for j, line in enumerate(lines):
                by_head.setdefault(line.split(" ")[0], []).append(j)
            cases = [text]
            for head, js in by_head.items():
                j = rng.choice(js)
                cases += ["\n".join(lines[:j] + [v] + lines[j + 1:])
                          for v in _boundary_variants(lines[j])]
                # A repeated line: a duplicate edge, infoset or player is
                # an error; a repeated node, utility or map line is read again.
                cases.append("\n".join(lines[:j + 1] + lines[j:]))
            for case in cases:
                got = _parsed(parse, case)
                assert got == _parsed(ref, case), case
                kinds[got[0]] += 1
            if parse is parse_game_text:
                # Texts that read but do not validate, and valid ones the
                # block reader builds itself: equal in every field.
                for case in _validation_variants(rng, text):
                    want = _parsed(ref, case)
                    assert _parsed(parse, case) == want, case
                    codes[want[1] if want[0] != "game" else "game"] += 1
                    if want[0] == "game":
                        assert _parsed(lambda _: _game_blocks(case), case) == want, case
    assert min(kinds.values()) >= 100, kinds
    assert {"game", "HasCycle", "MultipleRoots", "PartitionBad", "NonDeterministic",
            "FeasibilityNotConstant", "UtilityMissing", "UtilityExtraneous",
            "SyntaxError"} <= codes.keys(), codes


PLAIN_GAME = """game g
node r
node x
node z
node e
node f
node v
node w
edge r x a
edge r z b
edge x e a
edge x f b
edge z v a
edge z w b
infoset i0 { r }
infoset i1 { x z }
player P infoset i0
player Q infoset i1
utility P end e 1
utility P end f 0
utility P end v 0
utility P end w 0
utility Q end e 0
utility Q end f 1
utility Q end v 2
utility Q end w 2
"""


@pytest.mark.parametrize("old, new, code", [
    ("edge z w b\n", "edge z w b\nedge f w c\n", "HasCycle"),
    ("edge z w b\n", "edge z w b\nedge z w c\n", "SyntaxError"),
    ("edge r x a\n", "edge e x a\n", "NotAntisymmetric"),
    ("node w\n", "node w\nnode y\n", "MultipleRoots"),
    ("infoset i1 { x z }", "infoset i1 { x z e }", "PartitionBad"),
    ("edge x f b", "edge x f a", "NonDeterministic"),
    ("edge z w b", "edge z w c", "FeasibilityNotConstant"),
    ("utility Q end w 2\n", "", "UtilityMissing"),
    ("utility Q end e 0\nutility Q end f 1\nutility Q end v 2\nutility Q end w 2\n", "",
     "UtilityMissing"),
    ("utility Q end w 2\n", "utility Q end w 2\nutility R end w 2\n", "UtilityExtraneous"),
    ("utility Q end w 2\n", "utility Q end w 2\nutility Q end w 3\n", "UtilityConflict"),
], ids=["second parent", "edge repeated", "walk misses a node", "second root",
        "partition rejected", "layout rejected", "cell members differ in actions",
        "table misses an end", "table misses a player", "table for no player",
        "utility in conflict"])
def test_the_block_reader_leaves_each_rejection_to_the_line_reader(old, new, code):
    # The block reader gives up at its first failed check, before or inside
    # the validators' cores, and the line reader reports the error.
    text = PLAIN_GAME.replace(old, new)
    assert _game_blocks(PLAIN_GAME) is not None and _game_blocks(text) is None
    got = _parsed(parse_game_text, text)
    assert got[1] == code, got
    assert got == _parsed(ref_parse_game_text, text)


def test_bare_atom_lines_pass_the_plain_line_gate():
    # The gate finds, in lines each put after a "\n", the first line that
    # is not plain; the bare-atom grammar of each kind is written once, in it.
    from gamecat.fileformat import _GM_BLOCKS, _GMM_BLOCKS
    games = [open(p, encoding="utf-8").read() for p in all_game_fixtures()]
    games = [text for text in games if '"' not in text and "(" not in text]
    morphisms = [print_morphism("id", "g.gm", "g.gm", {x: x for x in parse_game_text(t)[1].tree.nodes})
                 for t in games]
    for game, morphism in _bare_texts(random.Random(13), 200):
        games.append(game)
        morphisms.append(morphism)
    gm, gmm = _GM_BLOCKS[0], _GMM_BLOCKS[0]
    lines = [(gm, line) for text in games for line in text.splitlines()
             if not line.startswith("game ")]
    lines += [(gmm, line) for text in morphisms for line in text.splitlines()
              if line.startswith("map ")]
    assert len(lines) > 5000
    for gate, line in lines:
        assert not gate.search("\n" + line), line
    # One quoted, tuple or set name is enough to make a line not plain.
    for gate, line in lines[::7]:
        words = line.split(" ")
        names = [k for k, w in enumerate(words)
                 if k and w not in ("infoset", "end", "{", "}", "->")
                 and not (words[0] == "utility" and k == len(words) - 1)]
        for k in names:
            for name in (f'"{words[k]}"', f"({words[k]})", f"{{{words[k]}}}", f'"{words[k]} x"'):
                changed = " ".join(words[:k] + [name] + words[k + 1:])
                assert gate.search("\n" + changed), changed


@pytest.mark.parametrize("end", ["e", '"e x"'], ids=["bare-atom line", "quoted-atom line"])
def test_utility_with_more_digits_than_int_reads_is_a_coded_parse_error(end, tmp_path, capsys):
    # A file of bare-atom lines is first tried by the block reader, one with
    # a quoted atom goes straight to the line reader: both errors name the
    # line, and the CLI exits 2 with no traceback.
    from gamecat.cli import main
    big = "1" * 5000
    text = (f"game g\nnode r\nnode {end}\nnode f\nedge r {end} a\nedge r f b\n"
            f"infoset i {{ r }}\nplayer P infoset i\nutility P end f 0\n")
    for value in (big, f"-{big}", f"1/{big}"):
        with pytest.raises(ParseError) as e:
            parse_game_text(text + f"utility P end {end} {value}\n")
        assert e.value.line == 10 and "too many digits" in e.value.detail
    path = tmp_path / "big.gm"
    path.write_text(text + f"utility P end {end} {big}\n", encoding="utf-8")
    assert main(["--format", "machine", "validate", str(path)]) == 2
    assert capsys.readouterr().out == \
        "error SyntaxError (rational has too many digits to read at line 10)\n"
    # The limit is not raised: a utility of 4,300 digits still reads.
    _, g = parse_game_text(text + f"utility P end {end} {'9' * 4300}\n")
    assert max(g.utilities.values()) == int("9" * 4300)


@pytest.mark.parametrize("value", [10 ** 5000, Fraction(1, 10 ** 5000)], ids=["integer", "fraction"])
def test_printing_a_utility_with_more_digits_than_str_writes_is_a_coded_error(value):
    # Only a game built in the library can hold such a value: the reader
    # rejects it. The error names the player and the run.
    r, e, f, p = A("r"), A("e"), A("f"), A("P")
    g = build_game({r, e, f}, {(r, e): A("a"), (r, f): A("b")}, [{r}], {r: p},
                   {(p, e): value, (p, f): 0})
    with pytest.raises(OperationError) as err:
        print_game("g", g)
    assert err.value.code == "UtilityTooLong"
    assert err.value.witness == (p, frozenset({r, e}))


def test_printing_writes_each_value_once_and_names_the_first_end_too_long_to_write():
    # The printer writes one text per value object; a value used at several
    # ends is written alike at each, and a too-long one is named at the
    # first end, in the printed order, that holds it.
    r, e, f, h, p = A("r"), A("e"), A("f"), A("h"), A("P")
    half, big = Fraction(1, 2), 10 ** 5000
    g = build_game({r, e, f, h}, {(r, e): A("a"), (r, f): A("b"), (r, h): A("c")}, [{r}],
                   {r: p}, {(p, e): half, (p, f): Fraction(-3), (p, h): half})
    assert print_game("g", g).splitlines()[-3:] == [
        "utility P end e 1/2", "utility P end f -3", "utility P end h 1/2"]
    g = build_game({r, e, f, h}, {(r, e): A("a"), (r, f): A("b"), (r, h): A("c")}, [{r}],
                   {r: p}, {(p, e): 1, (p, f): big, (p, h): big})
    with pytest.raises(OperationError) as err:
        print_game("g", g)
    assert err.value.witness == (p, frozenset({r, f}))


_BREAKS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _bare_fixture_texts():
    """(parser, text) for each fixture whose names are all bare atoms."""
    texts = [(parse, open(p, encoding="utf-8").read())
             for paths, parse in ((all_game_fixtures(), parse_game_text),
                                  (all_morphism_fixtures(), parse_morphism_text))
             for p in paths]
    return [(parse, t) for parse, t in texts if '"' not in t and "(" not in t]


def _layouts(rng, text, k):
    """text with its lines shuffled; with whole-line comments and blank
    lines put in; with the k-th other line break; with a second `game` or
    `source` line; with a tab after one keyword; with one name quoted."""
    lines = text.splitlines()
    out = ["\n".join(rng.sample(lines, len(lines)))]
    padded = list(lines)
    for filler in ("# a comment", "", " \t ", "\t#another", "#"):
        padded.insert(rng.randint(0, len(padded)), filler)
    out.append("\n".join(padded))
    out.append(_BREAKS[k % len(_BREAKS)].join(lines))
    second = "source other.gm" if "\nmap " in text else "game other"
    out.append("\n".join(lines[:1] + rng.sample(lines[1:] + [second], len(lines))))
    j = rng.randrange(len(lines))
    out.append("\n".join(lines[:j] + [lines[j].replace(" ", "\t", 1)] + lines[j + 1:]))
    named = []
    for j, line in enumerate(lines):
        words = line.split(" ")
        if words[0] in ("node", "edge", "infoset", "player", "utility", "map"):
            last = len(words) - 1 if words[0] == "utility" else len(words)
            named += [(j, i) for i in range(1, last)
                      if words[i] not in ("infoset", "end", "{", "}", "->")]
    if named:
        j, i = rng.choice(named)
        words = lines[j].split(" ")
        words[i] = f'"{words[i]}"'
        out.append("\n".join(lines[:j] + [" ".join(words)] + lines[j + 1:]))
    return out


def test_neither_line_order_nor_layout_changes_a_load():
    rng = random.Random(14)
    texts = _bare_fixture_texts()
    for game, morphism in _bare_texts(rng, 200):
        texts += [(parse_game_text, game), (parse_morphism_text, morphism)]
    kinds = {"game": 0, "ParseError": 0, "ValidationError": 0, "morphism": 0}
    for k, (parse, text) in enumerate(texts):
        ref = ref_parse_game_text if parse is parse_game_text else ref_parse_morphism_text
        cases = _layouts(rng, text, k)
        cases += list(_mutants(rng, text, 2)) + list(_mutants(rng, cases[0], 2))
        for case in cases:
            got = _parsed(parse, case)
            assert got == _parsed(ref, case), case
            kinds[got[0]] += 1
    assert min(kinds.values()) >= 50, kinds


def test_a_file_of_plain_declarations_never_reaches_the_line_reader(monkeypatch):
    # Shuffled lines, comments, blank lines, other line breaks and tabs
    # after a keyword are still plain declarations.
    from gamecat import fileformat
    rng = random.Random(15)
    texts = _bare_fixture_texts()
    for game, morphism in _bare_texts(rng, 50):
        texts += [(parse_game_text, game), (parse_morphism_text, morphism)]
    texts += [(parse, case) for k, (parse, text) in enumerate(texts)
              for case in _layouts(rng, text, k)
              if '"' not in case and "game other" not in case and "source other" not in case]
    expected = [parse(text) for parse, text in texts]

    def refuse(*args):
        raise AssertionError("the line reader was reached")

    monkeypatch.setattr(fileformat, "_lines", refuse)
    assert [parse(text) for parse, text in texts] == expected


def test_a_file_with_one_quoted_name_reaches_the_line_reader(monkeypatch):
    from gamecat import fileformat
    game = print_game("t", trio_a())
    morphism = print_morphism("m", "a.gm", "a.gm", {x: x for x in trio_a().tree.nodes})
    cases = [(parse_game_text, game, game.replace("node 0\n", 'node "0"\n')),
             (parse_morphism_text, morphism, morphism.replace("map 0 ", 'map "0" ')),
             (parse_morphism_text, morphism, morphism.replace("source a.gm", 'source "a.gm"'))]
    calls = []
    original = fileformat._lines

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(fileformat, "_lines", counted)
    for parse, plain, quoted in cases:
        assert quoted != plain and parse(quoted) == parse(plain)
    assert calls == [quoted for _, _, quoted in cases]


@pytest.mark.parametrize("workload", ["corpus", "strategic", "deep"])
def test_no_benchmark_command_reaches_the_line_reader(workload, tmp_path, monkeypatch):
    # Every file a benchmark workload loads, the files its commands write
    # included, is read by the block reader; a workload that timed the line
    # reader would fail here.
    from gamecat import fileformat
    from gamecat.cli import main
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(FIXTURES)), "perfbench"))
    import workloads
    cases = workloads.build(workload, "t", str(tmp_path), tiny=True)

    def refuse(*args):
        raise AssertionError("the line reader was reached")

    monkeypatch.setattr(fileformat, "_lines", refuse)
    cmds = [cmd for case in cases for cmd in case.cmds]
    assert cmds
    for cmd in cmds:
        assert main(cmd.argv) == cmd.code, cmd.argv


@pytest.mark.parametrize("workload", ["corpus", "strategic", "deep"])
def test_no_benchmark_command_reaches_argparse(workload, tmp_path, monkeypatch):
    # Every command line a benchmark workload gives is read by the plain
    # reader; a workload that timed argparse would fail here.
    from gamecat import cli
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(FIXTURES)), "perfbench"))
    import workloads
    cases = workloads.build(workload, "t", str(tmp_path), tiny=True)

    def refuse():
        raise AssertionError("argparse was reached")

    monkeypatch.setattr(cli, "_parser", refuse)
    cmds = [cmd for case in cases for cmd in case.cmds]
    assert cmds
    for cmd in cmds:
        assert cli.main(cmd.argv) == cmd.code, cmd.argv


@pytest.mark.parametrize("path", ["a#b/g.gm", '"g.gm', '"g.gm"', "g.gm\n", " g.gm",
                                  "g\u2028.gm", 'a"b#c', "/abs/x#y/g.gm "])
def test_a_file_reference_that_would_not_read_back_is_written_quoted(path):
    node_map = {A("x"): A("y")}
    printed = print_morphism("m", path, "b.gm", node_map)
    assert parse_morphism_text(printed) == ("m", path, "b.gm", node_map)
    assert print_morphism("m", "a b.gm", path, node_map).startswith(
        "morphism m\nsource a b.gm\ntarget \"")


@pytest.mark.parametrize("name", ['a"b.iso.c"#d"', 'a"b.at."x#y"', "a\nnode z", "x\u2028y", "a\\#",
                                  " a", "a\t", "#", "a #b", "a\x85"])
def test_a_name_that_would_not_read_back_is_a_coded_error(name):
    g = trio_a()
    for printer in (lambda: print_game(name, g), lambda: print_morphism(name, "a.gm", "a.gm", {})):
        with pytest.raises(OperationError) as err:
            printer()
        assert (err.value.code, err.value.detail) == ("UnprintableName", name)


@pytest.mark.parametrize("name", ['a"b', 'c"#d"', "x y", 'q"#r', '"#"', "é"])
def test_names_that_read_back_print(name):
    g = trio_a()
    assert parse_game_text(print_game(name, g))[0] == name
    assert parse_morphism_text(print_morphism(name, "a.gm", "a.gm", {}))[0] == name


def test_only_a_morphism_name_may_be_empty():
    assert parse_morphism_text(print_morphism("", "a.gm", "a.gm", {}))[0] == ""
    with pytest.raises(OperationError) as err:
        print_game("", trio_a())
    assert (err.value.code, err.value.detail) == ("UnprintableName", "")
