import glob
import os

import pytest

from gamecat import (ParseError, ValidationError, parse_game_text,
                     parse_morphism_text, print_game, print_morphism)
from conftest import FIXTURES
from examplegames import A, trio_a


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
