"""The library on trees of 10^4-10^5 nodes: each operation finishes in
seconds, where a quadratic one would take minutes to hours.

path(n) is a chain p0..p(n-1) with one side leaf s at the root; comb(n) is
a spine of n decision nodes, each with one side leaf, so n + 1 runs of
average length about n/2. Two players alternate along the chain or spine.
binary(d) is the full binary tree of depth d, the two players alternating
by depth, with seeded utilities from -5 to 5.
"""

import random
import time

import pytest

from gamecat import (cli, encode_set, fileformat, identity_morphism, is_iso, iso_search,
                     parse_game_text, parse_morphism_text, print_game, print_morphism, properties,
                     selten_subgame, subgame_roots, to_action_set, to_distinguished, to_sequence)
from gamecat.tree import _runs

BOUND_S = 30


def path_text(n):
    lines = ["game path"] + [f"node p{k}" for k in range(n)] + ["node s", "edge p0 s s"]
    lines += [f"edge p{k} p{k + 1} c" for k in range(n - 1)]
    for k in range(n - 1):
        lines += [f"infoset i{k} {{ p{k} }}", f"player P{k % 2 + 1} infoset i{k}"]
    for i in ("P1", "P2"):
        lines += [f"utility {i} end p{n - 1} 1", f"utility {i} end s 0"]
    return "\n".join(lines) + "\n"


def comb_text(n):
    lines = ["game comb"] + [f"node c{k}" for k in range(n + 1)]
    lines += [f"node s{k}" for k in range(n)]
    for k in range(n):
        lines += [f"edge c{k} c{k + 1} c", f"edge c{k} s{k} s",
                  f"infoset i{k} {{ c{k} }}", f"player P{k % 2 + 1} infoset i{k}"]
    for i in ("P1", "P2"):
        lines += [f"utility {i} end s{k} {k % 3}" for k in range(n)]
        lines.append(f"utility {i} end c{n} 3")
    return "\n".join(lines) + "\n"


def binary_text(d, seed=0):
    rng, lines, frontier = random.Random(seed), ["game binary", "node r"], ["r"]
    for depth in range(d):
        for x in frontier:
            lines += [f"node {x}{a}\nedge {x} {x}{a} {a}" for a in "lr"]
            lines += [f"infoset i{x} {{ {x} }}", f"player P{depth % 2 + 1} infoset i{x}"]
        frontier = [x + a for x in frontier for a in "lr"]
    lines += [f"utility {i} end {e} {rng.randint(-5, 5)}" for e in frontier for i in ("P1", "P2")]
    return "\n".join(lines) + "\n"


def seconds(op, *args):
    start = time.perf_counter()
    op(*args)
    return time.perf_counter() - start


def timed(op, *args):
    start = time.perf_counter()
    out = op(*args)
    took = time.perf_counter() - start
    assert took < BOUND_S, (op.__name__, took)
    return out


@pytest.mark.parametrize("text, nodes", [(path_text(10 ** 5), 10 ** 5 + 1),
                                         (comb_text(10 ** 4), 2 * 10 ** 4 + 1)],
                         ids=["path(10^5)", "comb(10^4)"])
def test_large_trees_take_seconds(text, nodes):
    _, g = timed(parse_game_text, text)
    assert len(g.tree.nodes) == nodes
    p = timed(properties, g)
    assert p.perfect_information and p.no_absentmindedness
    assert len(timed(subgame_roots, g)) == len(g.tree.decision_nodes)
    assert is_iso(timed(identity_morphism, g))
    m = timed(iso_search, g, g)
    assert all(m.node_map[x] == x for x in g.tree.nodes)
    d = timed(to_distinguished, g)
    assert is_iso(d.certificate)
    assert timed(properties, d.game).distinguished_actions


def test_action_set_names_cost_about_what_sequence_names_do():
    # Each action-set name inserts one action into its parent's sorted items,
    # as each sequence name appends one: on path(2000) the two forms' second
    # calls, whose names are all interned, differ by a small factor. A ratio
    # holds where the machine's speed swings would break a time bound.
    _, g = parse_game_text(path_text(2000))
    took = {}
    for convert in (to_sequence, to_action_set):
        convert(g)
        took[convert.__name__] = min(seconds(convert, g) for _ in range(3))
    assert took["to_action_set"] <= 3 * took["to_sequence"], took


def test_subgame_costs_less_than_loading_its_text():
    # The restriction below a child of binary(12)'s root (4,095 nodes) is
    # read off the tree's preorder index straight into the cores, with no
    # validator, so it costs less than reading the subgame's printed text,
    # which validates it. A ratio holds where the machine's speed swings
    # would break a time bound.
    _, g = parse_game_text(binary_text(12))
    r = g.tree.children[g.tree.root][0]
    text = print_game("sub", selten_subgame(g, r).subgame)
    assert len(parse_game_text(text)[1].tree.nodes) == 4095
    took = {op.__name__: min(seconds(op, *args) for _ in range(3))
            for op, args in ((selten_subgame, (g, r)), (parse_game_text, (text,)))}
    assert took["selten_subgame"] <= 0.75 * took["parse_game_text"], took


# Each fast path below is a second way to do what a general path does, kept
# because it pays: a test states by how much, as a ratio against the general
# path, best of 3 on each side, taken in turns. When one fails, its fork no
# longer pays for its lines and becomes a candidate for deletion.
FORK_BOUND = 0.6
FORK_TEXTS = pytest.mark.parametrize("text", [binary_text(10), comb_text(200)],
                                     ids=["binary(10)", "comb(200)"])


def fork_ratio(fast, general):
    took = {fast: [], general: []}
    for _ in range(3):
        for op in took:
            took[op].append(seconds(op))
    return min(took[fast]) / min(took[general])


@FORK_TEXTS
def test_gm_block_reader_pays_for_itself(text, monkeypatch):
    # Measured 0.30-0.38 of the line reader's time.
    def line_reader():
        with monkeypatch.context() as m:
            m.setattr(fileformat, "_game_blocks", lambda text: None)
            return parse_game_text(text)

    assert line_reader() == parse_game_text(text)
    ratio = fork_ratio(lambda: parse_game_text(text), line_reader)
    assert ratio <= FORK_BOUND, ratio


def test_gmm_block_reader_pays_for_itself(monkeypatch):
    # Measured 0.22-0.31 of the line reader's time.
    _, g = parse_game_text(binary_text(10))
    text = print_morphism("id", "binary.gm", "binary.gm", {x: x for x in g.tree.nodes})

    def line_reader():
        with monkeypatch.context() as m:
            m.setattr(fileformat, "_morphism_blocks", lambda text: None)
            return parse_morphism_text(text)

    assert line_reader() == parse_morphism_text(text)
    ratio = fork_ratio(lambda: parse_morphism_text(text), line_reader)
    assert ratio <= FORK_BOUND, ratio


@FORK_TEXTS
def test_run_encodings_pay_for_themselves(text):
    # cli._run_encodings writes each run's encoding from one walk that keeps
    # the path's term ranks; the general path encodes each run set on its
    # own. Measured 0.13-0.16 of its time on comb(200), 0.37-0.42 on binary(10).
    t = parse_game_text(text)[1].tree

    def general():
        return {e: encode_set(r) for e, r in _runs(t).items()}

    assert cli._run_encodings(t) == general()
    ratio = fork_ratio(lambda: cli._run_encodings(t), general)
    assert ratio <= FORK_BOUND, ratio
