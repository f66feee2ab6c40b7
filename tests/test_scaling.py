"""The library on trees of 10^4-10^5 nodes: each operation finishes in
seconds, where a quadratic one would take minutes to hours.

path(n) is a chain p0..p(n-1) with one side leaf s at the root; comb(n) is
a spine of n decision nodes, each with one side leaf, so n + 1 runs of
average length about n/2. Two players alternate along the chain or spine.
"""

import time

import pytest

from gamecat import (identity_morphism, is_iso, iso_search, parse_game_text,
                     properties, subgame_roots, to_action_set, to_distinguished, to_sequence)

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
