"""The bytes a loaded game holds per node.

A game stores each edge, cell and utility once, keyed by node, with no
table keyed by pairs of terms. The bounds sit between what loading held
when edges, labels, feasible sets and utilities were also held in
pair-keyed tables (about 1,000 B per node on binary(10) and 1,250 on
path(2000)) and what it holds now (about 490 and 650).
"""

import gc
import tracemalloc

import pytest

from gamecat import parse_game_text


def binary_text(d):
    """binary(d): the full binary perfect-information tree of depth d, two
    players alternating by depth."""
    nodes, frontier, lines = ["r"], ["r"], ["game binary"]
    for _ in range(d):
        frontier = [x + bit for x in frontier for bit in "01"]
        nodes += frontier
    for k, x in enumerate(nodes):
        lines.append(f"node {x}")
        if len(x) <= d:
            lines += [f"edge {x} {x}0 L", f"edge {x} {x}1 R", f"infoset i{k} {{ {x} }}",
                      f"player P{(len(x) - 1) % 2 + 1} infoset i{k}"]
        else:
            lines += [f"utility P{i} end {x} {(k * i) % 5}" for i in (1, 2)]
    return "\n".join(lines) + "\n"


def path_text(n):
    """path(n): a chain p0..p(n-1) plus one side leaf s at the root, two
    players alternating along the chain."""
    lines = ["game path"] + [f"node p{k}" for k in range(n)] + ["node s", "edge p0 s s"]
    lines += [f"edge p{k} p{k + 1} c" for k in range(n - 1)]
    for k in range(n - 1):
        lines += [f"infoset i{k} {{ p{k} }}", f"player P{k % 2 + 1} infoset i{k}"]
    for i in ("P1", "P2"):
        lines += [f"utility {i} end p{n - 1} 1", f"utility {i} end s 0"]
    return "\n".join(lines) + "\n"


def held_per_node(text):
    """Bytes still allocated after parse_game_text, per node of the game;
    the terms are built by a first parse, so only the game is counted."""
    parse_game_text(text)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, g = parse_game_text(text)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(g.tree.nodes)


@pytest.mark.parametrize("text, bound", [(binary_text(10), 750), (path_text(2000), 950)],
                         ids=["binary(10)", "path(2000)"])
def test_a_loaded_game_holds_each_fact_once(text, bound):
    assert held_per_node(text) < bound
