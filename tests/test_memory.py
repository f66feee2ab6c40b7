"""The bytes a loaded game holds per node.

A game stores each edge, cell and utility once, keyed by node, with no
table keyed by pairs of terms. The bounds sit between what loading held
when edges, labels, feasible sets and utilities were also held in
pair-keyed tables (about 1,000 B per node on binary(10) and 1,250 on
path(2000)) and what it holds now (about 490 and 650).

`gamecat strategies` prints each strategy as it enumerates it: on comb(14)
its peak traced allocation is about 40 KB, against 19.4 MB when it held
one record per strategy.
"""

import gc
import sys
import tracemalloc

import pytest

from gamecat import parse_game_text
from gamecat.cli import main


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


def comb_text(n):
    """comb(n): a spine c0..cn whose decision nodes c0..c(n-1) each have one
    side leaf; one player, utilities 0..n by end."""
    lines = ["game comb"] + [f"node c{k}" for k in range(n + 1)] + [f"node s{k}" for k in range(n)]
    for k in range(n):
        lines += [f"edge c{k} c{k + 1} a", f"edge c{k} s{k} b", f"infoset i{k} {{ c{k} }}",
                  f"player P infoset i{k}", f"utility P end s{k} {k}"]
    return "\n".join(lines + [f"utility P end c{n} {n}"]) + "\n"


class _Sink:
    """A standard output that counts what it is given and keeps none of it."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)

    def flush(self):
        pass


def test_strategies_prints_each_strategy_as_it_goes(tmp_path, monkeypatch):
    # 2**14 strategy lines, about 2.15 MB: a command that held one record per
    # strategy, or the printed text, would peak at several MB.
    path = tmp_path / "comb.gm"
    path.write_text(comb_text(14), encoding="utf-8")
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["strategies", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.written > 2_000_000
    assert peak < 1_000_000
