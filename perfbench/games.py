"""Seeded generators for the benchmark's input games.

Games are held as plain data (`RawGame`) and written as `.gm`/`.gmm` text
by this module, never through gamecat's printer, so the inputs do not depend
on the code under test. Every generator takes a `random.Random` and draws
from nothing else (bar the fixed shape of `imperfect_tree`), so one seed
always yields the same bytes.

Node, action and player names are bare atoms (`[A-Za-z0-9_.+-]+`), whose
canonical order in gamecat is byte order, which is Python's `str` order for
ASCII.
"""

from __future__ import annotations

import itertools
import random

ACTION_POOL = list("abcdefghijkl")


class RawGame:
    """A game as plain data.

    nodes: node names, root first. children: node -> list of children.
    label: (parent, child) -> action. cells: information sets, lists of
    decision nodes. cell_player: the mover of each cell, by index.
    util: (player, end) -> int.
    """

    def __init__(self, nodes, children, label, cells, cell_player, util):
        self.nodes = list(nodes)
        self.children = children
        self.label = label
        self.cells = [list(c) for c in cells]
        self.cell_player = list(cell_player)
        self.util = util

    @property
    def root(self):
        return self.nodes[0]

    def ends(self):
        return [x for x in self.nodes if not self.children[x]]

    def decision_nodes(self):
        return [x for x in self.nodes if self.children[x]]

    def players(self):
        return sorted(set(self.cell_player))

    def parent(self):
        return {y: x for x in self.nodes for y in self.children[x]}

    def mover(self):
        return {x: p for c, p in zip(self.cells, self.cell_player) for x in c}

    def cell_of(self):
        return {x: k for k, c in enumerate(self.cells) for x in c}

    def strategy_space_size(self):
        n = 1
        for c in self.cells:
            n *= len(self.children[c[0]])
        return n

    def gm_text(self, name: str) -> str:
        lines = [f"game {name}"]
        lines += [f"node {x}" for x in self.nodes]
        lines += [f"edge {x} {y} {self.label[(x, y)]}"
                  for x in self.nodes for y in self.children[x]]
        lines += [f"infoset c{k} {{ {' '.join(c)} }}"
                  for k, c in enumerate(self.cells)]
        lines += [f"player {p} infoset c{k}"
                  for k, p in enumerate(self.cell_player)]
        lines += [f"utility {i} end {e} {self.util[(i, e)]}"
                  for i in self.players() for e in self.ends()]
        return "\n".join(lines) + "\n"


def gmm_text(name: str, source: str, target: str, node_map: dict) -> str:
    lines = [f"morphism {name}", f"source {source}", f"target {target}"]
    lines += [f"map {x} -> {y}" for x, y in node_map.items()]
    return "\n".join(lines) + "\n"


def _random_tree(rng, n, prefix="n"):
    nodes = [f"{prefix}{k}" for k in range(n)]
    children = {x: [] for x in nodes}
    for k in range(1, n):
        children[nodes[rng.randrange(k)]].append(nodes[k])
    return nodes, children


def corpus_game(rng, n_nodes=None, n_players=None):
    """The distribution of tests/genrandom.py (copied, not imported, so
    later test edits do not shift the workload): a random recursive tree of
    2-12 nodes, same-out-degree decision nodes grouped at random into
    information sets (absent-minded cells included), 1-4 players. n_nodes
    and n_players, drawn uniformly when None, can be given to stratify."""
    nodes, children = _random_tree(rng, n_nodes or rng.randint(2, 12))
    by_degree: dict = {}
    for x in nodes:
        if children[x]:
            by_degree.setdefault(len(children[x]), []).append(x)
    cells = []
    for degree, group in sorted(by_degree.items()):
        rng.shuffle(group)
        while group:
            take = rng.randint(1, len(group))
            cells.append(group[:take])
            group = group[take:]
    players = [f"P{k + 1}" for k in range(n_players or rng.randint(1, 4))]
    label, cell_player = {}, []
    for cell in cells:
        actions = rng.sample(ACTION_POOL, len(children[cell[0]]))
        cell_player.append(rng.choice(players))
        for x in cell:
            kids = list(children[x])
            rng.shuffle(kids)
            for a, y in zip(actions, kids):
                label[(x, y)] = a
    g = RawGame(nodes, children, label, cells, cell_player, {})
    g.util = {(i, e): rng.randint(-2, 3) for i in g.players() for e in g.ends()}
    return g


def _layered_cells(rng, children, levels, max_cell):
    """Group decision nodes of equal depth and out-degree into cells of
    1..max_cell nodes. Equal depth rules out absent-mindedness."""
    cells = []
    for level in levels:
        by_degree: dict = {}
        for x in level:
            if children[x]:
                by_degree.setdefault(len(children[x]), []).append(x)
        for _, group in sorted(by_degree.items()):
            rng.shuffle(group)
            while group:
                take = rng.randint(1, min(max_cell, len(group)))
                cells.append(group[:take])
                group = group[take:]
    return cells


def _sorted_actions(rng, k):
    """k action names drawn by rng, in increasing order."""
    return sorted(rng.sample(ACTION_POOL, k))


def _remapped_utilities(rng, base):
    """base's utilities under a strictly increasing map, drawn by rng, of
    each player's values into [-5, 5]: every comparison between two
    utilities of one player comes out as in base."""
    values: dict = {}
    for (i, _), v in base.items():
        values.setdefault(i, set()).add(v)
    remap = {}
    for i in sorted(values):
        old = sorted(values[i])
        remap[i] = dict(zip(old, sorted(rng.sample(range(-5, 6), len(old)))))
    return {(i, e): remap[i][v] for (i, e), v in base.items()}


def strategic_game(rng, shape_rng, size):
    """A depth-3 game with branching 2-3, 2 or 3 players that all move,
    information sets of 1-2 same-level nodes and utilities in [-5, 5].

    The shape (tree, information sets, their movers) comes from shape_rng,
    rejection-sampled until the strategy space has exactly size profiles,
    and so does a base utility table. rng draws the action names, kept in
    the same order at every cell, and each player's utility values, kept in
    the base's order. nash and spe enumerate strategies in action order and
    stop at the first profitable deviation, so a game's cost swings by 2x
    with its action order and utility order; fixing both makes the cost a
    property of the game, not of the seed."""
    while True:
        nodes, children, levels = ["s0"], {"s0": []}, [["s0"]]
        for _ in range(3):
            nxt = []
            for x in levels[-1]:
                for _ in range(shape_rng.randint(2, 3)):
                    y = f"s{len(nodes)}"
                    nodes.append(y)
                    children[y] = []
                    children[x].append(y)
                    nxt.append(y)
            levels.append(nxt)
        cells = _layered_cells(shape_rng, children, levels, 2)
        if RawGame(nodes, children, {}, cells, [], {}).strategy_space_size() != size:
            continue
        players = [f"P{k + 1}" for k in range(shape_rng.randint(2, 3))]
        movers = [shape_rng.choice(players) for _ in cells]
        if len(set(movers)) == len(players):
            break
    label = {}
    for cell in cells:
        actions = _sorted_actions(rng, len(children[cell[0]]))
        for x in cell:
            for a, y in zip(actions, children[x]):
                label[(x, y)] = a
    g = RawGame(nodes, children, label, cells, movers, {})
    base = {(i, e): shape_rng.randint(-5, 5) for i in g.players() for e in g.ends()}
    g.util = _remapped_utilities(rng, base)
    return g


def _roadmap_utilities(g):
    """ROADMAP's end utilities: random.Random(0).randint(-5, 5) per end in
    node order, each player in turn."""
    base = random.Random(0)
    return {(i, e): base.randint(-5, 5) for e in g.ends() for i in g.players()}


def binary_game(rng, d):
    """binary(d): the full binary perfect-information tree of depth d. Two
    players alternate by depth (P1 at the root). The end utilities are
    ROADMAP's instance under a strictly increasing map of each player's
    values drawn by rng (see _remapped_utilities), so every seed gives a
    game whose utility orders, and hence whose cost, are ROADMAP's."""
    nodes, children, frontier = ["r"], {"r": []}, ["r"]
    for _ in range(d):
        nxt = []
        for x in frontier:
            for bit in "01":
                y = x + bit
                nodes.append(y)
                children[y] = []
                children[x].append(y)
                nxt.append(y)
        frontier = nxt
    decision = [x for x in nodes if children[x]]
    label = {(x, y): ("L" if y[-1] == "0" else "R") for x in decision for y in children[x]}
    movers = [f"P{(len(x) - 1) % 2 + 1}" for x in decision]
    g = RawGame(nodes, children, label, [[x] for x in decision], movers, {})
    g.util = _remapped_utilities(rng, _roadmap_utilities(g))
    return g


def path_game(rng, n):
    """path(n): a chain p0..p(n-1) plus one side leaf `s` at the root. Two
    players alternate along the chain; end utilities as in binary_game."""
    nodes = [f"p{k}" for k in range(n)] + ["s"]
    children = {x: [] for x in nodes}
    label = {}
    for k in range(n - 1):
        children[nodes[k]].append(nodes[k + 1])
        label[(nodes[k], nodes[k + 1])] = "c"
    children["p0"].append("s")
    label[("p0", "s")] = "s"
    decision = nodes[:n - 1]
    movers = [f"P{k % 2 + 1}" for k in range(n - 1)]
    g = RawGame(nodes, children, label, [[x] for x in decision], movers, {})
    g.util = _remapped_utilities(rng, _roadmap_utilities(g))
    return g


def imperfect_tree(rng, n):
    """A random recursive tree of n nodes with 2-3 players and information
    sets of 1-3 nodes of equal depth and out-degree. As in strategic_game,
    the tree, information sets, movers and a base utility table depend on n
    only; rng draws the action names (in the same order at every cell) and
    each player's utility values (in the base's order). The converters'
    cost swung by 1.5x with the seed before."""
    shape_rng = random.Random(f"tree:{n}")
    nodes, children = _random_tree(shape_rng, n, prefix="t")
    depth = {nodes[0]: 0}
    for x in nodes:
        for y in children[x]:
            depth[y] = depth[x] + 1
    levels: dict = {}
    for x in nodes:
        levels.setdefault(depth[x], []).append(x)
    cells = _layered_cells(shape_rng, children, [levels[k] for k in sorted(levels)], 3)
    players = [f"P{k + 1}" for k in range(shape_rng.randint(2, 3))]
    movers = [shape_rng.choice(players) for _ in cells]
    label = {}
    for cell in cells:
        actions = _sorted_actions(rng, len(children[cell[0]]))
        for x in cell:
            for a, y in zip(actions, children[x]):
                label[(x, y)] = a
    g = RawGame(nodes, children, label, cells, movers, {})
    base = {(i, e): shape_rng.randint(-5, 5) for i in g.players() for e in g.ends()}
    g.util = _remapped_utilities(rng, base)
    return g


def relabel(rng, g, prefix, keep_order=False):
    """A copy of g under fresh node, action and player names; returns
    (copy, node map from g to the copy). The names are shuffled, or with
    keep_order=True renamed so that their sorted order is kept (the copy
    then does not depend on rng)."""
    def order(n):
        perm = list(range(n))
        if not keep_order:
            rng.shuffle(perm)
        return perm

    nodes = sorted(g.nodes)
    nmap = {x: f"{prefix}x{k:05d}" for x, k in zip(nodes, order(len(nodes)))}
    amap = {}
    for cidx, cell in enumerate(g.cells):
        acts = sorted(g.label[(cell[0], y)] for y in g.children[cell[0]])
        table = {a: f"{prefix}a{cidx}.{k}" for a, k in zip(acts, order(len(acts)))}
        for x in cell:
            amap[x] = table
    players = g.players()
    pmap = {i: f"{prefix}p{k}" for i, k in zip(players, order(len(players)))}
    nodes = [nmap[x] for x in g.nodes]
    children = {nmap[x]: [nmap[y] for y in g.children[x]] for x in g.nodes}
    label = {(nmap[x], nmap[y]): amap[x][a] for (x, y), a in g.label.items()}
    cells = [[nmap[x] for x in c] for c in g.cells]
    cell_player = [pmap[p] for p in g.cell_player]
    util = {(pmap[i], nmap[e]): v for (i, e), v in g.util.items()}
    return RawGame(nodes, children, label, cells, cell_player, util), nmap


def extend_under_new_root(rng, g):
    """g embedded under a fresh root; returns (bigger game, inclusion map)."""
    suffix = rng.randrange(10 ** 6)
    root, extra = f"x{suffix}", (f"y{suffix}" if rng.random() < 0.5 else None)
    nodes = [root] + g.nodes + ([extra] if extra else [])
    children = dict(g.children)
    children[root] = [g.root] + ([extra] if extra else [])
    label = dict(g.label)
    label[(root, g.root)] = "w1"
    if extra:
        children[extra] = []
        label[(root, extra)] = "w2"
    who = f"Q{suffix}" if rng.random() < 0.5 else rng.choice(g.players())
    big = RawGame(nodes, children, label, g.cells + [[root]], g.cell_player + [who], {})
    big.util = {(i, e): g.util[(i, e)] if (i, e) in g.util else rng.randint(-2, 3)
                for i in big.players() for e in big.ends()}
    return big, {x: x for x in g.nodes}


def merge_two_ends(rng, g):
    """Quotient two end children of a singleton-cell node. Returns
    (source, target, node map) with the source's two runs made equal in
    utility, or None when no node qualifies."""
    cell_of = g.cell_of()
    cands = []
    for x in g.decision_nodes():
        if len(g.cells[cell_of[x]]) != 1:
            continue
        ends = sorted(y for y in g.children[x] if not g.children[y])
        cands += [(x, a, b) for a, b in itertools.combinations(ends, 2)]
    if not cands:
        return None
    x, e1, e2 = cands[rng.randrange(len(cands))]
    util = dict(g.util)
    for i in g.players():
        util[(i, e2)] = util[(i, e1)]
    src = RawGame(g.nodes, g.children, g.label, g.cells, g.cell_player, util)
    children = dict(g.children)
    children[x] = [y for y in g.children[x] if y != e2]
    tgt = RawGame([y for y in g.nodes if y != e2], children,
                  {e: a for e, a in g.label.items() if e != (x, e2)},
                  g.cells, g.cell_player,
                  {k: v for k, v in util.items() if k[1] != e2})
    return src, tgt, {y: (e1 if y == e2 else y) for y in g.nodes}


def rank_vectors(g):
    """Per end, the tuple of each player's dense utility rank (0 = best)."""
    players = g.players()
    ranks = []
    for i in players:
        values = sorted({g.util[(i, e)] for e in g.ends()}, reverse=True)
        ranks.append({v: k for k, v in enumerate(values)})
    return [tuple(r[g.util[(i, e)]] for i, r in zip(players, ranks)) for e in g.ends()]


def ordinal_invariant(g):
    """The multiset of per-end rank vectors, minimised over player
    permutations. Isomorphic games have equal invariants."""
    vecs = rank_vectors(g)
    k = len(g.players())
    return min(sorted(tuple(v[p] for p in perm) for v in vecs)
               for perm in itertools.permutations(range(k)))


def near_miss(rng, g, tries=24):
    """g with one player's utilities swapped between two ends, kept only
    when the ordinal invariant changes, which certifies that the result is
    not isomorphic to g. None when no tried swap qualifies."""
    ends = g.ends()
    cands = [(i, a, b) for i in g.players() for a, b in itertools.combinations(ends, 2)
             if g.util[(i, a)] != g.util[(i, b)]]
    rng.shuffle(cands)
    base = ordinal_invariant(g)
    for i, a, b in cands[:tries]:
        util = dict(g.util)
        util[(i, a)], util[(i, b)] = util[(i, b)], util[(i, a)]
        h = RawGame(g.nodes, g.children, g.label, g.cells, g.cell_player, util)
        if ordinal_invariant(h) != base:
            return h
    return None
