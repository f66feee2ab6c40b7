"""Known answers, computed from the generators' plain data only.

Nothing here imports gamecat: every expected output is derived from a
`RawGame`, so agreement with the CLI is an independent check. Names are
bare atoms, so gamecat's canonical order is Python's `str` order and a set
of nodes prints as `{` + sorted names joined by `,` + `}`.
"""

from __future__ import annotations

import itertools

from games import RawGame


def enc_set(nodes) -> str:
    return "{" + ",".join(sorted(set(nodes))) + "}"


def run_of(g, end, parent=None):
    parent = parent or g.parent()
    z = [end]
    while z[-1] != g.root:
        z.append(parent[z[-1]])
    return z


def validate_lines(g, name):
    parent = g.parent()
    lines = [f"game {name}", f"nodes {len(g.nodes)}", f"root {g.root}",
             "actions " + " ".join(sorted(set(g.label.values()))),
             "players " + " ".join(g.players())]
    lines += [f"run {enc_set(run_of(g, e, parent))}" for e in sorted(g.ends())]
    return lines


def absentminded(g):
    parent = g.parent()
    for cell in g.cells:
        members = set(cell)
        for x in cell:
            y = x
            while y != g.root:
                y = parent[y]
                if y in members:
                    return True
    return False


def props_lines(g):
    decision = g.decision_nodes()
    feasible = {x: {g.label[(x, y)] for y in g.children[x]} for x in decision}
    cells = {frozenset(c) for c in g.cells}
    distinguished = all(
        frozenset(x for x in decision if a in feasible[x]) in cells
        for a in set(g.label.values()))

    def b(v):
        return "true" if v else "false"

    return [f"distinguished_actions {b(distinguished)}",
            "uses_sequences false", "uses_action_sets false",
            f"no_absentmindedness {b(not absentminded(g))}",
            f"perfect_information {b(all(len(c) == 1 for c in g.cells))}"]


def descendants(g, r):
    out, stack = {r}, [r]
    while stack:
        for y in g.children[stack.pop()]:
            out.add(y)
            stack.append(y)
    return out


def subgame_roots(g):
    """Decision nodes r such that no information set straddles r's subtree."""
    roots = []
    for r in g.decision_nodes():
        below = descendants(g, r)
        if all(set(c) <= below or not (set(c) & below) for c in g.cells):
            roots.append(r)
    return sorted(roots)


class Equilibria:
    """Pure Nash and subgame-perfect profiles by run reachability.

    A profile is Nash when no player's best unilateral deviation beats the
    profile's outcome. Player i's best deviation, with the other players'
    choices fixed, is the best end i can reach by a search that follows the
    others' choices and branches at i's nodes, choosing one action per
    information set along the path (so absent-minded cells stay
    consistent). Cells off the path are free, so this equals the
    maximum over every pure deviation that tests/oracles.py enumerates; the
    benchmark's own tests check the two agree.
    """

    def __init__(self, g):
        self.g = g
        self.cells = sorted(g.cells, key=lambda c: enc_set(c))
        self.cell_of = {x: k for k, c in enumerate(self.cells) for x in c}
        self.owner = [g.mover()[c[0]] for c in self.cells]
        self.options = [sorted(g.label[(c[0], y)] for y in g.children[c[0]])
                        for c in self.cells]
        self.next = {(x, g.label[(x, y)]): y for x in g.nodes for y in g.children[x]}
        self.players = g.players()
        self._best: dict = {}

    def profiles(self):
        return itertools.product(*self.options)

    def outcome(self, start, profile):
        x = start
        while self.g.children[x]:
            x = self.next[(x, profile[self.cell_of[x]])]
        return x

    def best_deviation(self, start, i, profile):
        others = tuple(a if self.owner[k] != i else None for k, a in enumerate(profile))
        key = (start, i, others)
        if key not in self._best:
            best = None
            stack = [(start, {})]
            while stack:
                x, fixed = stack.pop()
                if not self.g.children[x]:
                    v = self.g.util[(i, x)]
                    best = v if best is None or v > best else best
                    continue
                k = self.cell_of[x]
                if self.owner[k] != i:
                    stack.append((self.next[(x, profile[k])], fixed))
                elif k in fixed:
                    stack.append((self.next[(x, fixed[k])], fixed))
                else:
                    for a in self.options[k]:
                        stack.append((self.next[(x, a)], {**fixed, k: a}))
            self._best[key] = best
        return self._best[key]

    def _stable_from(self, start, profile):
        end = self.outcome(start, profile)
        return all(self.best_deviation(start, i, profile) <= self.g.util[(i, end)]
                   for i in self.players)

    def _as_set(self, profile):
        return frozenset(zip(map(frozenset, self.cells), profile))

    def nash(self):
        return {self._as_set(p) for p in self.profiles()
                if self._stable_from(self.g.root, p)}

    def spe(self):
        roots = subgame_roots(self.g)
        return {self._as_set(p) for p in self.profiles()
                if all(self._stable_from(r, p) for r in roots)}


def parse_strategy(text):
    """`{n1,n2}=a {n3}=b` -> frozenset of (frozenset(cell), action)."""
    out = []
    for token in text.split():
        cell, action = token.split("}=")
        out.append((frozenset(cell[1:].split(",")), action))
    return frozenset(out)


def strategy_lines_error(out_lines, key, expected):
    got = [parse_strategy(line[len(key) + 1:]) for line in out_lines]
    if len(set(got)) != len(got):
        return f"{key}: duplicate profiles"
    if set(got) != expected:
        return f"{key}: {len(got)} profiles, expected {len(expected)}"
    return None


def iso_error(g1, g2, m):
    """None when node map m is an isomorphism of games g1 -> g2, else why."""
    if set(m) != set(g1.nodes) or set(m.values()) != set(g2.nodes) \
            or len(g1.nodes) != len(g2.nodes):
        return "map is not a bijection of nodes"
    if m[g1.root] != g2.root:
        return "root not preserved"
    edges2 = {(x, y) for x in g2.nodes for y in g2.children[x]}
    if {(m[x], m[y]) for (x, y) in g1.label} != edges2:
        return "edges not preserved"
    if {frozenset(m[x] for x in c) for c in g1.cells} != {frozenset(c) for c in g2.cells}:
        return "information sets not preserved"
    for c in g1.cells:
        tables = {tuple(sorted((g1.label[(x, y)], g2.label[(m[x], m[y])])
                               for y in g1.children[x])) for x in c}
        if len(tables) != 1:
            return "action transform not constant on an information set"
    mover2 = g2.mover()
    iota = {}
    for c, i in zip(g1.cells, g1.cell_player):
        for x in c:
            if iota.setdefault(i, mover2[m[x]]) != mover2[m[x]]:
                return "no player transform"
    if len(set(iota.values())) != len(iota):
        return "player transform not injective"
    for i, j in iota.items():
        ends = g1.ends()
        for e1, e2 in itertools.combinations(ends, 2):
            fwd = (g1.util[(i, e1)] > g1.util[(i, e2)]) - (g1.util[(i, e1)] < g1.util[(i, e2)])
            back = (g2.util[(j, m[e1])] > g2.util[(j, m[e2])]) \
                - (g2.util[(j, m[e1])] < g2.util[(j, m[e2])])
            if fwd != back:
                return "utility order not preserved"
    return None


def morphism_lines(src, tgt, m):
    """The `verdict`, `alpha`, `zeta` and `iota` lines that
    `morphism check` prints for the valid game morphism m: src -> tgt."""
    lines = ["verdict valid"]
    for c in sorted(src.cells, key=enc_set):
        x = c[0]
        for y in sorted(src.children[x], key=lambda y: src.label[(x, y)]):
            lines.append(f"alpha {enc_set(c)} {src.label[(x, y)]} -> "
                         f"{tgt.label[(m[x], m[y])]}")
    src_parent, tgt_parent = src.parent(), tgt.parent()
    prefix = run_of(tgt, m[src.root], tgt_parent)[1:]
    for e in sorted(src.ends()):
        z = run_of(src, e, src_parent)
        lines.append(f"zeta {enc_set(z)} -> {enc_set(prefix + [m[x] for x in z])}")
    mover2 = tgt.mover()
    iota = {}
    for c, i in zip(src.cells, src.cell_player):
        iota[i] = mover2[m[c[0]]]
    lines += [f"iota {i} -> {iota[i]}" for i in sorted(iota)]
    return lines


def read_gm(text):
    """A printed game as a RawGame, for checking converter output. Node and
    action names are kept as the opaque strings gamecat printed (terms print
    without spaces); utilities must be integers, as every generated game's
    are."""
    nodes, edges, cells, ids, cell_player, util = [], [], [], {}, [], {}
    for line in text.splitlines():
        w = line.split()
        if not w or w[0] == "game":
            continue
        if w[0] == "node":
            nodes.append(w[1])
        elif w[0] == "edge":
            edges.append((w[1], w[2], w[3]))
        elif w[0] == "infoset":
            ids[w[1]] = len(cells)
            cells.append(w[3:-1])
            cell_player.append(None)
        elif w[0] == "player":
            cell_player[ids[w[3]]] = w[1]
        elif w[0] == "utility" and w[2] == "end":
            util[(w[1], w[3])] = int(w[4])
        else:
            raise ValueError(f"unexpected line {line!r}")
    children = {x: [] for x in nodes}
    for x, y, _ in edges:
        children[x].append(y)
    below = {y for _, y, _ in edges}
    nodes.sort(key=lambda x: x in below)  # the root first
    return RawGame(nodes, children, {(x, y): a for x, y, a in edges},
                   cells, cell_player, util)
