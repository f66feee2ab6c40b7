"""Game-shape predicates and constructive converters.

Each converter rebuilds the game in a normal form (distinguished actions,
sequence nodes, action-set nodes) with one `pushforward`, whose certifying
isomorphism from the input is the composite bijection of the form's stages:
tag actions by information set, then name nodes by their root path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .game import Game
from .morphism import GameMorphism, pushforward
from .terms import FinSet, Tup, encode
from .tree import descendants


@dataclass(frozen=True)
class GameProperties:
    distinguished_actions: bool
    uses_sequences: bool
    uses_action_sets: bool
    no_absentmindedness: bool
    perfect_information: bool


@dataclass(frozen=True)
class ConversionResult:
    game: Game
    certificate: GameMorphism


def _distinguished(g: Game) -> bool:
    w = g.tree.decision_nodes
    for a in g.clt.actions:
        cell = frozenset(x for x in w if a in g.clt.feasible[x])
        if cell not in g.clt.infosets:
            return False
    return True


def _uses_sequences(g: Game) -> bool:
    t = g.tree
    if not all(isinstance(x, Tup) for x in t.nodes):
        return False
    if t.root != Tup(()):
        return False
    for (x, y), a in g.clt.label.items():
        if x.items != y.items[:-1] or y.items[-1] != a:
            return False
    return True


def _uses_action_sets(g: Game) -> bool:
    if not _distinguished(g):
        return False
    t = g.tree
    if not all(isinstance(x, FinSet) for x in t.nodes):
        return False
    if t.root != FinSet(()):
        return False
    for (x, y), a in g.clt.label.items():
        xs, ys = set(x.items), set(y.items)
        if not (xs < ys and len(ys - xs) == 1):
            return False
        if next(iter(ys - xs)) != a:
            return False
    return True


def _absentminded_witness(g: Game):
    """(cell, x, y) for the first cell in encoding order with a member x
    strictly before another member y: the least such x, then the least y
    after it (the first such pair of the cell's members in term order).

    One DFS keeps, for each cell, its members on the current path; the
    innermost of them is the nearest member above a node of the cell, and
    x has a member below it iff it is the nearest above one."""
    t, info_of = g.tree, g.clt.info_of
    on_path: dict = {}  # cell -> its members on the current path, outermost first
    above: dict = {}    # cell -> members nearest above another member
    stack = [(t.root, True)]
    while stack:
        x, entering = stack.pop()
        if x in t.end_nodes:
            continue
        path = on_path.setdefault(info_of[x], [])
        if not entering:
            path.pop()
            continue
        if path:
            above.setdefault(info_of[x], set()).add(path[-1])
        path.append(x)
        stack.append((x, False))
        stack.extend((y, True) for y in t.children[x])
    cell = next((c for c in g.clt.sorted_infosets() if c in above), None)
    if cell is None:
        return None
    x = min(above[cell])
    return cell, x, min(cell & descendants(t, x) - {x})


def properties(g: Game) -> GameProperties:
    return GameProperties(
        distinguished_actions=_distinguished(g),
        uses_sequences=_uses_sequences(g),
        uses_action_sets=_uses_action_sets(g),
        no_absentmindedness=_absentminded_witness(g) is None,
        perfect_information=all(len(c) == 1 for c in g.clt.infosets),
    )


def _infoset_tags(g: Game):
    """decision node -> {action: (its cell, action)}. Each tagged action is
    encoded once here, so encoding a node named by them is one join."""
    tags: dict = {}
    for cell in g.clt.infosets:
        tag = FinSet(tuple(cell))
        table = {a: Tup((tag, a)) for a in g.clt.feasible[next(iter(cell))]}
        for tagged in table.values():
            encode(tagged)
        tags.update(dict.fromkeys(cell, table))
    return tags


def _renamed(g: Game, action_bijs, name=None) -> ConversionResult:
    """The one pushforward along action_bijs. With name, each node becomes
    name(the action images on its root path), found in one top-down pass."""
    t = g.tree
    path = {t.root: ()}
    stack = [t.root] if name else []
    while stack:
        x = stack.pop()
        for y in t.children[x]:
            path[y] = path[x] + (action_bijs[x][g.clt.label[(x, y)]],)
            stack.append(y)
    node_bij = {x: name(path[x]) if name else x for x in t.nodes}
    g2, cert = pushforward(g, node_bij, action_bijs, {i: i for i in g.players})
    return ConversionResult(game=g2, certificate=cert)


def to_distinguished(g: Game) -> ConversionResult:
    """Tag each action with its information set, so feasible sets are disjoint."""
    return _renamed(g, _infoset_tags(g))


def to_sequence(g: Game) -> ConversionResult:
    """Rename each node to the tuple of edge labels on its root path."""
    return _renamed(g, {x: {a: a for a in f} for x, f in g.clt.feasible.items()}, Tup)


def to_distinguished_sequence(g: Game) -> ConversionResult:
    return _renamed(g, _infoset_tags(g), Tup)


def to_action_set(g: Game) -> ConversionResult:
    """Rename each node to the set of tagged labels on its root path. Needs
    no-absentmindedness, else the path sets collide."""
    w = _absentminded_witness(g)
    if w is not None:
        raise ValidationError("Absentminded", witness=w)
    return _renamed(g, _infoset_tags(g), FinSet)
