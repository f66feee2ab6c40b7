"""Game-shape predicates and constructive converters.

Each converter rebuilds the game in a normal form (distinguished actions,
sequence nodes, action-set nodes) with one `_transport`, pushforward's core,
whose certifying isomorphism from the input is the composite bijection of
the stages: tag actions by information set, then name nodes by root path.
"""

from __future__ import annotations

from .errors import ValidationError
from .game import Game
from .morphism import GameMorphism, _transport
from .terms import FinSet, Tup, _adjoin, _Record, encode
from .tree import _above


class GameProperties(_Record):
    distinguished_actions: bool
    uses_sequences: bool
    uses_action_sets: bool
    no_absentmindedness: bool
    perfect_information: bool


class ConversionResult(_Record):
    game: Game
    certificate: GameMorphism


def _distinguished(g: Game) -> bool:
    """Each action's decision nodes form one cell: feasible sets are constant
    on cells, so no action is offered at two cells."""
    offered = [a for pool in g.clt.cell_actions.values() for a in pool]
    return len(offered) == len(set(offered))


_GROW = {Tup: lambda s, a: Tup((*s.items, a)), FinSet: _adjoin}


def _named_by(g: Game, name) -> bool:
    """Each node is name(the actions on its root path): the root is name(()), and each
    child's name grows its parent's by its action (`_GROW`: appended, or inserted in a set)."""
    t, grow = g.tree, _GROW[name]
    return (all(isinstance(x, name) for x in t.nodes) and t.root is name(())
            and all(y is grow(t.pred[y], a) for y, a in g.clt.act.items()))


def _absentminded_witness(g: Game):
    """(cell, x, y) for the first cell in encoding order with a member x
    strictly before another member y: the least such x, then the least y
    after it (the first such pair of the cell's members in term order)."""
    pos, last = g.tree.pos, g.tree.last
    for cell in g.clt.cells:
        if len(cell) > 1 and (above := _above(g.tree, cell)):
            x = min(above)
            return cell, x, min(y for y in cell if pos[x] < pos[y] <= last[x])
    return None


def properties(g: Game) -> GameProperties:
    return GameProperties(
        distinguished_actions=_distinguished(g),
        uses_sequences=_named_by(g, Tup),
        uses_action_sets=_distinguished(g) and _named_by(g, FinSet),
        no_absentmindedness=_absentminded_witness(g) is None,
        perfect_information=all(len(c) == 1 for c in g.clt.cells),
    )


def _infoset_tags(g: Game):
    """decision node -> {action: (its cell, action)}. Each tagged action is
    encoded once here, so encoding a node named by them is one join."""
    tags: dict = {}
    for cell, pool in g.clt.cell_actions.items():
        tag = FinSet(cell)
        table = {a: Tup((tag, a)) for a in pool}
        for tagged in table.values():
            encode(tagged)
        tags.update(dict.fromkeys(cell, table))
    return tags


def _renamed(g: Game, action_bijs, name=None) -> ConversionResult:
    """The one transport along action_bijs: with name, each node becomes name(the action
    images on its root path), found in one top-down pass. No map is checked: root paths
    and tags (cell, a) are distinct, tags are constant on cells, and players are fixed."""
    t, act = g.tree, g.clt.act
    if name:
        # In preorder a parent comes first: a child's name is its parent's and its action.
        grow = _GROW[name]
        node_bij = {t.root: name(())}
        for y in t.order[1:]:
            x = t.pred[y]
            node_bij[y] = grow(node_bij[x], action_bijs[x][act[y]])
    else:
        node_bij = {x: x for x in t.nodes}
    return ConversionResult(*_transport(g, node_bij, action_bijs, {i: i for i in g.players}))


def to_distinguished(g: Game) -> ConversionResult:
    """Tag each action with its information set, so feasible sets are disjoint."""
    return _renamed(g, _infoset_tags(g))


def to_sequence(g: Game) -> ConversionResult:
    """Rename each node to the tuple of edge labels on its root path."""
    same = {cell: {a: a for a in pool} for cell, pool in g.clt.cell_actions.items()}
    return _renamed(g, {x: same[cell] for x, cell in g.clt.info_of.items()}, Tup)


def to_distinguished_sequence(g: Game) -> ConversionResult:
    return _renamed(g, _infoset_tags(g), Tup)


def to_action_set(g: Game) -> ConversionResult:
    """Rename each node to the set of tagged labels on its root path. Needs
    no-absentmindedness, else the path sets collide."""
    w = _absentminded_witness(g)
    if w is not None:
        raise ValidationError("Absentminded", witness=w)
    return _renamed(g, _infoset_tags(g), FinSet)
