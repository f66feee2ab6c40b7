"""Subgames rooted at a decision node (Selten's construction).

The restriction of a labeled tree to a decision node and all its successors
is a valid CLT exactly when no information set straddles the boundary; the
failing information set is the witness otherwise. The successors are a
slice of the tree's preorder index, and the restriction, valid by
construction, is read off it straight into the cores, with no validator.
Subgame utilities are the original utilities of the completed runs.
"""

from __future__ import annotations

from .clt import CLT, _laid_out
from .errors import OperationError, ValidationError
from .game import Game, _game
from .morphism import CltMorphism, GameMorphism
from .terms import Term, _Record
from .tree import _indexed, descendants


class SeltenResult(_Record):
    root: Term
    subgame: Game
    inclusion: GameMorphism


def selten_subclt(c: CLT, r: Term) -> CLT:
    t = c.tree
    if r not in t.decision_nodes:
        raise OperationError("NotDecisionNode", witness=r)
    order = t.order[t.pos[r]:t.last[r] + 1]
    below = frozenset(order)
    # Restricting to below gives a CLT exactly when no cell straddles it.
    cell = next((cell for cell in c.cells if cell & below and cell - below), None)
    if cell is not None:
        raise ValidationError("NotExists", witness=cell)
    # The edges inside are those into the nodes below r.
    tree = _indexed(below, r, {y: t.pred[y] for y in order[1:]}, order,
                    [x for x in t.sorted_nodes if x in below])
    return _laid_out(tree, [cell for cell in c.cells if cell <= below],
                     {y: c.act[y] for y in order[1:]})


def selten_subgame(g: Game, r: Term) -> SeltenResult:
    c = selten_subclt(g.clt, r)
    mover = {x: g.mover[x] for x in c.tree.decision_nodes}
    # A run of the subgame completes to the run of g with the same end node,
    # so utilities restrict by end node.
    sub = _game(c, mover, {i: {e: g.payoffs[i][e] for e in c.tree.ends}
                           for i in set(mover.values())})
    cm = CltMorphism(c, g.clt, {x: x for x in c.tree.order},
                     {cell: dict(zip(pool, pool)) for cell, pool in c.cell_actions.items()})
    inclusion = GameMorphism(sub, g, cm, {i: i for i in sub.players})
    return SeltenResult(root=r, subgame=sub, inclusion=inclusion)


def subgame_roots(g: Game):
    """The decision nodes that no information set straddles, in one pass.

    Each subtree is an interval of the tree's preorder. A cell lies inside
    a subtree exactly when its least and greatest member positions do, so
    a node is a root exactly when every cell met in its subtree spans
    positions within the interval; the bounds fold up from the leaves."""
    tree, info_of = g.tree, g.clt.info_of
    pos, last = tree.pos, tree.last
    span = {}
    for cell in g.clt.cells:
        members = [pos[x] for x in cell]
        span[cell] = (min(members), max(members))
    bounds = {}  # decision node -> least and greatest position of a cell met below
    roots = set()
    for x in reversed(tree.order):
        if x in info_of:
            los, his = zip(span[info_of[x]], *(bounds[y] for y in tree.children[x] if y in bounds))
            bounds[x] = lo, hi = min(los), max(his)
            if lo >= pos[x] and hi <= last[x]:
                roots.add(x)
    return roots


def is_selten_subgame(sub: Game, sup: Game) -> bool:
    """The four-part characterization: the inclusion is a monomorphism with
    identity action transform and inclusion player transform; the node set
    is a node and all its successors; information sets and utilities are
    restrictions. With the identity node map on the descendants, edges are
    preserved iff `pred` restricts, alpha is the identity iff `act` does and
    iota iff `mover` does; then ends map to ends, sup's cells into cells,
    and equal payoffs keep the utility order."""
    r = sub.tree.root
    if r not in sup.tree.decision_nodes or sub.tree.nodes != descendants(sup.tree, r):
        return False
    return (sub.tree.pred.items() <= sup.tree.pred.items()
            and sub.clt.act.items() <= sup.clt.act.items()
            and sub.mover.items() <= sup.mover.items()
            and set(sub.clt.cells) <= set(sup.clt.cells)
            and all(sup.payoffs[i][e] == v for i, table in sub.payoffs.items()
                    for e, v in table.items()))
