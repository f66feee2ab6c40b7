"""Subgames rooted at a decision node (Selten's construction).

The restriction of a labeled tree to a decision node and all its successors
is a valid CLT exactly when no information set straddles the boundary; the
failing information set is the witness otherwise. Subgame utilities are the
original utilities of the completed runs.
"""

from __future__ import annotations

from .clt import CLT, validate_clt
from .errors import OperationError, ValidationError
from .game import Game, validate_game
from .morphism import GameMorphism, validate_game_morphism
from .terms import Term, _Record
from .tree import descendants, validate_out_tree


class SeltenResult(_Record):
    root: Term
    subgame: Game
    inclusion: GameMorphism


def selten_subclt(c: CLT, r: Term) -> CLT:
    if r not in c.tree.decision_nodes:
        raise OperationError("NotDecisionNode", witness=r)
    below = descendants(c.tree, r)
    # Restricting to below gives a CLT exactly when no cell straddles it.
    cell = next((cell for cell in c.cells if cell & below and cell - below), None)
    if cell is not None:
        raise ValidationError("NotExists", witness=cell)
    # The edges inside are those into the nodes below r.
    pred = c.tree.pred
    edges = {(pred[y], y): c.act[y] for y in below if y is not r}
    tree = validate_out_tree(below, set(edges))
    return validate_clt(tree, [cell for cell in c.cells if cell <= below], edges)


def selten_subgame(g: Game, r: Term) -> SeltenResult:
    sub_clt = selten_subclt(g.clt, r)
    below = sub_clt.tree.nodes
    mover = {x: g.mover[x] for x in sub_clt.tree.decision_nodes}
    players = set(mover.values())
    # A run of the subgame completes to the run of g with the same end node,
    # so utilities restrict by end node.
    utilities = {(i, end): g.payoffs[i][end] for i in players for end in sub_clt.tree.ends}
    sub = validate_game(sub_clt, mover, utilities)
    inclusion = validate_game_morphism(sub, g, {x: x for x in below})
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
    """The four-part characterization: inclusion is a monomorphism with
    identity action transform and inclusion player transform; the node set
    is a node and all its successors; information sets and utilities are
    restrictions."""
    r = sub.tree.root
    if r not in sup.tree.decision_nodes:
        return False
    if sub.tree.nodes != descendants(sup.tree, r):
        return False
    try:
        inc = validate_game_morphism(sub, sup, {x: x for x in sub.tree.nodes})
    except (ValidationError, OperationError):
        return False
    if any(table[a] != a for table in inc.clt_morphism.alpha.values() for a in table):
        return False
    if any(inc.iota[i] != i for i in inc.iota):
        return False
    if not set(sub.clt.cells) <= set(sup.clt.cells):
        return False
    # The inclusion maps players and end nodes identically.
    return all(sup.payoffs[i][e] == v for i, table in sub.payoffs.items()
               for e, v in table.items())
