"""Continuously labeled trees.

A CLT adds to an out-tree a partition of the decision nodes into information
sets and a deterministic edge labeling. "Continuous" always means constant on
partition cells, so the feasibility requirement is that two nodes in one
information set offer the same actions.

Each fact is stored once, by `_laid_out`, the core that validation
(`validate_clt`, the .gm block reader), transport (`morphism._transport`) and
restriction (`subgame.selten_subclt`) end in: the cells by encoding (`cells`)
and each decision node's cell (`info_of`); each edge's action on its target
(`act`), as a non-root node has one incoming edge; each cell's actions, every
member's, in term order (`cell_actions`); and each decision node's children by
action index (`succ`). `infosets`, `label`, `actions` and `feasible` are views.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .errors import OperationError, ValidationError
from .terms import Term, _Record, _sorted, encode_set
from .tree import OutTree


class CLT(_Record, compare=("tree", "cells", "act"), shown=("tree", "cells")):
    tree: OutTree
    cells: tuple  # the information sets, by encoding
    info_of: dict  # decision node -> its cell
    act: dict  # non-root node -> action on its incoming edge
    cell_actions: dict  # cell -> its actions in term order
    succ: dict  # decision node -> children, by action index

    __hash__ = None

    # Views in the pair-keyed and set forms, built on first read.
    infosets = cached_property(lambda self: frozenset(self.cells))
    actions = cached_property(lambda self: frozenset(self.act.values()))
    label = cached_property(lambda self: {(self.tree.pred[y], y): a for y, a in self.act.items()})
    feasible = cached_property(lambda self: {x: frozenset(self.cell_actions[cell])
                                             for x, cell in self.info_of.items()})


def _not_constant(cells, value):
    """The first (least member, other member) pair of one cell on which the
    mapping value differs, scanning cells in the given order and members in
    term order; None when value is constant on every cell. A cell is
    sorted only when value splits it."""
    for cell in cells:
        if len(cell) > 1:
            it = iter(cell)
            v = value[next(it)]
            if any(value[x] != v for x in it):
                first, *rest = _sorted(cell)
                return first, next(x for x in rest if value[x] != value[first])
    return None


def validate_clt(tree: OutTree, infosets, label) -> CLT:
    label = dict(label)
    act = {y: a for (_, y), a in label.items()}
    # The labeling must be the edge map itself: its keys' targets are
    # distinct and each is keyed with its parent. The rest is _laid_out's.
    if not (len(act) == len(label) and {y: x for x, y in label} == tree.pred):
        edges = {(x, y) for y, x in tree.pred.items()}
        raise ValidationError("LabelBad", witness=min(label.keys() ^ edges),
                              detail="labeling must cover exactly the edge set")
    return _laid_out(tree, [frozenset(c) for c in infosets], act)


def _laid_out(tree: OutTree, cells, act) -> CLT:
    """The CLT of tree with the cells and act, each non-root node's action; raises
    when they are no CLT. A set-level partition test and one loop over the cells'
    members decide; only a rejection runs the scans, which choose code and witness."""
    children, w = tree.children, tree.decision_nodes
    cells = tuple(sorted(cells, key=encode_set))
    if not (sum(map(len, cells)) == len(w) and frozenset().union(*cells) == w
            and frozenset() not in cells):
        seen: set = set()
        for cell in cells:
            if not cell:
                raise ValidationError("PartitionBad", detail="empty information set")
            if not cell <= w:
                raise ValidationError("PartitionBad", witness=min(cell - w),
                                      detail="information set contains a non-decision node")
            if not seen.isdisjoint(cell):
                raise ValidationError("PartitionBad", witness=min(cell & seen),
                                      detail="node in two information sets")
            seen |= cell
        raise ValidationError("PartitionBad", witness=min(w - seen),
                              detail="decision node in no information set")

    # Each decision node's actions in child order; each distinct tuple is sorted once, with
    # what picks the children in the sorted order: None when the tuple is in term order, as
    # then the children are. Sorted tuples are equal exactly when the action sets are.
    get, sorts, info_of, succ, cell_actions, split = act.__getitem__, {}, {}, {}, {}, False
    for cell in cells:
        for x in cell:
            kids = children[x]
            key = tuple(map(get, kids))
            found = sorts.get(key)
            if found is None:
                pool = tuple(_sorted(key))
                found = sorts[key] = (pool, None if pool == key else itemgetter(*map(key.index, pool)))
            pool, pick = found
            info_of[x] = cell
            succ[x] = kids if pick is None else pick(kids)
            split |= cell_actions.setdefault(cell, pool) != pool
    if any(len(set(key)) < len(key) for key in sorts):
        # The witness is the first repeated (x, a) in the edges' term order.
        acts = {x: tuple(map(get, children[x])) for x in w}
        x = min(x for x in w if len(set(acts[x])) < len(acts[x]))
        a = next(a for k, a in enumerate(acts[x]) if a in acts[x][:k])
        raise ValidationError("NonDeterministic", witness=(x, a))
    if split:
        raise ValidationError("FeasibilityNotConstant", witness=_not_constant(
            cells, {x: frozenset(map(get, children[x])) for x in w}))
    return CLT(tree=tree, cells=cells, info_of=info_of, act=act,
               cell_actions=cell_actions, succ=succ)


def next_node(c: CLT, x: Term, a: Term) -> Term:
    if x not in c.tree.decision_nodes:
        raise OperationError("NotDecision", witness=x)
    pool = c.cell_actions[c.info_of[x]]
    if a not in pool:
        raise OperationError("NotFeasible", witness=(x, a))
    return c.succ[x][pool.index(a)]
