"""Continuously labeled trees.

A CLT adds to an out-tree a partition of the decision nodes into information
sets and a deterministic edge labeling. "Continuous" always means constant on
partition cells, so the feasibility requirement is that two nodes in one
information set offer the same actions.

Each fact is stored once, at validation: the cells by encoding (`cells`) and
each decision node's cell (`info_of`); each edge's action on its target
(`act`), as a non-root node has one incoming edge; each cell's actions in
term order (`cell_actions`), which validation proves are every member's; and
each decision node's children by action index (`succ`). `infosets`, `label`,
`actions` and `feasible` are views for callers outside the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import OperationError, ValidationError
from .terms import Term, _sorted, encode_set
from .tree import OutTree


@dataclass(frozen=True)
class CLT:
    tree: OutTree
    cells: tuple  # the information sets, by encoding
    info_of: dict = field(repr=False, compare=False)  # decision node -> its cell
    act: dict = field(repr=False)  # non-root node -> action on its incoming edge
    cell_actions: dict = field(repr=False, compare=False)  # cell -> its actions in term order
    succ: dict = field(repr=False, compare=False)  # decision node -> children, by action index

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
    label, pred, children = dict(label), tree.pred, tree.children
    # Parents are unique, so each edge is its target's entry in pred.
    act = {y: a for (x, y), a in label.items() if y in pred and pred[y] is x}
    if len(act) != len(label) or len(act) != len(pred):
        edges = {(x, y) for y, x in pred.items()}
        raise ValidationError("LabelBad", witness=min(label.keys() ^ edges),
                              detail="labeling must cover exactly the edge set")

    cells = tuple(sorted((frozenset(c) for c in infosets), key=encode_set))
    w = tree.decision_nodes
    seen: dict = {}
    for cell in cells:
        if not cell:
            raise ValidationError("PartitionBad", detail="empty information set")
        if not cell <= w:
            raise ValidationError("PartitionBad", witness=min(cell - w),
                                  detail="information set contains a non-decision node")
        for x in cell:
            if x in seen and seen[x] != cell:
                raise ValidationError("PartitionBad", witness=x,
                                      detail="node in two information sets")
            seen[x] = cell
    if w - seen.keys():
        raise ValidationError("PartitionBad", witness=min(w - seen.keys()),
                              detail="decision node in no information set")

    # Each decision node's actions in child order. Each distinct list is
    # sorted once and its sort held once, as the list itself when it is
    # already in term order: then the node's children are its succ too.
    acts = {x: tuple(map(act.__getitem__, children[x])) for x in w}
    pools: dict = {}
    for key in acts.values():
        if key not in pools:
            pool = tuple(_sorted(key))
            pools[key] = key if pool == key else pool
    if any(len(set(key)) < len(key) for key in pools):
        # The witness is the first repeated (x, a) in the edges' term order.
        x = next(x for x in tree.sorted_nodes if x in w and len(set(acts[x])) < len(acts[x]))
        a = next(a for k, a in enumerate(acts[x]) if a in acts[x][:k])
        raise ValidationError("NonDeterministic", witness=(x, a))

    # Sorted action lists are equal exactly when the action sets are.
    feasible = {x: pools[key] for x, key in acts.items()}
    split = _not_constant(cells, feasible)
    if split is not None:
        raise ValidationError("FeasibilityNotConstant", witness=split)

    succ = {x: children[x] if feasible[x] == key
            else tuple([children[x][key.index(a)] for a in feasible[x]])
            for x, key in acts.items()}
    cell_actions = {cell: feasible[next(iter(cell))] for cell in cells}
    return CLT(tree=tree, cells=cells, info_of=seen, act=act,
               cell_actions=cell_actions, succ=succ)


def next_node(c: CLT, x: Term, a: Term) -> Term:
    if x not in c.tree.decision_nodes:
        raise OperationError("NotDecision", witness=x)
    pool = c.cell_actions[c.info_of[x]]
    if a not in pool:
        raise OperationError("NotFeasible", witness=(x, a))
    return c.succ[x][pool.index(a)]
