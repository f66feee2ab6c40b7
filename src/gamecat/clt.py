"""Continuously labeled trees.

A CLT adds to an out-tree a partition of the decision nodes into information
sets and a deterministic edge labeling. "Continuous" always means constant on
partition cells, so the feasibility requirement is that two nodes in one
information set offer the same actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import OperationError, ValidationError
from .terms import Term, _sorted, encode_set
from .tree import OutTree


@dataclass(frozen=True, eq=False)
class CLT:
    tree: OutTree
    infosets: frozenset  # of frozenset cells
    label: dict          # (src, tgt) edge -> action
    actions: frozenset = field(repr=False)   # image of label
    feasible: dict = field(repr=False)       # decision node -> frozenset of actions
    next: dict = field(repr=False)           # (node, action) -> node
    info_of: dict = field(repr=False)        # decision node -> its cell
    cells: tuple = field(repr=False)         # infosets sorted by encoding

    def __eq__(self, other):
        if not isinstance(other, CLT):
            return NotImplemented
        return (self.tree == other.tree and self.infosets == other.infosets
                and self.label == other.label)

    __hash__ = None

    @property
    def decision_nodes(self):
        return self.tree.decision_nodes

    def sorted_infosets(self) -> tuple:
        return self.cells


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
    if label.keys() != tree.edges:
        raise ValidationError("LabelBad", witness=min(set(label) ^ set(tree.edges)),
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

    nxt: dict = {}
    feasible: dict = {x: set() for x in w}
    for x, y in tree.sorted_edges:
        a = label[(x, y)]
        if (x, a) in nxt:
            raise ValidationError("NonDeterministic", witness=(x, a))
        nxt[(x, a)] = y
        feasible[x].add(a)
    feasible = {x: frozenset(s) for x, s in feasible.items()}

    split = _not_constant(cells, feasible)
    if split is not None:
        raise ValidationError("FeasibilityNotConstant", witness=split)

    return CLT(
        tree=tree,
        infosets=frozenset(cells),
        label=label,
        actions=frozenset(label.values()),
        feasible=feasible,
        next=nxt,
        info_of=seen,
        cells=cells,
    )


def next_node(c: CLT, x: Term, a: Term) -> Term:
    if x not in c.tree.decision_nodes:
        raise OperationError("NotDecision", witness=x)
    if a not in c.feasible[x]:
        raise OperationError("NotFeasible", witness=(x, a))
    return c.next[(x, a)]
