"""Finite nontrivial out-trees and their derived order structure.

An out-tree is a rooted oriented tree: exactly one node (the root) has no
incoming edge, every other node has exactly one. Decision nodes are those
with outgoing edges; runs are root-to-end paths, identified with their node
sets but held as their end nodes (`OutTree.ends`), which biject with them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import OperationError, ValidationError
from .terms import Term, _sorted, encode


@dataclass(frozen=True, eq=False)
class OutTree:
    nodes: frozenset
    edges: frozenset  # of (src, tgt) pairs
    root: Term = field(repr=False)
    pred: dict = field(repr=False)      # node -> parent, on nodes - {root}
    children: dict = field(repr=False)  # node -> tuple of children in term order
    decision_nodes: frozenset = field(repr=False)
    end_nodes: frozenset = field(repr=False)
    ends: tuple = field(repr=False)     # end nodes by encoding: one per run, in run order
    sorted_edges: tuple = field(repr=False)  # edges in term order of (src, tgt)

    def __eq__(self, other):
        if not isinstance(other, OutTree):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    __hash__ = None


def validate_out_tree(nodes, edges) -> OutTree:
    node_set = frozenset(nodes)
    edge_set = frozenset((x, y) for x, y in edges)
    if not node_set:
        raise ValidationError("NoRoot", detail="empty node set")

    ordered = tuple(_sorted(edge_set, pairs=True))
    for x, y in ordered:
        if x not in node_set or y not in node_set:
            raise ValidationError("DanglingEdge", witness=(x, y))
        if x == y:
            raise ValidationError("HasCycle", witness=(x, y))
        if (y, x) in edge_set:
            raise ValidationError("NotAntisymmetric", witness=(x, y))

    if not edge_set:
        raise ValidationError("Trivial")

    pred = {y: x for x, y in ordered}
    if len(pred) < len(ordered):
        parents = Counter(y for _, y in ordered)
        raise ValidationError("HasCycle", witness=min(y for y, n in parents.items() if n > 1),
                              detail="node has two incoming edges")

    roots = _sorted(node_set - set(pred))
    if not roots:
        raise ValidationError("NoRoot")
    if len(roots) > 1:
        raise ValidationError("MultipleRoots", witness=tuple(roots))
    root = roots[0]

    children: dict = {x: [] for x in node_set}
    for x, y in ordered:
        children[x].append(y)

    # Parents are unique, so this walk meets each reachable node once.
    order = [root]
    for x in order:
        order.extend(children[x])
    reached = set(order)
    if reached != node_set:
        # Every unreached node has a parent (roots were unique), so following
        # parents inside the unreached part must loop.
        seen = set()
        first = x = min(node_set - reached)
        while x not in seen:
            seen.add(x)
            x = pred[x]
            if x in reached:
                raise ValidationError("NotConnected", witness=first)
        raise ValidationError("HasCycle", witness=x)

    decision = frozenset(x for x, _ in edge_set)
    return OutTree(
        nodes=node_set,
        edges=edge_set,
        root=root,
        pred=pred,
        children={x: tuple(children[x]) for x in node_set},
        decision_nodes=decision,
        end_nodes=node_set - decision,
        ends=tuple(sorted(node_set - decision, key=encode)),
        sorted_edges=ordered,
    )


def _check_node(t: OutTree, x: Term):
    if x not in t.nodes:
        raise OperationError("UnknownNode", witness=x)


def strict_predecessors(t: OutTree, y: Term) -> list:
    """Nodes strictly before y on the root-to-y path, in root-to-y order."""
    _check_node(t, y)
    path = []
    x = y
    while x != t.root:
        x = t.pred[x]
        path.append(x)
    path.reverse()
    return path


def tree_leq(t: OutTree, x: Term, y: Term) -> bool:
    """True iff x lies on the root-to-y path at or before y."""
    _check_node(t, x)
    _check_node(t, y)
    z = y
    while True:
        if z == x:
            return True
        if z == t.root:
            return False
        z = t.pred[z]


def _run(t: OutTree, e: Term) -> frozenset:
    """The node set of the run ending at end node e; run_end inverts it."""
    return frozenset([*strict_predecessors(t, e), e])


def runs(t: OutTree):
    """All root-to-end paths as node sets, ordered by end-node encoding."""
    return [_run(t, e) for e in t.ends]


def run_end(t: OutTree, run: frozenset) -> Term:
    """The end node of a run; NotARun unless run is the node set of one."""
    tail = [e for e in run if e in t.end_nodes]
    if len(tail) != 1 or _run(t, tail[0]) != run:
        raise OperationError("NotARun", witness=run)
    return tail[0]


def descendants(t: OutTree, x: Term) -> frozenset:
    """x and everything below it."""
    _check_node(t, x)
    out = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for z in t.children[y]:
            out.add(z)
            stack.append(z)
    return frozenset(out)
