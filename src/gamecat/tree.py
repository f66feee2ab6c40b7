"""Finite nontrivial out-trees and their order structure, indexed once.

An out-tree is a rooted oriented tree: exactly one node (the root) has no
incoming edge, every other node has exactly one. Decision nodes are those
with outgoing edges; runs are root-to-end paths, identified with their node
sets but held as their end nodes (`OutTree.ends`), which biject with them.

Each edge is stored once, as its target's parent (`pred`): (u, v) is an
edge exactly when `pred.get(v) is u`. `_out_tree`, the core that
`validate_out_tree` and the .gm block reader end in, decides on the nodes
and `pred`. It sorts the nodes once (`sorted_nodes`) and reads each node's
children in term order off them (`children`), so the edges in term order
are `(x, y) for x in sorted_nodes for y in children[x]`; `edges`, the set
of pairs, is a view. Its walk from the root is kept as an index, the nodes
in a preorder (`order`); each node's position in it (`pos`), the position
of the last node of its subtree (`last`) and its depth are derived on first
read. The subtree below x is `order[pos[x]:last[x] + 1]`, so `tree_leq` is
an O(1) interval test and `descendants` an O(output) slice. Only a preorder
with contiguous subtree intervals is promised, in no sibling order.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .errors import OperationError, ValidationError
from .terms import Term, _Record, _sorted, encode


class OutTree(_Record, compare=("nodes", "pred"), shown=("nodes",)):
    nodes: frozenset
    root: Term
    pred: dict      # node -> parent, on nodes - {root}
    children: dict  # node -> children in term order
    decision_nodes: frozenset
    end_nodes: frozenset
    ends: tuple  # end nodes by encoding, in run order
    order: tuple  # the nodes in a preorder
    sorted_nodes: tuple  # nodes in term order

    __hash__ = None

    edges = cached_property(lambda self: frozenset([(x, y) for y, x in self.pred.items()]))

    @cached_property
    def pos(self) -> dict:
        """node -> its position in order."""
        return {x: k for k, x in enumerate(self.order)}

    @cached_property
    def last(self) -> dict:
        """node -> the position of the last node of its subtree. In any
        preorder a subtree ends just before the first later node whose
        parent is outside it; path holds the open subtrees' roots."""
        last, path = {}, []
        for k, y in enumerate(self.order):
            while path and path[-1] is not self.pred.get(y):
                last[path.pop()] = k - 1
            path.append(y)
        last.update(dict.fromkeys(path, len(self.order) - 1))
        return last

    @cached_property
    def depth(self) -> dict:
        """node -> the number of edges from the root to it."""
        depth = {self.root: 0}
        for y in self.order[1:]:  # a parent comes before its children
            depth[y] = depth[self.pred[y]] + 1
        return depth


def validate_out_tree(nodes, edges) -> OutTree:
    """_out_tree decides; only a rejection runs the scans after it, which pick code and witness."""
    listed = dict.fromkeys(nodes)  # each node once, in the order given, which the sort reuses
    edge_set = frozenset((x, y) for x, y in edges)
    pred = {y: x for x, y in edge_set}
    if len(pred) == len(edge_set) and (tree := _out_tree(listed, pred)) is not None:
        return tree

    node_set = frozenset(listed)
    if not node_set:
        raise ValidationError("NoRoot", detail="empty node set")

    # The witness is the least offending edge, with its code; only the
    # offenders are sorted. A self-loop is its own reverse.
    bad = [(x, y) for x, y in edge_set
           if x not in node_set or y not in node_set or (y, x) in edge_set]
    if bad:
        x, y = min(bad)
        code = ("DanglingEdge" if x not in node_set or y not in node_set
                else "HasCycle" if x == y else "NotAntisymmetric")
        raise ValidationError(code, witness=(x, y))

    if not edge_set:
        raise ValidationError("Trivial")

    if len(pred) < len(edge_set):
        incoming = Counter(y for _, y in edge_set)
        raise ValidationError("HasCycle", witness=min(y for y, n in incoming.items() if n > 1),
                              detail="node has two incoming edges")

    roots = node_set - pred.keys()
    if not roots:
        raise ValidationError("NoRoot")
    if len(roots) > 1:
        raise ValidationError("MultipleRoots", witness=tuple(_sorted(roots)))

    # The walk missed a node. It has a parent (roots are unique), and the
    # parent is missed too, as the walk takes every child; so parents loop.
    x, seen = min(node_set - set(_indexed(node_set, *roots, pred).order)), set()
    while x not in seen:
        seen.add(x)
        x = pred[x]
    raise ValidationError("HasCycle", witness=x)


def _out_tree(listed, pred: dict):
    """The out-tree on listed's nodes (each once) with parents pred, or None. With one root and
    every edge end a node, the walk from it misses a node exactly when parents loop."""
    node_set = frozenset(listed)
    roots = node_set - pred.keys()
    if pred and len(roots) == 1 and pred.keys() <= node_set and node_set.issuperset(pred.values()):
        tree = _indexed(node_set, *roots, pred, listed=listed)
        if len(tree.order) == len(node_set):
            return tree
    return None


def _indexed(nodes, root, pred, order=None, listed=None) -> OutTree:
    """The tree with these parts and its index: the nodes (or listed, which
    holds each of them once) sorted once, in term order, and each node's
    children, in term order, read off them; order, when not given, from a
    walk down from the root, which meets each node reached once since
    parents are unique."""
    sorted_nodes = tuple(_sorted(nodes if listed is None else listed))
    children: dict = {x: [] for x in sorted_nodes}
    for y in sorted_nodes:
        if y in pred:
            children[pred[y]].append(y)
    children = {x: tuple(kids) for x, kids in children.items()}
    if order is None:
        order, stack = [], [root]
        while stack:
            x = stack.pop()
            order.append(x)
            stack += children[x]
    decision = frozenset(pred.values())
    ends = sorted([x for x in sorted_nodes if x not in decision], key=encode)
    return OutTree(nodes=nodes, root=root, pred=pred, children=children,
                   decision_nodes=decision, end_nodes=nodes - decision,
                   ends=tuple(ends), sorted_nodes=sorted_nodes, order=tuple(order))


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
    return t.pos[x] <= t.pos[y] <= t.last[x]


def _above(t: OutTree, nodes) -> list:
    """The nodes of nodes with another of them strictly below, in preorder.
    Subtrees are intervals of the preorder, so x has one below it exactly
    when the next of them after x in preorder lies in x's interval."""
    pos, last = t.pos, t.last
    ps = sorted(nodes, key=pos.__getitem__)
    return [x for x, y in zip(ps, ps[1:]) if pos[y] <= last[x]]


def _run(t: OutTree, e: Term) -> frozenset:
    """The node set of the run ending at end node e; run_end inverts it."""
    return frozenset([*strict_predecessors(t, e), e])


def _runs(t: OutTree, ends=None) -> dict:
    """end node -> the node set of its run, for each end in ends (default
    all), from one walk of order that keeps the open root path: each node
    is pushed and popped once, and each run is copied from the path in C."""
    out, path, pred = {}, [], t.pred
    ends = t.end_nodes if ends is None else ends
    for y in t.order:
        parent = pred.get(y)
        while path and path[-1] is not parent:
            path.pop()
        path.append(y)
        if y in ends:
            out[y] = frozenset(path)
    return out


def runs(t: OutTree):
    """All root-to-end paths as node sets, ordered by end-node encoding."""
    by_end = _runs(t)
    return [by_end[e] for e in t.ends]


def run_end(t: OutTree, run: frozenset) -> Term:
    """The end node of a run; NotARun unless run is the node set of one:
    the depth(e) + 1 nodes whose subtree intervals hold its end e."""
    pos, last = t.pos, t.last
    tail = [e for e in run if e in t.end_nodes]
    if len(tail) != 1 or len(run) != t.depth[tail[0]] + 1 or not all(
            x in pos and pos[x] <= pos[tail[0]] <= last[x] for x in run):
        raise OperationError("NotARun", witness=run)
    return tail[0]


def descendants(t: OutTree, x: Term) -> frozenset:
    """x and everything below it."""
    _check_node(t, x)
    return frozenset(t.order[t.pos[x]:t.last[x] + 1])
