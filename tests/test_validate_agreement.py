"""The three validators against a reference: the versions that ran every
witness scan on every input, before validity was decided first, with one
rule since changed: a node in two listed cells, equal ones included, is
rejected, and the witness is the least shared node.

Each validator, on random games and on mutations of their parts, must
return an object equal to the reference's in every field, or raise the
same error: a ValidationError with the same code, witness and detail, or
another exception of the same type.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from gamecat import Atom, ValidationError, validate_clt, validate_game, validate_out_tree
from gamecat.clt import CLT, _not_constant
from gamecat.errors import OperationError
from gamecat.game import Game
from gamecat.terms import _sorted, encode_set
from gamecat.tree import _indexed, _run, run_end
from genrandom import random_game


# The reference validators.

def ref_validate_out_tree(nodes, edges):
    node_set = frozenset(nodes)
    edge_set = frozenset((x, y) for x, y in edges)
    if not node_set:
        raise ValidationError("NoRoot", detail="empty node set")
    bad = [(x, y) for x, y in edge_set
           if x not in node_set or y not in node_set or (y, x) in edge_set]
    if bad:
        x, y = min(bad)
        code = ("DanglingEdge" if x not in node_set or y not in node_set
                else "HasCycle" if x == y else "NotAntisymmetric")
        raise ValidationError(code, witness=(x, y))
    if not edge_set:
        raise ValidationError("Trivial")
    pred = {y: x for x, y in edge_set}
    if len(pred) < len(edge_set):
        incoming = Counter(y for _, y in edge_set)
        raise ValidationError("HasCycle", witness=min(y for y, n in incoming.items() if n > 1),
                              detail="node has two incoming edges")
    roots = node_set - pred.keys()
    if not roots:
        raise ValidationError("NoRoot")
    if len(roots) > 1:
        raise ValidationError("MultipleRoots", witness=tuple(_sorted(roots)))
    (root,) = roots
    tree = _indexed(node_set, root, pred)
    if len(tree.order) != len(node_set):
        x, seen = min(node_set - set(tree.order)), set()
        while x not in seen:
            seen.add(x)
            x = pred[x]
        raise ValidationError("HasCycle", witness=x)
    return tree


def ref_validate_clt(tree, infosets, label):
    label, pred, children = dict(label), tree.pred, tree.children
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
        # A node of an earlier cell, an equal cell's too, is shared: the
        # witness is the least.
        shared = [x for x in cell if x in seen]
        if shared:
            raise ValidationError("PartitionBad", witness=min(shared),
                                  detail="node in two information sets")
        seen.update(dict.fromkeys(cell, cell))
    if w - seen.keys():
        raise ValidationError("PartitionBad", witness=min(w - seen.keys()),
                              detail="decision node in no information set")
    acts = {x: tuple(map(act.__getitem__, children[x])) for x in w}
    pools: dict = {}
    for key in acts.values():
        if key not in pools:
            pool = tuple(_sorted(key))
            pools[key] = key if pool == key else pool
    if any(len(set(key)) < len(key) for key in pools):
        x = next(x for x in tree.sorted_nodes if x in w and len(set(acts[x])) < len(acts[x]))
        a = next(a for k, a in enumerate(acts[x]) if a in acts[x][:k])
        raise ValidationError("NonDeterministic", witness=(x, a))
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


def ref_validate_game(clt, mover, utilities):
    w = clt.tree.decision_nodes
    mover = dict(mover)
    if w - mover.keys():
        raise ValidationError("MoverMissing", witness=min(w - mover.keys()))
    if mover.keys() - w:
        raise ValidationError("MoverMissing", witness=min(mover.keys() - w),
                              detail="mover assigned to a non-decision node")
    split = _not_constant(clt.cells, mover)
    if split is not None:
        raise ValidationError("MoverNotConstant", witness=split)
    players = frozenset(mover.values())
    tree = clt.tree
    payoffs: dict = {i: {} for i in players}
    for (i, end), value in utilities.items() if hasattr(utilities, "items") else utilities:
        if isinstance(end, (frozenset, set)):
            try:
                end = run_end(tree, end)
            except OperationError:
                raise ValidationError("UtilityExtraneous", witness=(i, frozenset(end))) from None
        table = payoffs.get(i)
        if table is None or end not in tree.end_nodes:
            raise ValidationError("UtilityExtraneous", witness=(i, end))
        if type(value) is not Fraction:
            try:
                value = Fraction(value)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ValidationError("UtilityNotRational", witness=(i, _run(tree, end))) from None
        held = table.setdefault(end, value)
        if held is not value and held != value:
            raise ValidationError("UtilityConflict", witness=(i, _run(tree, end)))
    gaps = [(i, e) for i, table in payoffs.items() if len(table) < len(tree.ends)
            for e in tree.ends if e not in table]
    if gaps:
        i, end = min(gaps)
        raise ValidationError("UtilityMissing", witness=(i, _run(tree, end)))
    return Game(clt=clt, mover=mover, players=players, payoffs=payoffs)


# Comparing outcomes.

def _outcome(f, *args):
    """("ok", every field of the result), ("error", the ValidationError's
    code, witness and detail) or ("raised", the type of another exception)."""
    try:
        r = f(*args)
    except ValidationError as e:
        return "error", (e.code, e.witness, e.detail)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return "raised", type(e)
    fields = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)}
    if isinstance(r, CLT):  # the tree is compared on its own
        fields.pop("tree")
    if isinstance(r, Game):
        fields.pop("clt")
    return "ok", fields


def _agree(ref, new, *args, kinds):
    want, got = _outcome(ref, *args), _outcome(new, *args)
    assert got == want, args
    kinds[want[0] if want[0] != "error" else want[1][0]] += 1


def _parts(g):
    """The raw parts of g, as build_game takes them."""
    t = g.tree
    edges = {(t.pred[y], y): a for y, a in g.clt.act.items()}
    utilities = [((i, e), v) for i, table in g.payoffs.items() for e, v in table.items()]
    return list(t.sorted_nodes), edges, [set(c) for c in g.clt.cells], dict(g.mover), utilities


def _tree_cases(rng, nodes, edges):
    pairs = list(edges)
    x, y = rng.choice(pairs)
    extra = Atom(f"new{rng.randrange(3)}")
    yield nodes, pairs
    yield nodes[::-1] + nodes[: rng.randint(1, len(nodes))], pairs  # repeated nodes
    yield nodes, pairs + [(x, y)]  # a repeated edge
    yield nodes, [e for e in pairs if e != (x, y)]  # a dropped edge
    yield nodes, [e for e in pairs if e != (x, y)] + [(y, x)]  # a reversed edge
    yield nodes, pairs + [(y, x)]
    yield nodes, pairs + [(x, x)]  # a self-loop
    yield nodes, pairs + [(y, y)]
    yield nodes + [extra], pairs  # a second root
    yield nodes + [extra], pairs + [(extra, x)]  # x with two parents
    yield nodes, pairs + [(x, extra)]  # a dangling edge
    yield nodes, [e for e in pairs if e != (x, y)] + [(extra, y)]  # one from no node
    yield [n for n in nodes if n != y], pairs
    yield nodes, []
    yield [], []
    yield nodes[:1], []
    below = [b for a, b in pairs if a == y]
    if below:  # x, y and a child of y made a cycle
        yield nodes, [e for e in pairs if e[1] != x] + [(below[0], x)]


def _clt_cases(rng, tree, cells, edges):
    w = sorted(tree.decision_nodes, key=lambda n: n.name)
    ends = sorted(tree.end_nodes, key=lambda n: n.name)
    (x, y), a = rng.choice(list(edges.items()))
    yield cells, edges
    yield cells + [cells[0]], edges  # a cell given twice
    yield cells, {k: v for k, v in edges.items() if k != (x, y)}  # an edge unlabeled
    yield cells, {**edges, (y, x): a}  # a label on no edge
    yield cells, {(y, x): a, **edges}  # one before the label of x's edge
    yield cells, {**edges, (x, Atom("zz")): a}
    yield cells, list(edges.items()) + [((x, y), a)]  # a repeated label
    yield cells, {**edges, (x, y): Atom("zz")}  # a relabelled edge
    siblings = [k for k in edges if k[0] == x and k != (x, y)]
    if siblings:  # two children of x under one action
        yield cells, {**edges, siblings[0]: a}
    big = [c for c in cells if len(c) > 1]
    if big:  # a cell split in two
        c = sorted(big[0], key=lambda n: n.name)
        yield [d for d in cells if d != big[0]] + [set(c[:1]), set(c[1:])], edges
    if len(cells) > 1:  # two cells merged
        i, j = rng.sample(range(len(cells)), 2)
        yield [d for k, d in enumerate(cells) if k not in (i, j)] + [cells[i] | cells[j]], edges
        yield cells + [cells[i] | cells[j]], edges  # a node in two cells
    yield cells[1:], edges  # a decision node in no cell
    yield cells + [set()], edges  # an empty cell
    yield [c | {ends[0]} for c in cells[:1]] + cells[1:], edges  # an end node in a cell
    yield [set(w)], edges


def _game_cases(rng, clt, mover, utilities):
    t = clt.tree
    (i, e), v = rng.choice(utilities)
    players = sorted(set(mover.values()), key=lambda n: n.name)
    x = rng.choice(sorted(t.decision_nodes, key=lambda n: n.name))
    run = _run(t, e)
    rest = [u for u in utilities if u[0] != (i, e)]
    yield mover, utilities
    yield mover, dict(utilities)
    yield mover, rest  # a dropped utility
    yield mover, utilities + [((i, e), v)]  # a repeated equal value
    yield mover, utilities + [((i, e), v + 1)]  # a conflicting value
    yield mover, rest + [((i, run), v)]  # a run-keyed utility
    yield mover, rest + [((i, set(run)), v)]
    yield mover, utilities + [((i, run), v + 1)]
    yield mover, rest + [((i, e), int(v))]  # an int-valued utility
    yield mover, rest + [((i, e), "x")]  # no rational
    yield mover, rest + [([i, e], v)]  # a key that is a list
    yield mover, rest + [((i, e, e), v)]  # a key that is no pair
    yield mover, utilities + [((i, x), v)]  # a utility at a decision node
    yield mover, utilities + [((Atom("nobody"), e), v)]  # at no player
    yield mover, utilities + [((i, run - {e}), v)]  # at a set that is no run
    yield mover, [((j, end), val / 3) for (j, end), val in utilities]
    yield {k: p for k, p in mover.items() if k != x}, utilities  # a mover missing
    yield {**mover, e: players[0]}, utilities  # a mover at an end node
    yield {**mover, x: Atom("other")}, utilities  # a cell split between movers


@pytest.mark.parametrize("seed", range(4))
def test_the_validators_agree_with_the_reference(seed):
    rng = random.Random(seed)
    kinds = Counter()
    for _ in range(60):
        g = random_game(rng, max_nodes=rng.choice([4, 8, 14]), util_range=(-3, 3))
        nodes, edges, cells, mover, utilities = _parts(g)
        rng.shuffle(nodes)
        for case in _tree_cases(rng, nodes, edges):
            _agree(ref_validate_out_tree, validate_out_tree, *case, kinds=kinds)
        tree = validate_out_tree(nodes, edges)
        for case in _clt_cases(rng, tree, cells, edges):
            _agree(ref_validate_clt, validate_clt, tree, *case, kinds=kinds)
        clt = validate_clt(tree, cells, edges)
        for case in _game_cases(rng, clt, mover, utilities):
            _agree(ref_validate_game, validate_game, clt, *case, kinds=kinds)
        # An iterator of pairs is read once: each validator gets its own.
        want = _outcome(ref_validate_game, clt, mover, iter(utilities))
        assert _outcome(validate_game, clt, mover, iter(utilities)) == want and want[0] == "ok"
    # Every code of the three validators is met, and valid parts of each form.
    assert set(kinds) >= {"ok", "NoRoot", "Trivial", "DanglingEdge", "HasCycle",
                          "NotAntisymmetric", "MultipleRoots", "LabelBad", "PartitionBad",
                          "NonDeterministic", "FeasibilityNotConstant", "MoverMissing",
                          "MoverNotConstant", "UtilityExtraneous", "UtilityNotRational",
                          "UtilityConflict", "UtilityMissing", "raised"}, kinds


def test_a_node_list_with_repeats_gives_each_node_once():
    g = random_game(random.Random(5), max_nodes=12)
    nodes, edges, cells, mover, utilities = _parts(g)
    t = validate_out_tree(nodes + nodes[::-1], edges)
    assert t.sorted_nodes == g.tree.sorted_nodes and t.ends == g.tree.ends
    assert t.order == ref_validate_out_tree(nodes, edges).order
