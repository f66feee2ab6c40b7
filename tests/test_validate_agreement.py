"""The three validators against a reference: the versions that ran every
witness scan on every input, before validity was decided first, with one
rule since changed: a node in two listed cells, equal ones included, is
rejected, and the witness is the least shared node. The morphism checks
(`validate_clt_morphism`, `validate_game_morphism` and `pushforward`)
against a reference too: the versions that found each witness by a scan in
term order that stops at the first failure.

Each validator, on random games and on mutations of their parts, must
return an object equal to the reference's in every field, or raise the
same error: a ValidationError or OperationError with the same code,
witness and detail, or another exception of the same type. The witnesses
of the checks that take the least offender are also re-checked with an
independent predicate: the witness fails its condition, and no lesser
element does.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from gamecat import (Atom, ValidationError, build_game, pushforward, term_key, validate_clt,
                     validate_clt_morphism, validate_game, validate_game_morphism,
                     validate_out_tree)
from gamecat.clt import CLT, _laid_out, _not_constant
from gamecat.errors import OperationError
from gamecat.game import Game
from gamecat.morphism import (CltMorphism, GameMorphism, _alpha_at, _order_violation,
                              _utility_orders)
from gamecat.terms import Tup, _sorted, encode_set
from gamecat.tree import _indexed, _run, run_end
from genrandom import (extend_under_new_root, fields, merge_two_ends, random_bijections,
                       random_game, relabel_iso)


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


def ref_validate_clt_morphism(src, tgt, node_map):
    node_map = dict(node_map)
    for x in src.tree.sorted_nodes:
        if x not in node_map:
            raise OperationError("BadNodeMap", witness=x, detail="node unmapped")
        if node_map[x] not in tgt.tree.nodes:
            raise OperationError("BadNodeMap", witness=x,
                                 detail="image is not a target node")
    extra = set(node_map) - src.tree.nodes
    if extra:
        raise OperationError("BadNodeMap", witness=min(extra), detail="map key is not a source node")
    tgt_pred = tgt.tree.pred
    for x in src.tree.sorted_nodes:
        for y in src.tree.children[x]:
            if tgt_pred.get(node_map[y]) is not node_map[x]:
                raise ValidationError("EdgeNotPreserved", witness=(x, y))
    cells = src.cells
    for cell in cells:
        images = {node_map[x] for x in cell}
        target_cell = tgt.info_of.get(next(iter(images)))
        if target_cell is None or not images <= target_cell:
            raise ValidationError("InfosetSplit", witness=cell)
    decision = [x for x in src.tree.sorted_nodes if x in src.tree.decision_nodes]
    alpha_at = {x: _alpha_at(src, tgt, node_map, x) for x in decision}
    split = _not_constant(cells, alpha_at)
    if split is not None:
        raise ValidationError("ActionTransformNotConstant", witness=split)
    alpha = {cell: alpha_at[next(iter(cell))] for cell in cells}
    return CltMorphism(source=src, target=tgt, node_map=node_map, alpha=alpha)


def ref_validate_game_morphism(src, tgt, node_map):
    cm = ref_validate_clt_morphism(src.clt, tgt.clt, node_map)
    node_map = cm.node_map
    for x in src.tree.sorted_nodes:
        if x in src.tree.end_nodes and node_map[x] not in tgt.tree.end_nodes:
            raise ValidationError("NotEndPreserving", witness=x)
    iota: dict = {}
    chosen_at: dict = {}
    for x in src.tree.sorted_nodes:
        if x not in src.tree.decision_nodes:
            continue
        i, i2 = src.mover[x], tgt.mover[node_map[x]]
        if i in iota and iota[i] != i2:
            raise ValidationError("NoPlayerTransform", witness=(chosen_at[i], x))
        if i not in iota:
            iota[i] = i2
            chosen_at[i] = x
    for i, a, b in _utility_orders(src, tgt, node_map, iota):
        bad = _order_violation(src.tree.ends, a, b)
        if bad is not None:
            raise ValidationError("UtilityNotPreserved",
                                  witness=(i, _run(src.tree, bad[0]), _run(src.tree, bad[1])))
    return GameMorphism(source=src, target=tgt, clt_morphism=cm, iota=iota)


def ref_pushforward(g, node_bij, action_bijs, player_bij):
    nb, pb = dict(node_bij), dict(player_bij)
    for bij, domain, what in ((nb, g.tree.nodes, "node map"), (pb, g.players, "player map")):
        if bij.keys() != domain or len(set(bij.values())) != len(bij):
            raise OperationError("NotBijective", detail=what)
    action_bijs = {x: dict(t) for x, t in action_bijs.items()}
    if set(action_bijs) != set(g.tree.decision_nodes):
        raise OperationError("NotBijective", detail="action maps must cover decision nodes")
    t, c = g.tree, g.clt
    for x in t.sorted_nodes:
        if x not in t.decision_nodes:
            continue
        table = action_bijs[x]
        if table.keys() != set(c.cell_actions[c.info_of[x]]) \
                or len(set(table.values())) != len(table):
            raise OperationError("NotBijective", witness=x, detail="action map at node")
    split = _not_constant(c.cells, action_bijs)
    if split is not None:
        raise OperationError("ActionBijsNotConstantOnInfoset", witness=split)
    image = nb.__getitem__
    tree = _indexed(frozenset(nb.values()), nb[t.root],
                    {nb[y]: nb[x] for y, x in t.pred.items()}, map(image, t.order))
    clt = _laid_out(tree, [frozenset(map(image, cell)) for cell in c.cells],
                    {nb[y]: action_bijs[t.pred[y]][a] for y, a in c.act.items()})
    g2 = Game(clt=clt, mover={nb[x]: pb[i] for x, i in g.mover.items()},
              players=frozenset(pb.values()),
              payoffs={pb[i]: {nb[e]: v for e, v in table.items()}
                       for i, table in g.payoffs.items()})
    alpha = {cell: action_bijs[next(iter(cell))] for cell in c.cells}
    cm = CltMorphism(source=c, target=clt, node_map=nb, alpha=alpha)
    return g2, GameMorphism(source=g, target=g2, clt_morphism=cm, iota=pb)


# Comparing outcomes.

def _outcome(f, *args):
    """("ok", every field of the result), ("error", the error's code,
    witness, detail and type) or ("raised", the type of another exception)."""
    try:
        r = f(*args)
    except (ValidationError, OperationError) as e:
        return "error", (e.code, e.witness, e.detail, type(e))
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return "raised", type(e)
    return "ok", fields(r)


def _agree(ref, new, *args, kinds):
    want, got = _outcome(ref, *args), _outcome(new, *args)
    assert got == want, args
    kinds[want[0] if want[0] != "error" else want[1][0]] += 1
    return got


# Independent predicates for the witnesses that are least offenders. Each
# reads the raw labels and maps, and orders by term_key, not by <.

def _key(t):
    return tuple(map(term_key, t)) if isinstance(t, tuple) else term_key(t)


def _least(witness, domain, fails):
    """witness fails, and no element of domain before it does."""
    assert fails(witness), witness
    assert not [x for x in domain if _key(x) < _key(witness) and fails(x)], witness


def _outgoing(label):
    """node -> the actions on its outgoing edges, in no order."""
    out: dict = {}
    for (x, _), a in label.items():
        out.setdefault(x, []).append(a)
    return out


def _recheck_morphism(error, src, tgt, node_map) -> bool:
    """Re-check a witness of validate_game_morphism or validate_clt_morphism
    whose condition has a least offender; False for the other conditions."""
    code, witness, detail, _ = error
    s_nodes, t_nodes, t_edges = src.tree.nodes, tgt.tree.nodes, set(tgt.clt.label)
    if code == "BadNodeMap" and detail == "map key is not a source node":
        assert all(node_map.get(x) in t_nodes for x in s_nodes)
        _least(witness, node_map, lambda x: x not in s_nodes)
    elif code == "BadNodeMap":
        assert detail == ("image is not a target node" if witness in node_map
                          else "node unmapped")
        _least(witness, s_nodes, lambda x: node_map.get(x) not in t_nodes)
    elif code == "EdgeNotPreserved":
        _least(witness, src.clt.label, lambda e: (node_map[e[0]], node_map[e[1]]) not in t_edges)
    elif code == "NotEndPreserving":
        ends, inner = s_nodes - _outgoing(src.clt.label).keys(), _outgoing(tgt.clt.label)
        _least(witness, ends, lambda x: x in ends and node_map[x] in inner)
    else:
        return False
    return True


def _recheck_pushforward(error, g, action_bijs) -> bool:
    code, witness, detail, _ = error
    if detail != "action map at node":
        return False
    feasible = {x: set(acts) for x, acts in _outgoing(g.clt.label).items()}

    def fails(x):
        table = action_bijs[x]
        return set(table) != feasible[x] or len(set(table.values())) != len(table)
    _least(witness, feasible, fails)
    return True


def _recheck_clt(error, tree, label) -> bool:
    code, witness, _, _ = error
    if code != "NonDeterministic":
        return False
    out = _outgoing(dict(label))
    x, a = witness
    assert out[x].count(a) > 1
    _least(x, tree.decision_nodes, lambda y: len(set(out[y])) < len(out[y]))
    return True


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
    wide = [v for v in w if len(tree.children[v]) > 1]
    if len(wide) > 1:  # the same at two nodes: the lesser is the witness
        yield cells, {**edges, **{(v, tree.children[v][1]): edges[(v, tree.children[v][0])]
                                  for v in rng.sample(wide, 2)}}
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
    big = [c for c in clt.cells if len(c) > 1]
    if big and len(players) > 1:  # the same between two players who both have utilities
        y = min(big[0])
        yield {**mover, y: next(p for p in players if p != mover[y])}, utilities


@pytest.mark.parametrize("seed", range(4))
def test_the_validators_agree_with_the_reference(seed):
    rng = random.Random(seed)
    kinds, rechecked = Counter(), Counter()
    for _ in range(60):
        g = random_game(rng, max_nodes=rng.choice([4, 8, 14]), util_range=(-3, 3))
        nodes, edges, cells, mover, utilities = _parts(g)
        rng.shuffle(nodes)
        for case in _tree_cases(rng, nodes, edges):
            _agree(ref_validate_out_tree, validate_out_tree, *case, kinds=kinds)
        tree = validate_out_tree(nodes, edges)
        for case in _clt_cases(rng, tree, cells, edges):
            got = _agree(ref_validate_clt, validate_clt, tree, *case, kinds=kinds)
            if got[0] == "error":
                rechecked[got[1][0]] += _recheck_clt(got[1], tree, case[1])
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
    assert rechecked["NonDeterministic"], rechecked


def test_a_node_list_with_repeats_gives_each_node_once():
    g = random_game(random.Random(5), max_nodes=12)
    nodes, edges, cells, mover, utilities = _parts(g)
    t = validate_out_tree(nodes + nodes[::-1], edges)
    assert t.sorted_nodes == g.tree.sorted_nodes and t.ends == g.tree.ends
    assert t.order == ref_validate_out_tree(nodes, edges).order


# The morphism checks.

def _changed_targets(rng, g):
    """Games on g's tree, or on g's tree grown, that g's identity map may not
    go into: a cell split, one member's actions permuted, ends grown into
    decision nodes, a cell given to a new player, a player's utilities
    reversed."""
    nodes, edges, cells, mover, utilities = _parts(g)
    t = g.tree
    big = [_sorted(c) for c in cells if len(c) > 1]
    if big:
        c = rng.choice(big)
        yield build_game(nodes, edges, [d for d in cells if d != set(c)]
                         + [set(c[:1]), set(c[1:])], mover, utilities)
        wide = [c for c in big if len(t.children[c[0]]) > 1]
        x = rng.choice(rng.choice(wide or big))
        kids = t.children[x]
        acts = [edges[(x, y)] for y in kids]
        yield build_game(nodes, {**edges, **{(x, y): a for y, a in zip(kids, acts[1:] + acts[:1])}},
                         cells, mover, utilities)
    grown = rng.sample(_sorted(t.end_nodes), min(2, len(t.ends)))
    players = _sorted(g.players)
    kids = {e: [Tup((e, Atom(k))) for k in "01"] for e in grown}
    yield build_game(nodes + [y for ys in kids.values() for y in ys],
                     {**edges, **{(e, y): Atom(f"g{k}") for e, ys in kids.items()
                                  for k, y in enumerate(ys)}},
                     cells + [{e} for e in grown], {**mover, **{e: players[0] for e in grown}},
                     [((i, e), v) for (i, e), v in utilities if e not in kids]
                     + [((i, y), v) for (i, e), v in utilities for y in kids.get(e, ())])
    moved = {**mover, **dict.fromkeys(rng.choice(cells), Atom("new player"))}
    yield build_game(nodes, edges, cells, moved,
                     [u for u in utilities if u[0][0] in moved.values()]
                     + [((Atom("new player"), e), 0) for e in t.ends])
    i = rng.choice(players)
    yield build_game(nodes, edges, cells, mover,
                     [((j, e), -v if j is i else v) for (j, e), v in utilities])


def _morphisms(rng, g):
    """(source, target, node map): the identity, a relabelling, an extension
    under a new root, an end-merging quotient, and g's identity map into
    each changed target."""
    yield g, g, {x: x for x in g.tree.nodes}
    for m in (relabel_iso(rng, g)[1], extend_under_new_root(rng, g)[1]):
        yield m.source, m.target, m.node_map
    merged = merge_two_ends(rng, g)
    if merged is not None:
        yield merged[1].source, merged[1].target, merged[1].node_map
    for h in _changed_targets(rng, g):
        yield g, h, {x: x for x in g.tree.nodes}


def _map_cases(rng, src, tgt, node_map):
    """node_map and its mutations."""
    s, t = src.tree, tgt.tree
    nodes, images = _sorted(s.nodes), _sorted(t.nodes)
    x, y = rng.sample(nodes, 2)
    yield node_map
    yield {k: v for k, v in node_map.items() if k != x}  # a dropped key
    yield {k: v for k, v in node_map.items() if k not in (x, y)}
    yield {**node_map, Atom("zz"): images[0]}  # a key that is no source node
    yield {**node_map, Atom("zz"): images[0], Tup(()): images[-1]}
    yield {**node_map, x: Atom("nowhere")}  # an image that is no target node
    # One node unmapped and one sent nowhere: the lesser names the detail.
    yield {**{k: v for k, v in node_map.items() if k != x}, y: Atom("nowhere")}
    yield {**node_map, x: node_map[y], y: node_map[x]}  # two images swapped
    z = rng.choice([n for n in nodes if n is not s.root])
    others = [v for v in images if t.pred.get(v) is not node_map[s.pred[z]]]
    if others:  # a child moved under another parent
        yield {**node_map, z: rng.choice(others)}
    for e in rng.sample(s.ends, min(2, len(s.ends))):  # an end sent to a decision node
        inner = [v for v in t.children[node_map[s.pred[e]]] if t.children[v]]
        if inner:
            yield {**node_map, e: inner[0]}


def _pushforward_cases(rng, g):
    nb, ab, pb = random_bijections(rng, g)
    nodes, decision, players = _sorted(g.tree.nodes), _sorted(g.tree.decision_nodes), _sorted(pb)
    x, y = rng.sample(nodes, 2)
    yield nb, ab, pb
    yield {k: v for k, v in nb.items() if k != x}, ab, pb  # node maps that are no bijections
    yield {**nb, x: nb[y]}, ab, pb
    yield {**nb, Atom("zz"): Atom("zz")}, ab, pb
    yield nb, ab, {k: v for k, v in pb.items() if k != players[0]}  # player maps
    yield nb, ab, {**pb, Atom("nobody"): Atom("nobody")}
    if len(players) > 1:
        yield nb, ab, {**pb, players[0]: pb[players[-1]]}
    yield nb, {k: v for k, v in ab.items() if k != decision[-1]}, pb  # action maps
    yield nb, {**ab, g.tree.ends[0]: {}}, pb
    broken = rng.sample(decision, min(2, len(decision)))
    for how in range(3):  # an action dropped, one added, two sent to one image
        bad = dict(ab)
        for z in broken:
            table = bad[z]
            a, b = min(table), max(table)
            bad[z] = ({k: v for k, v in table.items() if k != a}, {**table, Atom("zz"): table[a]},
                      {**table, a: table[b]})[how]
        yield nb, bad, pb
    cells = [c for c in g.clt.cells if len(c) > 1 and len(g.clt.cell_actions[c]) > 1]
    if cells:  # one member of a cell gets its own permutation
        z = rng.choice(_sorted(rng.choice(cells)))
        acts = list(ab[z])
        yield nb, {**ab, z: dict(zip(acts, [ab[z][a] for a in acts[1:] + acts[:1]]))}, pb


def _renamed(rng, g):
    """g with its nodes renamed to quoted, tuple and set names."""
    nb, _, _ = random_bijections(rng, g)
    return pushforward(g, nb, {x: {a: a for a in g.clt.feasible[x]} for x in g.tree.decision_nodes},
                       {i: i for i in g.players})[0]


@pytest.mark.parametrize("seed", range(4))
def test_the_morphism_checks_agree_with_the_reference(seed):
    rng = random.Random(100 + seed)
    met, rechecked = Counter(), Counter()  # by (code, detail)
    for k in range(40):
        g = random_game(rng, max_nodes=rng.choice([4, 8, 14]), util_range=(-3, 3))
        if k % 2:
            g = _renamed(rng, g)
        for src, tgt, node_map in _morphisms(rng, g):
            for case in _map_cases(rng, src, tgt, node_map):
                _agree(ref_validate_clt_morphism, validate_clt_morphism, src.clt, tgt.clt, case,
                       kinds=met)
                got = _agree(ref_validate_game_morphism, validate_game_morphism, src, tgt, case,
                             kinds=met)
                if got[0] == "error":
                    code, _, detail, _ = got[1]
                    met[code, detail] += 1
                    rechecked[code, detail] += _recheck_morphism(got[1], src, tgt, case)
        for case in _pushforward_cases(rng, g):
            got = _agree(ref_pushforward, pushforward, g, *case, kinds=met)
            if got[0] == "error":
                code, _, detail, _ = got[1]
                met[code, detail] += 1
                rechecked[code, detail] += _recheck_pushforward(got[1], g, case[1])
    # Every code and detail of the checks is met, valid maps of each form
    # too, and every least-offender witness is re-checked.
    least = {("BadNodeMap", "node unmapped"), ("BadNodeMap", "image is not a target node"),
             ("BadNodeMap", "map key is not a source node"), ("EdgeNotPreserved", ""),
             ("NotEndPreserving", ""), ("NotBijective", "action map at node")}
    assert set(met) >= {"ok", *least, ("InfosetSplit", ""), ("ActionTransformNotConstant", ""),
                        ("NoPlayerTransform", ""), ("UtilityNotPreserved", ""),
                        ("ActionBijsNotConstantOnInfoset", ""), ("NotBijective", "node map"),
                        ("NotBijective", "player map"),
                        ("NotBijective", "action maps must cover decision nodes")}, met
    assert {k for k, n in rechecked.items() if n} == least, rechecked
