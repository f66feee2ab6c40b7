"""Morphisms of labeled trees and of games.

A tree-level morphism is a node map that preserves edges, never splits an
information set, and transforms actions identically across each information
set. A game morphism additionally preserves ends, movers (via a derived
player transformation), and the ordinal content of utilities. Validation
reports the first violated condition, in a fixed order, with a witness:
each condition's least offender.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .clt import CLT, _laid_out, _not_constant
from .errors import OperationError, ValidationError
from .game import Game, _game
from .terms import Atom, Term, _Record, _sorted
from .tree import _indexed, _run, _runs, run_end, strict_predecessors


class CltMorphism(_Record, compare=("source", "target", "node_map")):
    source: CLT
    target: CLT
    node_map: dict
    alpha: dict  # cell -> {action -> action}, by encoding

    __hash__ = None


class GameMorphism(_Record, compare=("source", "target", "clt_morphism")):
    source: Game
    target: Game
    clt_morphism: CltMorphism
    iota: dict  # player -> player

    __hash__ = None

    @property
    def node_map(self):
        return self.clt_morphism.node_map

    @cached_property
    def zeta(self) -> dict:
        """Run -> run: each run goes to the run through its end's image."""
        ends, tau = self.source.tree.ends, self.node_map
        src = _runs(self.source.tree)
        tgt = _runs(self.target.tree, {tau[e] for e in ends})
        return {src[e]: tgt[tau[e]] for e in ends}


def validate_clt_morphism(src: CLT, tgt: CLT, node_map) -> CltMorphism:
    node_map = dict(node_map)
    get, nodes = node_map.get, tgt.tree.nodes
    bad = [x for x in src.tree.nodes if get(x) not in nodes]
    if bad:
        x = min(bad)
        raise OperationError("BadNodeMap", witness=x, detail="image is not a target node"
                             if x in node_map else "node unmapped")
    extra = set(node_map) - src.tree.nodes
    if extra:
        raise OperationError("BadNodeMap", witness=min(extra), detail="map key is not a source node")

    tgt_pred = tgt.tree.pred  # the least pair: x first, then y among x's children
    bad = [(x, y) for y, x in src.tree.pred.items() if tgt_pred.get(node_map[y]) is not node_map[x]]
    if bad:
        raise ValidationError("EdgeNotPreserved", witness=min(bad))

    cells = src.cells
    for cell in cells:
        images = {node_map[x] for x in cell}
        anchor = next(iter(images))
        target_cell = tgt.info_of.get(anchor)
        if target_cell is None or not images <= target_cell:
            raise ValidationError("InfosetSplit", witness=cell)

    alpha_at = {x: _alpha_at(src, tgt, node_map, x) for x in src.info_of}
    split = _not_constant(cells, alpha_at)
    if split is not None:
        raise ValidationError("ActionTransformNotConstant", witness=split)
    alpha = {cell: alpha_at[next(iter(cell))] for cell in cells}

    return CltMorphism(source=src, target=tgt, node_map=node_map, alpha=alpha)


def _alpha_at(src: CLT, tgt: CLT, node_map, x) -> dict:
    """x's actions in term order -> the actions on the images of their
    edges: the image of the edge into y is the edge into node_map[y]."""
    act = tgt.act
    return {a: act[node_map[y]]
            for a, y in zip(src.cell_actions[src.info_of[x]], src.succ[x])}


def action_at(m: CltMorphism, x: Term, a: Term) -> Term:
    if x not in m.source.tree.decision_nodes:
        raise OperationError("NotDecision", witness=x)
    table = m.alpha[m.source.info_of[x]]
    if a not in table:
        raise OperationError("NotFeasible", witness=(x, a))
    return table[a]


def validate_game_morphism(src: Game, tgt: Game, node_map) -> GameMorphism:
    cm = validate_clt_morphism(src.clt, tgt.clt, node_map)
    node_map = cm.node_map

    bad = [x for x in src.tree.end_nodes if node_map[x] not in tgt.tree.end_nodes]
    if bad:
        raise ValidationError("NotEndPreserving", witness=min(bad))

    iota: dict = {}
    chosen_at: dict = {}  # player -> the least node that fixed its image
    for x in filter(src.tree.decision_nodes.__contains__, src.tree.sorted_nodes):
        i, i2 = src.mover[x], tgt.mover[node_map[x]]
        if iota.setdefault(i, i2) != i2:
            raise ValidationError("NoPlayerTransform", witness=(chosen_at[i], x))
        chosen_at.setdefault(i, x)

    for i, a, b in _utility_orders(src, tgt, node_map, iota):
        bad = _order_violation(src.tree.ends, a, b)
        if bad is not None:
            raise ValidationError("UtilityNotPreserved",
                                  witness=(i, _run(src.tree, bad[0]), _run(src.tree, bad[1])))

    return GameMorphism(source=src, target=tgt, clt_morphism=cm, iota=iota)


def _utility_orders(src: Game, tgt: Game, node_map, iota):
    """(i, i's utility ranks, iota(i)'s at the images), keyed by source end
    node: ranks order the ends as the utilities do."""
    for i in _sorted(src.players):
        image = tgt.ranks[iota[i]]
        yield i, src.ranks[i], {e: image[node_map[e]] for e in src.tree.ends}


def _order_violation(zs, a, b):
    """The first (z1, z2) of zs x zs in row-major order with a[z1] >= a[z2]
    but b[z1] < b[z2], or None: in O(R log R), as a sort by a with a running
    maximum of b gives the largest b at or below each value of a."""
    top: dict = {}
    best = None
    for z in sorted(zs, key=a.__getitem__):
        best = b[z] if best is None else max(best, b[z])
        top[a[z]] = best
    for z1 in zs:
        if top[a[z1]] > b[z1]:
            return z1, next(z2 for z2 in zs if a[z2] <= a[z1] and b[z2] > b[z1])
    return None


def run_at(gm: GameMorphism, z: frozenset) -> frozenset:
    return _run(gm.target.tree, gm.node_map[run_end(gm.source.tree, z)])


_VALIDATE = {GameMorphism: validate_game_morphism, CltMorphism: validate_clt_morphism}


def identity_clt_morphism(c: CLT) -> CltMorphism:
    return validate_clt_morphism(c, c, {x: x for x in c.tree.nodes})


def identity_morphism(g: Game) -> GameMorphism:
    return validate_game_morphism(g, g, {x: x for x in g.tree.nodes})


def compose(m2, m1):
    """The composite applying m1 first, then m2."""
    if type(m1) is not type(m2) or type(m1) not in _VALIDATE:
        raise OperationError("SourceTargetMismatch", detail="mixed morphism kinds")
    if m1.target != m2.source:
        raise OperationError("SourceTargetMismatch")
    node_map = {x: m2.node_map[v] for x, v in m1.node_map.items()}
    return _VALIDATE[type(m1)](m1.source, m2.target, node_map)


def forget(gm: GameMorphism) -> CltMorphism:
    return gm.clt_morphism


def is_mono(m) -> bool:
    if isinstance(m, GameMorphism):
        # Runs have equal images exactly when their ends do.
        ends = m.source.tree.ends
        return len({m.node_map[e] for e in ends}) == len(ends)
    images = set(m.node_map.values())
    return len(images) == len(m.node_map)


def clt_mono_witness(m: CltMorphism):
    """Two distinct morphisms from a two-node tree with equal composites,
    when the node map is not injective; None otherwise."""
    by_image: dict = {}  # image -> the first node with it, in term order
    for x2 in m.source.tree.sorted_nodes:
        x1 = by_image.setdefault(m.node_map[x2], x2)
        if x1 is not x2:
            break
    else:
        return None
    # The root cannot collide: it strictly precedes every other node and
    # morphisms preserve strict order. So both nodes have predecessors.
    n0, n1 = Atom("0*"), Atom("1*")
    probe = _laid_out(_indexed(frozenset((n0, n1)), n0, {n1: n0}, (n0, n1)),
                      [frozenset({n0})], {n1: Atom("*")})
    pred = m.source.tree.pred
    return (validate_clt_morphism(probe, m.source, {n0: pred[x1], n1: x1}),
            validate_clt_morphism(probe, m.source, {n0: pred[x2], n1: x2}))


def mono_witness(gm: GameMorphism):
    """Two distinct game morphisms from a single-run path game with equal
    composites, when the run transformation is not injective; else None."""
    # Runs have equal images exactly when their ends do; the first pair in
    # run order is the first class with two members, and its first two.
    tau = gm.node_map
    by_image: dict = {}
    for e in gm.source.tree.ends:
        by_image.setdefault(tau[e], []).append(e)
    pair = next((ends[:2] for ends in by_image.values() if len(ends) > 1), None)
    if pair is None:
        return None
    e1, e2 = pair
    t = gm.source.tree
    path1 = strict_predecessors(t, e1) + [e1]
    path2 = strict_predecessors(t, e2) + [e2]
    # Equal run images force equal node-image chains, position by position.
    if len(path1) != len(path2) or any(tau[a] != tau[b] for a, b in zip(path1, path2)):
        raise OperationError("InvariantBroken", witness=(e1, e2),
                             detail="runs with equal images have unequal node-image chains")

    # The probe is the single-run game on path1, its own preorder: singleton
    # information sets, each decision node its own player, zero utilities.
    clt = _laid_out(_indexed(frozenset(path1), path1[0], dict(zip(path1[1:], path1)), path1),
                    [frozenset({x}) for x in path1[:-1]], dict.fromkeys(path1[1:], Atom("*")))
    probe = _game(clt, {x: x for x in path1[:-1]}, {x: {e1: Fraction(0)} for x in path1[:-1]})
    return (validate_game_morphism(probe, gm.source, {x: x for x in path1}),
            validate_game_morphism(probe, gm.source, dict(zip(path1, path2))))


def is_iso(m) -> bool:
    if isinstance(m, GameMorphism):
        if not is_iso(m.clt_morphism):
            return False
        if len(set(m.iota.values())) != len(m.iota):
            return False
        # The ends biject: dense ranks agree both ways exactly when equal.
        return all(a == b for _, a, b in _utility_orders(m.source, m.target, m.node_map, m.iota))
    if len(set(m.node_map.values())) != len(m.source.tree.nodes):
        return False
    if len(m.source.tree.nodes) != len(m.target.tree.nodes):
        return False
    cell_images = {frozenset(m.node_map[x] for x in cell) for cell in m.source.cells}
    return cell_images == set(m.target.cells)


def inverse(m):
    if not is_iso(m):
        raise OperationError("NotIso")
    return _VALIDATE[type(m)](m.target, m.source, {v: x for x, v in m.node_map.items()})


def pushforward(g: Game, node_bij, action_bijs, player_bij):
    """Rebuild a game along bijections of nodes, actions, and players.

    Returns the rebuilt game and the certifying isomorphism from g to it.
    action_bijs maps each decision node to a bijection on its feasible set
    and must be constant across each information set.

    Only the bijections are checked: a bijective renaming of a valid game
    is a valid game, and an isomorphism in Gm onto it whose alpha is each
    cell's action map and whose iota is the player map. So both are built
    by transport, with no validator, in `_transport`, the core that the
    checks end in and that the converters call directly.
    """
    nb, pb = dict(node_bij), dict(player_bij)
    for bij, domain, what in ((nb, g.tree.nodes, "node map"), (pb, g.players, "player map")):
        if bij.keys() != domain or len(set(bij.values())) != len(bij):
            raise OperationError("NotBijective", detail=what)
    action_bijs = {x: dict(t) for x, t in action_bijs.items()}
    if set(action_bijs) != set(g.tree.decision_nodes):
        raise OperationError("NotBijective", detail="action maps must cover decision nodes")
    c = g.clt
    bad = [x for x, table in action_bijs.items() if table.keys() != set(
        c.cell_actions[c.info_of[x]]) or len(set(table.values())) != len(table)]
    if bad:
        raise OperationError("NotBijective", witness=min(bad), detail="action map at node")
    split = _not_constant(c.cells, action_bijs)
    if split is not None:
        raise OperationError("ActionBijsNotConstantOnInfoset", witness=split)
    return _transport(g, nb, action_bijs, pb)


def _transport(g: Game, nb: dict, action_bijs: dict, pb: dict):
    """pushforward's build along unchecked bijections: every field maps through them. The
    nodes are sorted once, met in the preorder by action (`succ`), term order for the
    sequence forms; the CLT is laid out by `clt` from the renamed cells and actions."""
    t, c = g.tree, g.clt
    tree = t  # kept when every node maps to itself
    if any(x is not y for x, y in nb.items()):
        listed, stack = [], [t.root]
        while stack:
            listed.append(nb[x := stack.pop()])
            stack += reversed(c.succ.get(x, ()))
        tree = _indexed(frozenset(listed), nb[t.root], {nb[y]: nb[x] for y, x in t.pred.items()},
                        map(nb.__getitem__, t.order), listed)
    clt = _laid_out(tree, [frozenset(map(nb.__getitem__, cell)) for cell in c.cells],
                    {nb[y]: action_bijs[t.pred[y]][a] for y, a in c.act.items()})
    g2 = Game(clt=clt, mover={nb[x]: pb[i] for x, i in g.mover.items()},
              players=frozenset(pb.values()),
              payoffs={pb[i]: {nb[e]: v for e, v in table.items()}
                       for i, table in g.payoffs.items()})
    alpha = {cell: action_bijs[next(iter(cell))] for cell in c.cells}
    cm = CltMorphism(source=c, target=clt, node_map=nb, alpha=alpha)
    return g2, GameMorphism(source=g, target=g2, clt_morphism=cm, iota=pb)


def _colours(g: Game, table: dict) -> dict:
    """Each node of g -> its key's number in table. No key names a node,
    action or player: a player's is (0, *its sorted ranks), an end's
    (2, *its sorted (player colour, rank) pairs) and a decision node's
    (1, depth, cell size, *its sorted child colours)."""
    depth, children, info_of = g.tree.depth, g.tree.children, g.clt.info_of
    players = [(table.setdefault((0, *sorted(r.values())), len(table)), r) for r in g.ranks.values()]
    colour: dict = {}
    for x in reversed(g.tree.order):  # children before their parent
        kids = children[x]
        if kids:
            key = (1, depth[x], len(info_of[x]), *sorted([colour[y] for y in kids]))
        else:
            key = (2, *sorted([(c, r[x]) for c, r in players]))
        colour[x] = table.setdefault(key, len(table))
    return colour


def iso_search(g1: Game, g2: Game):
    """Search for an isomorphism from g1 to g2; None when there is none.

    Backtracking over root-preserving node bijections, re-validating each
    complete one: a source node is tried on the target nodes of its colour
    (`_colours`) that keep the parent and child links already assigned.
    The witness is the least isomorphism by the source nodes' images in
    term order, each in term order (`"a b"` encodes before `a`, sorts after).
    """
    t1, t2 = g1.tree, g2.tree
    table: dict = {}  # key -> colour, shared by the two games
    col1, col2 = _colours(g1, table), _colours(g2, table)
    if col1[t1.root] != col2[t2.root]:
        return None
    # Equal roots give equal colour multisets; only roots have depth 0.
    by_colour: dict = {}
    for v in t2.sorted_nodes:
        by_colour.setdefault(col2[v], []).append(v)
    order = t1.sorted_nodes
    candidates = [by_colour[col1[x]] for x in order]

    def consistent(x, v):
        if x != t1.root:
            px = t1.pred[x]
            if px in assignment and t2.pred.get(v) != assignment[px]:
                return False
        for k in t1.children[x]:
            if k in assignment and t2.pred.get(assignment[k]) != v:
                return False
        return True

    # Depth first, one candidate iterator per level of order on the stack.
    assignment: dict = {}
    used = set()
    stack = [iter(candidates[0])]
    while stack:
        x = order[len(stack) - 1]
        if x in assignment:
            used.remove(assignment.pop(x))
        v = next((v for v in stack[-1] if v not in used and consistent(x, v)), None)
        if v is None:
            stack.pop()
            continue
        assignment[x] = v
        used.add(v)
        if len(stack) < len(order):
            stack.append(iter(candidates[len(stack)]))
            continue
        try:
            m = validate_game_morphism(g1, g2, dict(assignment))
        except ValidationError:
            continue
        if is_iso(m):
            return m
    return None
