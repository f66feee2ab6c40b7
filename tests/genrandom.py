"""Random games and random valid morphisms for the property suites.

Morphisms are generated constructively (relabelings, extensions under a new
root, end-merging quotients) so that validity holds by construction and the
suites exercise both injective and non-injective node/run maps. `fields`
lays a result out field by field, for comparing results in every field.
"""

from fractions import Fraction

from gamecat import (Atom, build_game, pushforward, term_key,
                     validate_game_morphism)
from gamecat.terms import FinSet, Tup, _Record

ACTION_POOL = list("abcdefghijkl")


def fields(r):
    """Every field of r, of the records in it and of each in a tuple."""
    if isinstance(r, tuple):
        return tuple(map(fields, r))
    if not isinstance(r, _Record):
        return r
    return {f: fields(getattr(r, f)) for f in r._fields}


def random_game(rng, max_nodes=10, max_players=4, max_actions=None,
                max_infosets=None, util_range=(-2, 3)):
    for _ in range(200):
        g = _try_random_game(rng, max_nodes, max_players, util_range)
        if max_actions is not None and any(
                len(g.clt.feasible[next(iter(c))]) > max_actions
                for c in g.clt.infosets):
            continue
        if max_infosets is not None and len(g.clt.infosets) > max_infosets:
            continue
        return g
    raise RuntimeError("could not generate a game within the requested bounds")


def _try_random_game(rng, max_nodes, max_players, util_range):
    n = rng.randint(2, max_nodes)
    nodes = [Atom(f"n{k}") for k in range(n)]
    children = {x: [] for x in nodes}
    for k in range(1, n):
        parent = nodes[rng.randrange(k)]
        children[parent].append(nodes[k])
    decision = [x for x in nodes if children[x]]

    # Group same-out-degree decision nodes into information sets.
    by_degree = {}
    for x in decision:
        by_degree.setdefault(len(children[x]), []).append(x)
    cells = []
    for degree, group in sorted(by_degree.items()):
        rng.shuffle(group)
        while group:
            take = rng.randint(1, len(group))
            cells.append((degree, group[:take]))
            group = group[take:]

    edges = {}
    mover = {}
    players = [Atom(f"P{k + 1}") for k in range(rng.randint(1, max_players))]
    for degree, cell in cells:
        actions = rng.sample(ACTION_POOL, degree)
        who = rng.choice(players)
        for x in cell:
            mover[x] = who
            kids = list(children[x])
            rng.shuffle(kids)
            for a, y in zip(actions, kids):
                edges[(x, y)] = Atom(a)

    ends = [x for x in nodes if not children[x]]
    used_players = sorted(set(mover.values()), key=term_key)
    utilities = {(i, e): Fraction(rng.randint(*util_range))
                 for i in used_players for e in ends}
    return build_game(nodes, edges, [c for _, c in cells], mover, utilities)


def relabel_iso(rng, g, prefix=None):
    """A pushforward along fresh random node/action/player names."""
    prefix = prefix or f"r{rng.randrange(10 ** 6)}"
    nodes = sorted(g.tree.nodes, key=term_key)
    order = list(range(len(nodes)))
    rng.shuffle(order)
    node_bij = {x: Atom(f"{prefix}x{k}") for x, k in zip(nodes, order)}
    action_bijs = {}
    for cidx, cell in enumerate(g.clt.cells):
        feas = sorted(g.clt.feasible[next(iter(cell))], key=term_key)
        perm = list(range(len(feas)))
        rng.shuffle(perm)
        table = {a: Atom(f"{prefix}a{cidx}.{k}") for a, k in zip(feas, perm)}
        for x in cell:
            action_bijs[x] = table
    players = sorted(g.players, key=term_key)
    porder = list(range(len(players)))
    rng.shuffle(porder)
    player_bij = {i: Atom(f"{prefix}p{k}") for i, k in zip(players, porder)}
    return pushforward(g, node_bij, action_bijs, player_bij)


def random_bijections(rng, g):
    """Nodes renamed to quoted, tuple and set names in a shuffled order,
    each cell's actions permuted, the players permuted: the bijections
    pushforward takes."""
    nodes = list(g.tree.sorted_nodes)
    rng.shuffle(nodes)
    styles = [lambda k: Atom(f"n {k}"), lambda k: Tup((Atom("n"), Atom(str(k)))),
              lambda k: FinSet((Atom(str(k)), Tup(())))]
    node_bij = {x: rng.choice(styles)(k) for k, x in enumerate(nodes)}
    action_bijs = {}
    for cell in g.clt.cells:
        acts = g.clt.cell_actions[cell]
        action_bijs.update(dict.fromkeys(cell, dict(zip(acts, rng.sample(acts, len(acts))))))
    players = sorted(g.players, key=term_key)
    return node_bij, action_bijs, dict(zip(players, rng.sample(players, len(players))))


def extend_under_new_root(rng, g):
    """Embed g under a fresh root; returns (bigger game, inclusion morphism)."""
    suffix = rng.randrange(10 ** 6)
    new_root = Atom(f"x{suffix}")
    extra_end = Atom(f"y{suffix}") if rng.random() < 0.5 else None
    nodes = set(g.tree.nodes) | {new_root}
    edges = dict(g.clt.label)
    edges[(new_root, g.tree.root)] = Atom("w1")
    if extra_end is not None:
        nodes.add(extra_end)
        edges[(new_root, extra_end)] = Atom("w2")
    infosets = list(g.clt.infosets) + [frozenset({new_root})]
    mover = dict(g.mover)
    new_player = rng.random() < 0.5
    mover[new_root] = Atom(f"Q{suffix}") if new_player else rng.choice(
        sorted(g.players, key=term_key))
    players = sorted(set(mover.values()), key=term_key)
    old_ends = sorted(g.tree.end_nodes, key=term_key)
    ends = old_ends + ([extra_end] if extra_end is not None else [])
    utilities = {}
    for i in players:
        for e in ends:
            if i in g.players and e in g.tree.end_nodes:
                utilities[(i, e)] = g.utilities[(i, e)]
            else:
                utilities[(i, e)] = Fraction(rng.randint(-2, 3))
    big = build_game(nodes, edges, infosets, mover, utilities)
    inc = validate_game_morphism(g, big, {x: x for x in g.tree.nodes})
    return big, inc


def merge_two_ends(rng, g, adjust=True):
    """Quotient two end-siblings of a singleton-infoset node.

    Returns (source, morphism) where the morphism's node map is not
    injective and its run map collapses two runs, or None when no node
    qualifies. Collapsing runs must agree in utility; with adjust=True the
    source is g with the two runs forced equal, with adjust=False only
    already-equal pairs qualify and the source is g itself.
    """
    candidates = []
    for x in sorted(g.tree.decision_nodes, key=term_key):
        if len(g.clt.info_of[x]) != 1:
            continue
        end_kids = sorted((y for y in g.tree.children[x]
                           if y in g.tree.end_nodes), key=term_key)
        for k1 in range(len(end_kids)):
            for k2 in range(k1 + 1, len(end_kids)):
                a, b = end_kids[k1], end_kids[k2]
                if not adjust and any(g.utilities[(i, a)] != g.utilities[(i, b)]
                                      for i in g.players):
                    continue
                candidates.append((x, a, b))
    if not candidates:
        return None
    x, e1, e2 = candidates[rng.randrange(len(candidates))]

    if adjust:
        src_utils = dict(g.utilities)
        for i in g.players:
            src_utils[(i, e2)] = src_utils[(i, e1)]
        src = build_game(g.tree.nodes, dict(g.clt.label), g.clt.infosets,
                         g.mover, src_utils)
    else:
        src = g

    tgt_edges = {e: a for e, a in g.clt.label.items() if e != (x, e2)}
    tgt_nodes = set(g.tree.nodes) - {e2}
    tgt_utils = {k: v for k, v in src.utilities.items() if k[1] != e2}
    tgt = build_game(tgt_nodes, tgt_edges, g.clt.infosets, g.mover, tgt_utils)
    tau = {v: (e1 if v == e2 else v) for v in g.tree.nodes}
    return src, validate_game_morphism(src, tgt, tau)


def random_morphism(rng, g, fixed_source=False):
    """A random valid game morphism. With fixed_source=True the returned
    morphism's source is exactly g, so morphisms chain into composable
    sequences; otherwise the source may be g with two run utilities
    equalized (to allow a run-collapsing quotient)."""
    kind = rng.random()
    if kind < 0.25:
        return validate_game_morphism(g, g, {x: x for x in g.tree.nodes})
    if kind < 0.55:
        _, cert = relabel_iso(rng, g)
        return cert
    if kind < 0.8:
        _, inc = extend_under_new_root(rng, g)
        return inc
    merged = merge_two_ends(rng, g, adjust=not fixed_source)
    if merged is None:
        _, cert = relabel_iso(rng, g)
        return cert
    return merged[1]
