import random
import time
from collections import Counter

import pytest

from gamecat import (Atom, GameError, OperationError, ValidationError, build_game, descendants,
                     identity_morphism, is_selten_subgame, one_player_zero_game, properties,
                     selten_subclt, selten_subgame, subgame_roots, validate_clt, validate_game,
                     validate_game_morphism, validate_out_tree)
from gamecat.cli import main
from gamecat.subgame import SeltenResult
from examplegames import A, trio_a, nested, innerwrap, flatten, make_game
from genrandom import fields, random_game, relabel_iso
from oracles import oracle_subgame_roots


def test_subclt_at_inner_singleton_root():
    g = nested()
    sub = selten_subclt(g.clt, A(24))
    assert len(sub.tree.nodes) == 3
    assert sub.tree.root == A(24)


def test_subclt_at_root_is_the_whole_clt():
    g = nested()
    assert selten_subclt(g.clt, A(0)) == g.clt


def test_subclt_fails_on_straddled_infoset():
    g = nested()
    with pytest.raises(ValidationError) as e:
        selten_subclt(g.clt, A(11))
    assert e.value.code == "NotExists"
    assert e.value.witness == frozenset({A(11), A(12)})


def test_subclt_requires_a_decision_node():
    g = nested()
    with pytest.raises(OperationError) as e:
        selten_subclt(g.clt, A(21))
    assert e.value.code == "NotDecisionNode"
    with pytest.raises(OperationError):
        selten_subclt(g.clt, A(99))


def test_subgame_at_root_is_the_game_itself():
    for g in (trio_a(), nested()):
        res = selten_subgame(g, g.tree.root)
        assert res.subgame == g
        assert res.inclusion == identity_morphism(g)


def test_subgame_fails_like_subclt():
    g = nested()
    with pytest.raises(ValidationError) as e:
        selten_subgame(g, A(11))
    assert e.value.code == "NotExists"


def test_subgame_utilities_are_the_completed_run_utilities():
    g = make_game({(0, 1): "a", (1, 2): "b", (1, 3): "c"},
                  [{0}, {1}], {0: "P1", 1: "P1"},
                  {("P1", 2): 5, ("P1", 3): 7})
    res = selten_subgame(g, A(1))
    sub = res.subgame
    assert sub.tree.nodes == frozenset({A(1), A(2), A(3)})
    assert sub.utility(A("P1"), frozenset({A(1), A(2)})) == \
        g.utility(A("P1"), frozenset({A(0), A(1), A(2)}))
    assert res.inclusion.zeta[frozenset({A(1), A(2)})] == \
        frozenset({A(0), A(1), A(2)})


def test_subgame_roots_examples():
    assert subgame_roots(nested()) == {A(0), A(24)}
    # the shared information set {3,4} straddles every proper subtree, so
    # the root is the only node with a subgame
    assert subgame_roots(trio_a()) == {A(0)}


def test_selten_characterization_accepts_real_subgames():
    g = trio_a()
    for r in subgame_roots(g):
        res = selten_subgame(g, r)
        assert is_selten_subgame(res.subgame, g)


def test_selten_characterization_rejects_infoset_mismatch():
    # same tree restriction, but the small game keeps an information set
    # absent from the big one
    small, big = innerwrap()
    assert not is_selten_subgame(small, big)


def test_selten_characterization_rejects_utility_mismatch():
    g1, g2 = flatten()
    assert not is_selten_subgame(g1, g2)


def test_selten_characterization_rejects_each_broken_condition():
    # P1 at 0 chooses between 2 and P2's node 1, which chooses 3 or 4.
    g = make_game({(0, 1): "a", (0, 2): "b", (1, 3): "c", (1, 4): "d"}, [{0}, {1}],
                  {0: "P1", 1: "P2"}, {("P1", 2): 0, ("P1", 3): 1, ("P1", 4): 2,
                                       ("P2", 2): 0, ("P2", 3): 0, ("P2", 4): 1})

    def at_1(edges=None, player="P2", utility=None):
        edges = edges or {(1, 3): "c", (1, 4): "d"}
        utility = utility or {3: 0, 4: 1}
        (root,) = {x for x, _ in edges}
        return make_game(edges, [{root}], {root: player},
                         {(player, e): utility.get(e, 0) for _, e in edges})

    assert is_selten_subgame(at_1(), g)
    rejected = [
        at_1(edges={(2, 3): "c", (2, 4): "d"}),  # root 2 is an end of g
        at_1(edges={(1, 3): "c", (1, 4): "d", (1, 9): "e"}),  # 9 is not a node of g
        at_1(edges={(1, 3): "c"}),  # 4 is missing
        at_1(utility={3: 1, 4: 0}),  # P2's order is reversed: no morphism
        at_1(edges={(1, 3): "x", (1, 4): "y"}),  # alpha renames the actions
        at_1(player="P3"),  # iota renames the player
    ]
    for sub in rejected:
        assert not is_selten_subgame(sub, g)
    assert not is_selten_subgame(g, at_1())  # 0 is not a node of the smaller game


def test_subgame_roots_transported_by_isomorphisms():
    rng = random.Random(31)
    for _ in range(15):
        g = random_game(rng, max_nodes=10)
        g2, cert = relabel_iso(rng, g)
        tau = cert.node_map
        assert subgame_roots(g2) == {tau[r] for r in subgame_roots(g)}


def test_random_subgames_pass_the_characterization():
    rng = random.Random(37)
    for _ in range(15):
        g = random_game(rng, max_nodes=10)
        for r in subgame_roots(g):
            res = selten_subgame(g, r)
            assert is_selten_subgame(res.subgame, g)


def test_subgame_roots_match_the_oracle_on_1000_random_games():
    rng = random.Random(71)
    absent_minded = 0
    for _ in range(1000):
        g = random_game(rng, max_nodes=14, max_players=3)
        absent_minded += not properties(g).no_absentmindedness
        assert subgame_roots(g) == set(oracle_subgame_roots(g))
    assert absent_minded > 300


def test_subgames_of_a_10000_node_path_within_seconds(tmp_path, capsys):
    n = 10_000
    lines = ["game path", "node s", *(f"node {k}" for k in range(n)), "edge 0 s b",
             *(f"edge {k} {k + 1} a" for k in range(n - 1)),
             *(f"infoset i{k} {{ {k} }}\nplayer P1 infoset i{k}" for k in range(n - 1)),
             f"utility P1 end {n - 1} 1", "utility P1 end s 0"]
    path = tmp_path / "path.gm"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    start = time.perf_counter()
    assert main(["--format", "machine", "subgames", str(path)]) == 0
    assert time.perf_counter() - start < 10
    out = capsys.readouterr().out.splitlines()
    assert len(out) == n - 1 and all(line.startswith("subgame_root ") for line in out)


# The restriction and the characterization as built through the public
# validators and the morphism validator: the references that the versions
# on the stored forms must agree with.
def reference_selten_subclt(c, r):
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


def reference_selten_subgame(g, r):
    sub_clt = reference_selten_subclt(g.clt, r)
    below = sub_clt.tree.nodes
    mover = {x: g.mover[x] for x in sub_clt.tree.decision_nodes}
    players = set(mover.values())
    # A run of the subgame completes to the run of g with the same end node,
    # so utilities restrict by end node.
    utilities = {(i, end): g.payoffs[i][end] for i in players for end in sub_clt.tree.ends}
    sub = validate_game(sub_clt, mover, utilities)
    inclusion = validate_game_morphism(sub, g, {x: x for x in below})
    return SeltenResult(root=r, subgame=sub, inclusion=inclusion)


def reference_is_selten_subgame(sub, sup):
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


def assert_preorder(tree):
    """tree's order (in its fields) lists each node once, each subtree as
    an interval that starts at the subtree's root."""
    order, pred = tree["order"], tree["pred"]
    below = {x: {x} for x in order}
    for y in order:
        x = y
        while x in pred:
            x = pred[x]
            below[x].add(y)
    assert len(order) == len(set(order)) == len(tree["nodes"]) and order[0] == tree["root"]
    for k, x in enumerate(order):
        assert set(order[k:k + len(below[x])]) == below[x]


def assert_same_fields(new, ref):
    """new equals ref in every field, but an OutTree's order, which needs
    only be a preorder with contiguous subtree intervals."""
    if isinstance(ref, dict) and {"order", "pred"} <= ref.keys():  # an OutTree's fields
        assert_preorder(new)
        new, ref = ({k: v for k, v in d.items() if k != "order"} for d in (new, ref))
    if isinstance(ref, dict):
        assert new.keys() == ref.keys()
        for k in ref:
            assert_same_fields(new[k], ref[k])
    elif isinstance(ref, (tuple, list)):
        assert type(new) is type(ref) and len(new) == len(ref)
        for a, b in zip(new, ref):
            assert_same_fields(a, b)
    else:
        assert new == ref


def test_restriction_matches_the_validated_reference_on_random_games():
    rng = random.Random(3401)
    made = Counter()
    for _ in range(300):
        g = random_game(rng, max_nodes=14, max_players=3)
        for r in g.tree.sorted_nodes:
            try:
                want = reference_selten_subgame(g, r)
            except GameError as e:
                for op, arg in ((selten_subclt, g.clt), (selten_subgame, g)):
                    with pytest.raises(type(e)) as got:
                        op(arg, r)
                    assert (got.value.code, got.value.witness) == (e.code, e.witness)
                made[e.code] += 1
                continue
            got = selten_subgame(g, r)
            assert_same_fields(fields(selten_subclt(g.clt, r)), fields(want.subgame.clt))
            assert_same_fields(fields(got), fields(want))
            # GameMorphism == reads no alpha or iota: compare them explicitly.
            assert got.inclusion.node_map == want.inclusion.node_map
            assert got.inclusion.clt_morphism.alpha == want.inclusion.clt_morphism.alpha
            assert got.inclusion.iota == want.inclusion.iota
            made["restricted"] += 1
    assert made["restricted"] > 600 and made["NotExists"] > 400, made
    assert made["NotDecisionNode"] > 1000, made


def assert_same_verdict(sub, sup, made, kind):
    verdict = is_selten_subgame(sub, sup)
    assert verdict == reference_is_selten_subgame(sub, sup), kind
    made[kind, verdict] += 1


def mutants(rng, sub, sup):
    """(kind, game): sub with one part changed, each a valid game."""
    nodes, label, mover, utilities = set(sub.tree.nodes), dict(sub.clt.label), dict(sub.mover), \
        dict(sub.utilities)
    cells = [set(cell) for cell in sub.clt.cells]

    def rebuild(nodes=nodes, label=label, cells=cells, mover=mover, utilities=utilities):
        return build_game(nodes, label, cells, mover, utilities)

    k = rng.randrange(len(cells))
    cell, x = cells[k], min(cells[k])
    a = rng.choice(sub.clt.cell_actions[sub.clt.info_of[x]])
    yield "action renamed", rebuild(label={(u, v): Atom("new") if u in cell and b is a else b
                                           for (u, v), b in label.items()})
    i = mover[x]
    j = rng.choice(sorted(sup.players - {i}) + [Atom("Pnew")])
    moved = {y: j if y in cell else p for y, p in mover.items()}
    paid = {**{(j, e): v for (p, e), v in utilities.items() if p is i}, **utilities}
    yield "mover renamed", rebuild(mover=moved, utilities={
        (p, e): v for (p, e), v in paid.items() if p in moved.values()})
    yield "utility kept in order", rebuild(utilities={
        (p, e): 2 * v + 1 if p is i else v for (p, e), v in utilities.items()})
    low = min(sub.tree.ends, key=lambda e: sub.payoffs[i][e])
    top = max(sub.payoffs[i].values()) + 1
    yield "utility out of order", rebuild(utilities={**utilities, (i, low): top})
    if len(cell) > 1:
        yield "cell split", rebuild(cells=[*cells[:k], {x}, cell - {x}, *cells[k + 1:]])
    single = {y for y in sub.tree.decision_nodes if len(sub.clt.info_of[y]) == 1}
    dropped = [e for e in sub.tree.ends if sub.tree.pred[e] in single
               and len(sub.tree.children[sub.tree.pred[e]]) > 1]
    if dropped:
        e = rng.choice(sorted(dropped))
        yield "node dropped", rebuild(nodes=nodes - {e}, label={
            (u, v): b for (u, v), b in label.items() if v is not e}, utilities={
            (p, f): v for (p, f), v in utilities.items() if f is not e})
    added = {y: Atom(f"new{k}") for k, y in enumerate(sorted(cell))}  # one new end each
    yield "node added", rebuild(nodes=nodes | set(added.values()), label={
        **label, **{(y, z): Atom("new") for y, z in added.items()}}, utilities={
        **utilities, **{(p, z): 0 for p in sub.players for z in added.values()}})
    e, r = rng.choice(sub.tree.ends), sub.tree.root
    below = sorted(nodes - {r})
    for kind, swap in (("root moved to an end", {r: e, e: r}.get),
                       ("two nodes swapped", dict(zip(below[:2], below[1::-1])).get)):
        yield kind, rebuild(
            nodes={swap(u, u) for u in nodes}, label={(swap(u, u), swap(v, v)): b
                                                      for (u, v), b in label.items()},
            cells=[{swap(u, u) for u in c} for c in cells],
            mover={swap(u, u): p for u, p in mover.items()},
            utilities={(p, swap(f, f)): v for (p, f), v in utilities.items()})


def test_characterization_matches_the_morphism_reference_on_random_pairs():
    rng = random.Random(3402)
    made = Counter()
    for _ in range(150):
        g, other = (random_game(rng, max_nodes=12, max_players=3) for _ in range(2))
        subs = [selten_subgame(g, r).subgame for r in sorted(subgame_roots(g))]
        for sub in subs:
            assert_same_verdict(sub, g, made, "subgame")
            # Another game: a random one, or a subgame of g, which holds sub when above it.
            for sup in (other, *subs):
                assert_same_verdict(sub, sup, made, "another game")
            assert_same_verdict(other, sub, made, "another game")
            for kind, mutant in mutants(rng, sub, g):
                assert_same_verdict(mutant, g, made, kind)
    kinds = {kind for kind, _ in made}
    assert len(kinds) == 11 and made["subgame", True] > 300, made
    assert made["utility kept in order", False] > 100 and made["another game", True] > 400, made
