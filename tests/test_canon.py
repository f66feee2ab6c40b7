import glob
import itertools
import os
import random
import time
from collections import Counter

import pytest

import gamecat.canon
import gamecat.morphism
from gamecat import (Atom, ConversionResult, OperationError, ValidationError, build_game,
                     compose, descendants, identity_morphism, inverse, is_iso,
                     one_player_zero_game, parse_game_text, print_game, print_morphism,
                     properties, pushforward, strict_predecessors, term_key, to_action_set,
                     to_distinguished, to_distinguished_sequence, to_sequence, tree_leq,
                     validate_clt, validate_game, validate_game_morphism, validate_out_tree)
from gamecat.canon import _distinguished
from gamecat.terms import FinSet, Tup, _adjoin
from conftest import FIXTURES
from examplegames import A, make_game, trio_a, trio_undist, relabel, split, refine
from genrandom import random_bijections, random_game


def tup(*names):
    return Tup(tuple(A(n) for n in names))


def feasible_sets_disjoint_across_cells(g):
    cells = list(g.clt.infosets)
    for c1, c2 in itertools.combinations(cells, 2):
        f1 = g.clt.feasible[next(iter(c1))]
        f2 = g.clt.feasible[next(iter(c2))]
        if f1 & f2:
            return False
    return True


def test_distinguished_verdicts_on_relabelled_pair():
    src, tgt = relabel()
    assert not properties(one_player_zero_game(src)).distinguished_actions
    assert properties(one_player_zero_game(tgt)).distinguished_actions


def test_absentmindedness_verdict():
    _, tgt = split()
    g = one_player_zero_game(tgt)
    assert not properties(g).no_absentmindedness


def test_perfect_information_verdicts():
    g1, g2 = refine()
    assert properties(g1).perfect_information
    assert not properties(g2).perfect_information


def test_fixture_profile():
    p = properties(trio_a())
    assert p.distinguished_actions
    assert not p.uses_sequences
    assert not p.uses_action_sets
    assert p.no_absentmindedness
    assert not p.perfect_information


def test_to_distinguished_tags_actions_with_their_infoset():
    g = trio_a()
    res = to_distinguished(g)
    cell = frozenset({A(3), A(4)})
    assert res.certificate.clt_morphism.alpha[cell][A("e")] == \
        Tup((FinSet((A(3), A(4))), A("e")))
    assert properties(res.game).distinguished_actions
    assert feasible_sets_disjoint_across_cells(res.game)


def test_distinguished_iff_disjoint_feasibility():
    rng = random.Random(61)
    for _ in range(30):
        g = random_game(rng, max_nodes=9)
        assert properties(g).distinguished_actions == \
            feasible_sets_disjoint_across_cells(g)
        d = to_distinguished(g).game
        assert properties(d).distinguished_actions
        assert feasible_sets_disjoint_across_cells(d)


def test_to_sequence_names_nodes_by_their_action_history():
    g = trio_a()
    res = to_sequence(g)
    tau = res.certificate.node_map
    assert tau[A(0)] == tup()
    assert tau[A(4)] == tup("c", "d")
    assert tau[A(5)] == tup("b", "e")
    assert properties(res.game).uses_sequences


def test_to_sequence_certificate_round_trips():
    g = trio_a()
    res = to_sequence(g)
    inv = inverse(res.certificate)
    assert compose(inv, res.certificate) == identity_morphism(g)
    assert len(inv.node_map) == 9


def test_distinguished_sequence_handles_undistinguished_input():
    g = trio_undist()
    assert not properties(g).distinguished_actions
    res = to_distinguished_sequence(g)
    p = properties(res.game)
    assert p.distinguished_actions and p.uses_sequences
    assert is_iso(res.certificate)


def test_to_action_set_requires_no_absentmindedness():
    _, tgt = split()
    g = one_player_zero_game(tgt)
    with pytest.raises(ValidationError) as e:
        to_action_set(g)
    assert e.value.code == "Absentminded"
    cell, x, y = e.value.witness
    assert cell == frozenset({A(0), A(3)})
    assert {x, y} <= cell


def test_to_action_set_output_shape():
    g = trio_a()
    res = to_action_set(g)
    p = properties(res.game)
    assert p.uses_action_sets and p.distinguished_actions
    assert p.no_absentmindedness
    assert res.game.tree.root == FinSet(())
    assert is_iso(res.certificate)
    # each node is the set of entries of the matching sequence node
    ds = to_distinguished_sequence(g)
    for x, v in ds.certificate.node_map.items():
        assert res.certificate.node_map[x] == FinSet(v.items)


def test_sequence_range_identities_on_no_absentminded_games():
    rng = random.Random(67)
    for _ in range(20):
        g = random_game(rng, max_nodes=9)
        if not properties(g).no_absentmindedness:
            continue
        ds = to_distinguished_sequence(g).game
        seen = set()
        for x in ds.tree.nodes:
            r = frozenset(x.items)
            assert len(r) == len(x.items)   # entries pairwise distinct
            assert r not in seen            # range map injective
            seen.add(r)
        for (x, y), a in ds.clt.label.items():
            assert set(y.items) - set(x.items) == {a}


def test_certificates_preserve_shape_predicates():
    rng = random.Random(71)
    for _ in range(15):
        g = random_game(rng, max_nodes=9)
        p = properties(g)
        results = [to_distinguished(g), to_sequence(g),
                   to_distinguished_sequence(g)]
        if p.no_absentmindedness:
            results.append(to_action_set(g))
        for res in results:
            q = properties(res.game)
            assert q.no_absentmindedness == p.no_absentmindedness
            assert q.perfect_information == p.perfect_information
            assert is_iso(res.certificate)


# Reference: each normal form as a chain of stages, one pushforward per stage,
# the certificates chained through compose.

def _ref_identity_actions(g):
    return {x: {a: a for a in g.clt.feasible[x]} for x in g.tree.decision_nodes}


def ref_to_distinguished(g):
    action_bijs = {}
    for x in g.tree.decision_nodes:
        tag = FinSet(tuple(g.clt.info_of[x]))
        action_bijs[x] = {a: Tup((tag, a)) for a in g.clt.feasible[x]}
    return ConversionResult(*pushforward(g, {x: x for x in g.tree.nodes}, action_bijs,
                                         {i: i for i in g.players}))


def ref_to_sequence(g):
    node_bij = {}
    for x in g.tree.nodes:
        path = strict_predecessors(g.tree, x) + [x]
        node_bij[x] = Tup(tuple(g.clt.label[(path[k], path[k + 1])]
                                for k in range(len(path) - 1)))
    return ConversionResult(*pushforward(g, node_bij, _ref_identity_actions(g),
                                         {i: i for i in g.players}))


def ref_to_distinguished_sequence(g):
    d = ref_to_distinguished(g)
    s = ref_to_sequence(d.game)
    return ConversionResult(s.game, compose(s.certificate, d.certificate))


def ref_to_action_set(g):
    for cell in g.clt.cells:
        members = sorted(cell, key=term_key)
        for x in members:
            for y in members:
                if x != y and tree_leq(g.tree, x, y):
                    raise ValidationError("Absentminded", witness=(cell, x, y))
    ds = ref_to_distinguished_sequence(g)
    node_bij = {x: FinSet(x.items) for x in ds.game.tree.nodes}
    game, cert = pushforward(ds.game, node_bij, _ref_identity_actions(ds.game),
                             {i: i for i in ds.game.players})
    return ConversionResult(game, compose(cert, ds.certificate))


CONVERTERS = [
    (to_distinguished, ref_to_distinguished),
    (to_sequence, ref_to_sequence),
    (to_distinguished_sequence, ref_to_distinguished_sequence),
    (to_action_set, ref_to_action_set),
]


def _outcome(convert, g):
    try:
        res = convert(g)
    except ValidationError as e:
        return ("error", e.code, e.witness)
    node_map = res.certificate.node_map
    return ("ok", res.game, node_map, print_game("c", res.game),
            print_morphism("m", "in.gm", "out.gm", node_map))


def reference_inputs():
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.gm"))):
        with open(path, encoding="utf-8") as f:
            yield parse_game_text(f.read())[1]
    rng = random.Random(73)
    for _ in range(240):
        yield random_game(rng, max_nodes=10)


def test_converters_equal_the_staged_reference(monkeypatch):
    # Each converter builds its maps as bijections, so it runs one transport
    # (pushforward's core) and no pushforward checks.
    calls = []
    transport = gamecat.morphism._transport

    def counting_transport(*args):
        calls.append(1)
        return transport(*args)

    monkeypatch.setattr(gamecat.canon, "_transport", counting_transport)
    monkeypatch.setattr(gamecat.morphism, "pushforward", None)
    absentminded = 0
    for g in reference_inputs():
        absentminded += not properties(g).no_absentmindedness
        for convert, reference in CONVERTERS:
            calls.clear()
            got = _outcome(convert, g)
            assert len(calls) == (0 if got[0] == "error" else 1)
            assert got == _outcome(reference, g)
    assert absentminded >= 20


def test_converted_names_are_the_constructors_terms():
    # A child's name is its parent's with one action appended or inserted;
    # each must be the very term Tup or FinSet builds from its root path.
    rng = random.Random(97)
    forms = ((to_sequence, Tup), (to_distinguished_sequence, Tup), (to_action_set, FinSet))
    converted = 0
    for _ in range(300):
        g = random_game(rng, max_nodes=rng.choice([6, 10, 16]))
        for convert, name in forms:
            try:
                res = convert(g)
            except ValidationError as e:
                assert e.code == "Absentminded"
                continue
            t, act = res.game.tree, res.game.clt.act
            for y in t.nodes:
                path = [*strict_predecessors(t, y), y][1:]
                assert y is name([act[x] for x in path])
            converted += 1
    assert converted >= 750


def _deep(name):
    """An atom wrapped in one-item tuples, past the depth that has a key."""
    t = Atom(name)
    for _ in range(gamecat.terms._DEEP + 5):
        t = Tup((t,))
    return t


def test_converters_take_actions_too_deep_for_a_key():
    # r -L-> x, r -R-> y; {x, y} one cell with actions c and d: every name
    # built on a path is compared with < as the terms have no _key.
    L, R, c, d = _deep("L"), _deep("R"), _deep("c"), Atom("d")
    edges = {(A("r"), A("x")): L, (A("r"), A("y")): R}
    for x in "xy":
        edges.update({(A(x), A(x + "c")): c, (A(x), A(x + "d")): d})
    g = build_game(set(A(n) for n in ("r", "x", "y", "xc", "xd", "yc", "yd")), edges,
                   [{A("r")}, {A("x"), A("y")}], {A("r"): A("P"), A("x"): A("Q"), A("y"): A("Q")},
                   {(A(i), A(e)): k for k, e in enumerate(("xc", "xd", "yc", "yd"))
                    for i in "PQ"})
    assert L._depth >= gamecat.terms._DEEP
    for convert, reference in CONVERTERS:
        got = _outcome(convert, g)
        assert got[0] == "ok" and got == _outcome(reference, g)


def _pairwise_absentminded_witness(g):
    """The witness as first written: tree_leq on every ordered pair of each
    cell, cells in encoding order."""
    for cell in g.clt.cells:
        for x, y in itertools.permutations(sorted(cell), 2):
            if tree_leq(g.tree, x, y):
                return (cell, x, y)
    return None


def test_absentminded_witness_equals_the_pairwise_reference():
    rng = random.Random(29)
    games = [parse_game_text(open(p, encoding="utf-8").read())[1]
             for p in sorted(glob.glob(os.path.join(FIXTURES, "*.gm")))]
    games += [random_game(rng, max_nodes=rng.choice([6, 10, 16])) for _ in range(600)]
    # A chain whose cell members sort against their depth order.
    games.append(make_game({("d", "b"): "c", ("d", "d1"): "s", ("b", "c"): "c", ("b", "b1"): "s",
                            ("c", "e"): "c", ("c", "c1"): "s"},
                           [{"d", "b", "c"}], {"d": "P", "b": "P", "c": "P"},
                           {("P", e): 0 for e in ("d1", "b1", "c1", "e")}))
    found = 0
    for g in games:
        w = gamecat.canon._absentminded_witness(g)
        assert w == _pairwise_absentminded_witness(g)
        found += w is not None
    assert found >= 50
    assert w == (frozenset({A("b"), A("c"), A("d")}), A("b"), A("c"))


def test_absentmindedness_of_one_cell_per_level_takes_linear_time():
    depth = 11
    levels = [[A("r")]]
    edges = {}
    for _ in range(depth):
        levels.append([])
        for x in levels[-2]:
            for a in "LR":
                y = A(x.name + a)
                edges[(x, y)] = A(a)
                levels[-1].append(y)
    cells = levels[:-1]
    g = build_game({x for level in levels for x in level}, edges, [frozenset(c) for c in cells],
                   {x: A("P") for c in cells for x in c}, {(A("P"), e): 0 for e in levels[-1]})
    start = time.perf_counter()
    p = properties(g)
    assert time.perf_counter() - start < 2
    assert p.no_absentmindedness and not p.perfect_information


def test_converters_scale_with_their_output_on_a_deep_path():
    # path(2000): the sequence and action-set forms name each node by its
    # root path, about two million items in all. Each takes a few seconds.
    n = 2000
    edges = {(k, k + 1): "a" for k in range(n - 1)}
    edges[(0, "s")] = "b"
    g = make_game(edges, [{k} for k in range(n - 1)], {k: "P1" for k in range(n - 1)},
                  {("P1", n - 1): 1, ("P1", "s"): 0})
    for convert, name in ((to_sequence, Tup), (to_action_set, FinSet)):
        start = time.perf_counter()
        result = convert(g)
        assert time.perf_counter() - start < 8
        assert all(type(x) is name for x in result.game.tree.nodes)
        m = validate_game_morphism(g, result.game, result.certificate.node_map)
        assert is_iso(m) and m == result.certificate


# Guard: converters and pushforward build their image and certificate by
# transport. Each is rebuilt here from its raw parts by the validators.

def _revalidated(g):
    tree = validate_out_tree(set(g.tree.nodes), set(g.tree.edges))
    clt = validate_clt(tree, [set(cell) for cell in g.clt.infosets], dict(g.clt.label))
    return validate_game(clt, dict(g.mover), dict(g.utilities))


def _is_preorder_with_contiguous_subtrees(t):
    """order holds each node once, the root first, and each later node's
    parent is on the path of open subtrees: a depth-first preorder."""
    if len(t.order) != len(t.nodes) or set(t.order) != t.nodes or t.order[0] != t.root:
        return False
    path = [t.root]
    for y in t.order[1:]:
        while path and path[-1] != t.pred[y]:
            path.pop()
        if not path:
            return False
        path.append(y)
    return True


def _assert_transported(source, g, cert):
    v = _revalidated(g)
    for got, want in ((g.tree, v.tree), (g.clt, v.clt), (g, v)):
        for f in got._fields:
            if f != "order":
                assert getattr(got, f) == getattr(want, f), f
    t = g.tree
    assert _is_preorder_with_contiguous_subtrees(t)
    for x in t.nodes:
        assert descendants(t, x) == {y for y in t.nodes
                                     if y == x or x in strict_predecessors(t, y)}
    m = validate_game_morphism(source, v, cert.node_map)
    assert cert.source is source and cert.target is g
    assert cert.node_map == m.node_map and cert.iota == m.iota
    assert cert.clt_morphism.alpha == m.clt_morphism.alpha
    assert is_iso(cert) and is_iso(m)


def test_converter_results_equal_their_revalidation():
    converted = 0
    for g in reference_inputs():
        for convert, _ in CONVERTERS:
            try:
                res = convert(g)
            except ValidationError as e:
                assert e.code == "Absentminded"
                continue
            _assert_transported(g, res.game, res.certificate)
            converted += 1
    assert converted >= 4 * 240


def test_pushforward_on_random_bijections_equals_its_revalidation():
    rng = random.Random(83)
    for g in reference_inputs():
        node_bij, action_bijs, player_bij = random_bijections(rng, g)
        g2, cert = pushforward(g, node_bij, action_bijs, player_bij)
        _assert_transported(g, g2, cert)


def _pushforward_error(g, node_bij, action_bijs, player_bij):
    with pytest.raises(OperationError) as e:
        pushforward(g, node_bij, action_bijs, player_bij)
    return e.value.code, e.value.witness, e.value.detail


def test_pushforward_errors_keep_their_codes_and_witnesses():
    rng = random.Random(89)
    seen = set()
    for g in itertools.islice(reference_inputs(), 200):
        node_bij, action_bijs, player_bij = random_bijections(rng, g)
        args = (node_bij, action_bijs, player_bij)
        x, y = rng.sample(sorted(g.tree.nodes), 2)
        for bad in ({**node_bij, x: node_bij[y]}, {k: v for k, v in node_bij.items() if k != x}):
            assert _pushforward_error(g, bad, *args[1:]) == ("NotBijective", None, "node map")
        if len(player_bij) > 1:
            i, j = sorted(player_bij)[:2]
            bad = {**player_bij, i: player_bij[j]}
            assert _pushforward_error(g, *args[:2], bad) == ("NotBijective", None, "player map")
        decision = sorted(g.tree.decision_nodes)
        x = rng.choice(decision)
        bad = {k: v for k, v in action_bijs.items() if k != x}
        assert _pushforward_error(g, node_bij, bad, player_bij) == \
            ("NotBijective", None, "action maps must cover decision nodes")
        # Broken maps at several nodes: the least one in term order is named.
        broken = rng.sample(decision, min(2, len(decision)))
        bad = dict(action_bijs)
        for x in broken:
            a = min(bad[x])
            bad[x] = {**bad[x], Atom("zz"): bad[x][a]} if rng.random() < 0.5 else \
                {k: v for k, v in bad[x].items() if k != a}
        assert _pushforward_error(g, node_bij, bad, player_bij) == \
            ("NotBijective", min(broken), "action map at node")
        # One member of a cell gets its own permutation: the first split cell
        # in encoding order names its least member and the least other
        # member whose map differs.
        cells = [c for c in g.clt.cells
                 if len(c) > 1 and len(g.clt.feasible[next(iter(c))]) > 1]
        if cells:
            cell = rng.choice(cells)
            x = rng.choice(sorted(cell))
            acts = sorted(action_bijs[x])
            bad = {**action_bijs, x: dict(zip(acts, [action_bijs[x][a] for a in acts[1:] + acts[:1]]))}
            first = min(cell)
            other = min(y for y in cell if bad[y] != bad[first])
            assert _pushforward_error(g, node_bij, bad, player_bij) == \
                ("ActionBijsNotConstantOnInfoset", (first, other), "")
            seen.add("split")
        seen.add("players" if len(player_bij) > 1 else "one player")
    assert seen == {"split", "players", "one player"}


# The shape predicates as they were written before the one naming rule
# (canon._GROW and _named_by), kept verbatim as the reference.
def _uses_sequences(g):
    """Each node is the tuple of the actions on its root path."""
    t = g.tree
    return (all(isinstance(x, Tup) for x in t.nodes) and t.root is Tup(())
            and all(y.items == (*t.pred[y].items, a) for y, a in g.clt.act.items()))


def _uses_action_sets(g):
    """Distinguished actions, and each node is the set of the actions on its
    root path: a child's set adds one action, its own, to its parent's."""
    t = g.tree
    return (_distinguished(g) and all(isinstance(x, FinSet) for x in t.nodes)
            and t.root is FinSet(())
            and all(y is _adjoin(t.pred[y], a) for y, a in g.clt.act.items()))


def _renamed_game(g, node_bij, actions=None):
    """g along node_bij and, when given, one cell's action map; None when
    node_bij is not one-to-one."""
    if len(set(node_bij.values())) < len(node_bij):
        return None
    action_bijs = {x: dict(zip(pool, pool)) for cell, pool in g.clt.cell_actions.items()
                   for x in cell}
    if actions is not None:
        cell, table = actions
        action_bijs.update(dict.fromkeys(cell, table))
    return pushforward(g, node_bij, action_bijs, {i: i for i in g.players})[0]


def _one_renamed(g, y, new):
    """g with node y named new; a node already named new takes y's name."""
    bij = {x: x for x in g.tree.nodes}
    if new in bij:
        bij[new] = y
    bij[y] = new
    return _renamed_game(g, bij)


def _form_mutants(rng, h, name):
    """Copies of h, a form named by name. Each breaks the naming rule in one
    place (a node renamed, also into the other form or to an atom), or
    renames the root and grows every name from it, or keeps the names and
    offers an action at two cells."""
    t, act, zz = h.tree, h.clt.act, Atom("zz")
    y = rng.choice(sorted(t.nodes - {t.root}, key=term_key))
    items = y.items
    yield _one_renamed(h, y, name((zz,)))
    yield _one_renamed(h, y, (FinSet if name is Tup else Tup)(items))
    inner = sorted(t.decision_nodes - {t.root}, key=term_key)
    if inner:
        yield _one_renamed(h, rng.choice(inner), zz)
    yield _one_renamed(h, y, name(items[:-1]))
    yield _one_renamed(h, t.root, name((zz,)))
    yield _renamed_game(h, {x: name((zz, *x.items)) for x in t.nodes})  # each grows its parent
    if name is Tup:
        yield _one_renamed(h, y, Tup((*items, items[-1])))
    else:
        yield _one_renamed(h, y, FinSet([a for a in items if a is not act[y]]))
        yield _one_renamed(h, y, FinSet([zz, *(a for a in items if a is not act[y])]))
    # An action of one cell renamed to one of another cell's, in the actions
    # and in every name that holds it.
    pools = list(h.clt.cell_actions.items())
    if len(pools) > 1:
        (cell, pool), (_, other) = rng.sample(pools, 2)
        a, b = rng.choice(pool), rng.choice(other)
        if b not in pool:
            bij = {x: name([b if c is a else c for c in x.items]) for x in t.nodes}
            yield _renamed_game(h, bij, (cell, {c: b if c is a else c for c in pool}))


def test_form_predicates_agree_with_the_reference():
    rng = random.Random(35)
    forms = ((to_sequence, Tup), (to_distinguished_sequence, Tup), (to_action_set, FinSet))
    seen, named = 0, Counter()
    for _ in range(300):
        g = random_game(rng, max_nodes=rng.choice([6, 10, 16]))
        games = [g, to_distinguished(g).game]
        for convert, name in forms:
            try:
                h = convert(g).game
            except ValidationError:
                continue
            games += [h, *filter(None, _form_mutants(rng, h, name))]
        for x in games:
            p = properties(x)
            ref = (_uses_sequences(x), _uses_action_sets(x))
            assert (p.uses_sequences, p.uses_action_sets) == ref
            named[ref, p.distinguished_actions] += 1
            seen += 1
    assert seen >= 3000, seen
    # Every verdict occurs: sequence names with and without distinguished
    # actions, action-set names, and neither.
    assert min(named[(True, False), False], named[(True, False), True],
               named[(False, True), True], named[(False, False), True]) >= 50, named
