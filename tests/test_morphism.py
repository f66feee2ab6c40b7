import glob
import itertools
import os
import random
import sys
import time
from fractions import Fraction

import pytest

from gamecat import (Atom, GameMorphism, OperationError, ValidationError, action_at,
                     build_game, clt_mono_witness, compose, forget, identity_clt_morphism,
                     identity_morphism, inverse, is_iso, is_mono, iso_search,
                     mono_witness, next_node, one_player_zero_game, parse_game_text, pushforward,
                     run_at, run_end, runs, strict_predecessors, term_key,
                     validate_clt_morphism, validate_game_morphism)
from gamecat.terms import FinSet, Tup
from conftest import FIXTURES
from examplegames import (A, trio_a, trio_b, relabel, split, mixedalpha, endclash, prefixed,
                     twomover, prefixinc, collapse, mergeplayers, flatten, refine, make_game)
from genrandom import (extend_under_new_root, merge_two_ends, random_game,
                       random_morphism, relabel_iso)


def ident(c):
    return {x: x for x in c.tree.nodes}


def runset(*nodes):
    return frozenset(A(n) for n in nodes)


def test_relabeling_clt_morphism_is_valid():
    src, tgt = relabel()
    m = validate_clt_morphism(src, tgt, ident(src))
    assert action_at(m, A(0), A("b")) == A("b")
    assert action_at(m, A(3), A("b")) == A("e")
    assert action_at(m, A(3), A("c")) == A("f")
    assert action_at(m, A(4), A("b")) == A("e")


def test_infoset_split_is_rejected():
    src, tgt = split()
    with pytest.raises(ValidationError) as e:
        validate_clt_morphism(src, tgt, ident(src))
    assert e.value.code == "InfosetSplit"
    assert e.value.witness == runset(1, 3)


def test_noncontinuous_action_transform_is_rejected():
    src, tgt = mixedalpha()
    with pytest.raises(ValidationError) as e:
        validate_clt_morphism(src, tgt, ident(src))
    assert e.value.code == "ActionTransformNotConstant"
    assert e.value.witness == (A(3), A(4))


def test_per_node_action_values_behind_the_rejection():
    # the two nodes disagree: one sends b to e, the other sends b to f
    src, tgt = mixedalpha()
    assert tgt.label[(A(3), next_node(src, A(3), A("b")))] == A("e")
    assert tgt.label[(A(4), next_node(src, A(4), A("b")))] == A("f")


def test_end_nodes_must_map_to_end_nodes():
    src, tgt, tau = endclash()
    g1 = one_player_zero_game(src)
    g2 = one_player_zero_game(tgt)
    with pytest.raises(ValidationError) as e:
        validate_game_morphism(g1, g2, tau)
    assert e.value.code == "NotEndPreserving"
    assert e.value.witness == A(2)


def test_run_transformation_prepends_the_root_path():
    src, tgt, tau = prefixed()
    m = validate_game_morphism(one_player_zero_game(src),
                               one_player_zero_game(tgt), tau)
    assert m.zeta[runset(0, 2)] == runset(50, 10, 12)
    assert m.zeta[runset(0, 1)] == runset(50, 10, 11)
    assert run_at(m, runset(0, 2)) == runset(50, 10, 12)
    with pytest.raises(OperationError):
        run_at(m, runset(0))


def test_no_player_transformation():
    g1, g2 = twomover()
    with pytest.raises(ValidationError) as e:
        validate_game_morphism(g1, g2, ident(g1.clt))
    assert e.value.code == "NoPlayerTransform"


def test_utility_order_must_be_weakly_preserved():
    g1 = make_game({(0, 1): "a", (0, 2): "b"}, [{0}], {0: "P1"},
                   {("P1", 1): 0, ("P1", 2): 1})
    g2 = make_game({(0, 1): "a", (0, 2): "b"}, [{0}], {0: "P1"},
                   {("P1", 1): 1, ("P1", 2): 0})
    with pytest.raises(ValidationError) as e:
        validate_game_morphism(g1, g2, ident(g1.clt))
    assert e.value.code == "UtilityNotPreserved"


def test_one_directional_utility_condition_accepts_flattening():
    g1, g2 = flatten()
    m = validate_game_morphism(g1, g2, ident(g1.clt))
    assert not is_iso(m)


def test_identity_laws():
    src, tgt, tau = prefixed()
    m = validate_game_morphism(one_player_zero_game(src),
                               one_player_zero_game(tgt), tau)
    id_s = identity_morphism(m.source)
    id_t = identity_morphism(m.target)
    assert compose(m, id_s) == m
    assert compose(id_t, m) == m
    assert all(a == b for a, b in
               identity_clt_morphism(src).alpha[frozenset({A(0)})].items())
    assert all(z == w for z, w in id_s.zeta.items())
    assert all(i == j for i, j in id_s.iota.items())


def test_compose_requires_matching_endpoints():
    src, tgt, tau = prefixed()
    m = validate_game_morphism(one_player_zero_game(src),
                               one_player_zero_game(tgt), tau)
    with pytest.raises(OperationError) as e:
        compose(m, m)
    assert e.value.code == "SourceTargetMismatch"
    with pytest.raises(OperationError) as e:
        compose(forget(m), m)
    assert (e.value.code, e.value.detail) == ("SourceTargetMismatch", "mixed morphism kinds")


def test_bad_node_maps_and_actions_are_coded_errors():
    src, tgt = relabel()
    cases = [({x: v for x, v in ident(src).items() if x != A(5)}, A(5), "node unmapped"),
             ({**ident(src), A(5): A("zz")}, A(5), "image is not a target node"),
             ({**ident(src), A("zz"): A(0)}, A("zz"), "map key is not a source node")]
    for node_map, witness, detail in cases:
        with pytest.raises(OperationError) as e:
            validate_clt_morphism(src, tgt, node_map)
        assert (e.value.code, e.value.witness, e.value.detail) == ("BadNodeMap", witness, detail)
    m = validate_clt_morphism(src, tgt, ident(src))
    for x, a, code, witness in [(A(5), A("b"), "NotDecision", A(5)),
                                (A(0), A("zz"), "NotFeasible", (A(0), A("zz")))]:
        with pytest.raises(OperationError) as e:
            action_at(m, x, a)
        assert (e.value.code, e.value.witness) == (code, witness)


def test_composite_transformations_follow_the_component_formulas():
    rng = random.Random(5)
    for _ in range(40):
        g = random_game(rng, max_nodes=8)
        m1 = random_morphism(rng, g)
        m2 = random_morphism(rng, m1.target, fixed_source=True)
        m = compose(m2, m1)
        assert m.node_map == {x: m2.node_map[v]
                              for x, v in m1.node_map.items()}
        for z in m1.source.runs():
            assert m.zeta[z] == m2.zeta[m1.zeta[z]]
        for i in m1.iota:
            assert m.iota[i] == m2.iota[m1.iota[i]]
        for cell, table in m1.clt_morphism.alpha.items():
            x = next(iter(cell))
            image_cell = m2.source.clt.info_of[m1.node_map[x]]
            for a in table:
                assert (m.clt_morphism.alpha[cell][a]
                        == m2.clt_morphism.alpha[image_cell][table[a]])


def test_forget_is_functorial():
    rng = random.Random(6)
    g = random_game(rng, max_nodes=8)
    m1 = random_morphism(rng, g)
    m2 = random_morphism(rng, m1.target, fixed_source=True)
    assert forget(identity_morphism(g)) == identity_clt_morphism(g.clt)
    assert forget(compose(m2, m1)) == compose(forget(m2), forget(m1))


def test_inclusion_of_a_prefix_is_clt_mono():
    src, tgt = prefixinc()
    m = validate_clt_morphism(src, tgt, {A(0): A(0), A(1): A(1)})
    assert is_mono(m)
    assert clt_mono_witness(m) is None


def test_game_mono_does_not_imply_clt_mono():
    g1, g2, tau = collapse()
    m = validate_game_morphism(g1, g2, tau)
    assert is_mono(m)
    assert mono_witness(m) is None
    cm = forget(m)
    assert not is_mono(cm)
    w = clt_mono_witness(cm)
    assert w is not None
    t1, t2 = w
    assert t1.node_map[Atom("1*")] == A(41)
    assert t2.node_map[Atom("1*")] == A(42)
    assert compose(cm, t1) == compose(cm, t2)
    assert t1 != t2


def test_forget_can_destroy_mono():
    g1, g2, tau = collapse()
    m = validate_game_morphism(g1, g2, tau)
    assert is_mono(m) and not is_mono(forget(m))


def test_mono_witness_on_run_collapsing_morphism():
    src = make_game({(0, 1): "a", (0, 2): "b"}, [{0}], {0: "P1"},
                    {("P1", 1): 0, ("P1", 2): 0})
    tgt = make_game({(0, 1): "a"}, [{0}], {0: "P1"}, {("P1", 1): 0})
    m = validate_game_morphism(src, tgt, {A(0): A(0), A(1): A(1), A(2): A(1)})
    assert not is_mono(m)
    w = mono_witness(m)
    assert w is not None
    g1, g2 = w
    assert g1 != g2
    assert compose(m, g1) == compose(m, g2)


def test_mono_witness_matches_injectivity_on_random_morphisms():
    rng = random.Random(13)
    for _ in range(40):
        g = random_game(rng, max_nodes=8)
        m = random_morphism(rng, g)
        assert is_mono(m) == (mono_witness(m) is None)
        cm = forget(m)
        assert is_mono(cm) == (clt_mono_witness(cm) is None)


def test_iso_requires_infoset_bijection():
    g1, g2 = refine()
    m = validate_game_morphism(g1, g2, ident(g1.clt))
    assert is_mono(m)
    assert not is_iso(m)
    with pytest.raises(OperationError):
        inverse(m)


def test_iso_requires_injective_player_transform():
    g1, g2 = mergeplayers()
    m = validate_game_morphism(g1, g2, ident(g1.clt))
    assert not is_iso(m)


def test_iso_requires_biconditional_utility_preservation():
    g1, g2 = flatten()
    m = validate_game_morphism(g1, g2, ident(g1.clt))
    assert not is_iso(m)


def test_pushforward_relabel_preserves_actions():
    g = trio_a()
    node_bij = {x: Atom("n" + x.name) for x in g.tree.nodes}
    action_bijs = {x: {a: a for a in g.clt.feasible[x]}
                   for x in g.tree.decision_nodes}
    g2, cert = pushforward(g, node_bij, action_bijs,
                           {i: i for i in g.players})
    assert is_iso(cert)
    assert g2.clt.actions == g.clt.actions


def test_pushforward_reports_supplied_action_transform():
    g = trio_a()
    action_bijs = {}
    for x in g.tree.decision_nodes:
        cell = g.clt.info_of[x]
        tag = FinSet(tuple(cell))
        action_bijs[x] = {a: Tup((tag, a)) for a in g.clt.feasible[x]}
    g2, cert = pushforward(g, ident(g.clt), action_bijs,
                           {i: i for i in g.players})
    for x in g.tree.decision_nodes:
        cell = g.clt.info_of[x]
        assert cert.clt_morphism.alpha[cell] == action_bijs[x]


def test_pushforward_rejects_non_bijections():
    g = trio_a()
    bad_nodes = {x: A(0) for x in g.tree.nodes}
    with pytest.raises(OperationError):
        pushforward(g, bad_nodes,
                    {x: {a: a for a in g.clt.feasible[x]}
                     for x in g.tree.decision_nodes},
                    {i: i for i in g.players})


def test_inverse_round_trips():
    rng = random.Random(17)
    for _ in range(20):
        g = random_game(rng, max_nodes=9)
        g2, cert = relabel_iso(rng, g)
        inv = inverse(cert)
        assert is_iso(inv)
        assert compose(inv, cert) == identity_morphism(g)
        assert compose(cert, inv) == identity_morphism(g2)
        clt_inv = inverse(forget(cert))
        assert clt_inv == forget(inv) and is_iso(clt_inv)


def test_iso_search_finds_cross_labelled_pairs():
    m = iso_search(trio_a(), trio_b())
    assert m is not None
    assert is_iso(m)


def test_iso_search_respects_run_counts():
    g2 = make_game({(0, 1): "a", (0, 2): "b"}, [{0}], {0: "P1"},
                   {("P1", 1): 0, ("P1", 2): 0})
    g3 = make_game({(0, 1): "a", (0, 2): "b", (0, 3): "c"}, [{0}],
                   {0: "P1"}, {("P1", 1): 0, ("P1", 2): 0, ("P1", 3): 0})
    assert iso_search(g2, g3) is None


def test_iso_search_inverts_random_relabelings():
    rng = random.Random(23)
    for _ in range(15):
        g = random_game(rng, max_nodes=9)
        g2, _ = relabel_iso(rng, g)
        m = iso_search(g, g2)
        assert m is not None and is_iso(m)


def path_game(n):
    """A chain of n nodes plus one side leaf at the root, one player."""
    edges = {(k, k + 1): "a" for k in range(n - 1)}
    edges[(0, "s")] = "b"
    return make_game(edges, [{k} for k in range(n - 1)],
                     {k: "P1" for k in range(n - 1)},
                     {("P1", n - 1): 1, ("P1", "s"): 0})


def test_iso_search_on_a_deep_path_returns_the_identity():
    g = path_game(3000)
    start = time.perf_counter()
    m = iso_search(g, g)
    assert time.perf_counter() - start < 30
    assert m.node_map == {x: x for x in g.tree.nodes}


def isos_by_brute_force(g1, g2):
    """Every isomorphism's node map, least first: maps compare as the
    term_key sequence of the images of the source nodes in term_key order."""
    src = sorted(g1.tree.nodes, key=term_key)
    if len(src) != len(g2.tree.nodes):
        return []
    found = []
    for perm in itertools.permutations(g2.tree.nodes):
        node_map = dict(zip(src, perm))
        if node_map[g1.tree.root] != g2.tree.root:
            continue
        try:
            m = validate_game_morphism(g1, g2, node_map)
        except ValidationError:
            continue
        if is_iso(m):
            found.append(node_map)
    return sorted(found, key=lambda tau: [term_key(tau[x]) for x in src])


def test_iso_search_returns_the_least_isomorphism():
    rng = random.Random(31)
    pairs = []
    for k in range(60):
        # Equal utilities make sibling swaps automorphisms, so witnesses compete.
        g = random_game(rng, max_nodes=6, util_range=(0, 1) if k % 2 else (-2, 3))
        pairs += [(g, g), (g, relabel_iso(rng, g)[0]),
                  (g, random_game(rng, max_nodes=6))]
    # Two isomorphisms, onto the leaves `a` and `"a b"`: the encoding puts
    # `"a b"` first, term_key puts `a` first.
    g = make_game({(0, 1): "x", (0, 2): "y"}, [{0}], {0: "P1"},
                  {("P1", 1): 0, ("P1", 2): 0})
    h = make_game({(0, "a"): "x", (0, "a b"): "y"}, [{0}], {0: "P1"},
                  {("P1", "a"): 0, ("P1", "a b"): 0})
    pairs.append((g, h))
    competing = 0
    for g1, g2 in pairs:
        isos = isos_by_brute_force(g1, g2)
        m = iso_search(g1, g2)
        assert (m.node_map if m else None) == (isos[0] if isos else None)
        competing += len(isos) > 1
    assert competing >= 20
    assert iso_search(g, h).node_map[A(1)] == A("a")


def test_iso_search_runs_out_of_candidates_and_rejects_a_misplaced_child():
    edges = {("z", "x"): "L", ("z", "y"): "R",
             ("x", "a"): "L", ("x", "b"): "R", ("y", "c"): "L", ("y", "d"): "R"}
    cells = [{"z"}, {"x"}, {"y"}]

    def game(movers, utility):
        return make_game(edges, cells, dict(zip("zxy", movers)),
                         {(i, e): utility.get(e, 0) for i in ("P1", "P2") for e in "abcd"})

    # Colours read no mover, so every node ties with its counterparts, but
    # no player map fits: the search tries every candidate and ends empty.
    apart = game(("P1", "P2", "P2"), {})
    together = game(("P1", "P1", "P2"), {})
    # The leaves sort before their parents, so x's leaves a and b are placed
    # under n first, and the child check then rejects m for x.
    source = game(("P1", "P2", "P2"), {"a": 1, "c": 1})
    target = make_game({("r", "m"): "L", ("r", "n"): "R", ("m", "s"): "L", ("m", "t"): "R",
                        ("n", "p"): "L", ("n", "q"): "R"},
                       [{"r"}, {"m"}, {"n"}], {"r": "P1", "m": "P2", "n": "P2"},
                       {(i, e): int(e in "qt") for i in ("P1", "P2") for e in "pqst"})
    for g1, g2 in [(apart, together), (source, target)]:
        isos = isos_by_brute_force(g1, g2)
        m = iso_search(g1, g2)
        assert (m.node_map if m else None) == (isos[0] if isos else None)
    assert iso_search(apart, together) is None
    assert iso_search(source, target).node_map[A("x")] == A("n")


def binary_tree_game(depth, utility):
    """The full binary tree of the given depth, each node named by its path
    from the root `r`; P1 and P2 alternate by depth, and utility(i, end)
    gives player i's utility at each end."""
    edges, level = {}, ["r"]
    for _ in range(depth):
        edges.update({(x, x + bit): "LR"[int(bit)] for x in level for bit in "01"})
        level = [x + bit for x in level for bit in "01"]
    decision = {x for x, _ in edges}
    return make_game(edges, [{x} for x in decision],
                     {x: f"P{(len(x) - 1) % 2 + 1}" for x in decision},
                     {(i, e): utility(i, e) for i in ("P1", "P2") for e in level})


def ordinal_invariant(g):
    """Per end, the players' utility ranks, as a sorted list, least over the
    orders of the players: isomorphic games have equal invariants."""
    return min(sorted(tuple(g.ranks[i][e] for i in perm) for e in g.tree.ends)
               for perm in itertools.permutations(g.players))


def timed_iso_search(g1, g2):
    start = time.perf_counter()
    m = iso_search(g1, g2)
    took = time.perf_counter() - start
    assert took < 5, took
    return m


def test_iso_search_on_shuffled_binary_trees_returns_within_seconds():
    # Unless the utilities below a node steer the search, it tries every
    # sibling order here, which takes minutes.
    rng = random.Random(19)
    g = binary_tree_game(8, lambda i, e: rng.randint(0, 3))
    m = timed_iso_search(g, relabel_iso(rng, g)[0])
    assert m is not None and is_iso(m)
    # Constant utilities tie every node with every other of its depth.
    flat = binary_tree_game(8, lambda i, e: 0)
    m = timed_iso_search(flat, relabel_iso(rng, flat)[0])
    assert m is not None and is_iso(m)
    # A near miss: P1's utilities swapped at two ends, changing P1's order
    # so that the ordinal invariant certifies it is not isomorphic to g.
    p1, base = g.payoffs[A("P1")], ordinal_invariant(g)

    def swapped(e1, e2):
        swap = {(A("P1"), e1): p1[e2], (A("P1"), e2): p1[e1]}
        return build_game(g.tree.nodes, g.clt.label, g.clt.cells, g.mover,
                          {**g.utilities, **swap})

    near = next(h for h in itertools.starmap(swapped, itertools.combinations(g.tree.ends, 2))
                if ordinal_invariant(h) != base)
    assert timed_iso_search(g, relabel_iso(rng, near)[0]) is None


def test_mergers_are_not_mono():
    rng = random.Random(29)
    found = 0
    for _ in range(40):
        g = random_game(rng, max_nodes=9)
        merged = merge_two_ends(rng, g)
        if merged is None:
            continue
        found += 1
        src, m = merged
        assert not is_mono(m)
        w = mono_witness(m)
        assert w is not None
        g1, g2 = w
        assert compose(m, g1) == compose(m, g2)
    assert found > 5


# Pairwise reference for the ordinal utility conditions: the O(P * R^2)
# loops the morphism checks are defined by.

def pairwise_violation(src, tgt, zeta, iota):
    zs = src.runs()
    for i in sorted(src.players, key=term_key):
        for z1, z2 in itertools.product(zs, zs):
            if src.utility(i, z1) >= src.utility(i, z2):
                if not tgt.utility(iota[i], zeta[z1]) >= tgt.utility(iota[i], zeta[z2]):
                    return (i, z1, z2)
    return None


def pairwise_order_iso(src, tgt, zeta, iota):
    zs = src.runs()
    return all((src.utility(i, z1) >= src.utility(i, z2))
               == (tgt.utility(iota[i], zeta[z1]) >= tgt.utility(iota[i], zeta[z2]))
               for i in src.players for z1, z2 in itertools.product(zs, zs))


def redrawn(rng, g):
    """g with every utility drawn afresh from a narrow range, so ties and
    reversals against g are both common."""
    utilities = {key: Fraction(rng.randint(-1, 1)) for key in g.utilities}
    return build_game(g.tree.nodes, dict(g.clt.label), g.clt.infosets, g.mover, utilities)


def test_utility_checks_match_the_pairwise_reference():
    rng = random.Random(41)
    valid = invalid = isos = 0
    for _ in range(150):
        g = random_game(rng, max_nodes=10)
        if rng.random() < 0.5:
            base, node_map = g, {x: x for x in g.tree.nodes}
        else:
            base, cert = relabel_iso(rng, g)
            node_map = cert.node_map
        h = redrawn(rng, base)
        src = redrawn(rng, g) if rng.random() < 0.5 else g
        iota = {src.mover[x]: h.mover[node_map[x]] for x in src.tree.decision_nodes}
        zeta = {z: frozenset(node_map[x] for x in z) for z in src.runs()}
        expected = pairwise_violation(src, h, zeta, iota)
        try:
            m = validate_game_morphism(src, h, node_map)
        except ValidationError as e:
            invalid += 1
            assert e.code == "UtilityNotPreserved"
            assert e.witness == expected
            continue
        valid += 1
        assert expected is None
        assert m.zeta == zeta and m.iota == iota
        assert is_iso(m) == pairwise_order_iso(src, h, zeta, iota)
        if is_iso(m):
            isos += 1
            inv_map = {v: x for x, v in node_map.items()}
            assert is_iso(validate_game_morphism(h, src, inv_map))
    assert valid > 20 and invalid > 20 and isos > 5


def test_is_iso_matches_the_pairwise_reference_both_ways():
    rng = random.Random(43)
    for _ in range(150):
        g = random_game(rng, max_nodes=10)
        h = redrawn(rng, g)
        ident_map = {x: x for x in g.tree.nodes}
        for src, tgt in ((g, h), (h, g)):
            zeta = {z: z for z in src.runs()}
            iota = {i: i for i in src.players}
            try:
                m = validate_game_morphism(src, tgt, ident_map)
            except ValidationError:
                assert pairwise_violation(src, tgt, zeta, iota) is not None
                continue
            assert is_iso(m) == pairwise_order_iso(src, tgt, zeta, iota)


def test_mono_witness_rejects_a_broken_run_map():
    # Ends 2 and 3 sit at different depths, so no valid morphism can send
    # both to one node; the invariant check must still fire under -O.
    g = make_game({(0, 1): "a", (0, 2): "b", (1, 3): "c"}, [{0}, {1}],
                  {0: "P1", 1: "P1"}, {("P1", 2): 0, ("P1", 3): 0})
    node_map = {x: x for x in g.tree.nodes}
    node_map[A(3)] = A(2)
    fake = GameMorphism(source=g, target=g,
                        clt_morphism=identity_clt_morphism(g.clt),
                        iota={})
    object.__setattr__(fake.clt_morphism, "node_map", node_map)
    with pytest.raises(OperationError) as e:
        mono_witness(fake)
    assert e.value.code == "InvariantBroken"
    assert e.value.witness == (A(2), A(3))


def eager_run_map(src, tgt, node_map):
    """The run map as validation built it when runs were stored as node
    sets: each source run's node images plus the target's root path above
    the image of the root. Returns the first end whose image is not a target
    run, which the check that went with it reported as NotEndPreserving."""
    target_run = {run_end(tgt.tree, z): z for z in tgt.runs()}
    prefix = frozenset(strict_predecessors(tgt.tree, node_map[src.tree.root]))
    zeta = {}
    for z in src.runs():
        image = prefix | frozenset(node_map[x] for x in z)
        e = run_end(src.tree, z)
        if image != target_run[node_map[e]]:
            return e
        zeta[z] = image
    return zeta


def test_the_deleted_run_image_check_never_fires_and_zeta_matches_it():
    rng = random.Random(45)
    merges = 0
    for _ in range(150):
        g = random_game(rng, max_nodes=10)
        ms = [identity_morphism(g), relabel_iso(rng, g)[1], extend_under_new_root(rng, g)[1],
              random_morphism(rng, g)]
        merged = merge_two_ends(rng, g)
        if merged is not None:
            ms.append(merged[1])
            merges += 1
        for m in ms:
            eager = eager_run_map(m.source, m.target, m.node_map)
            assert isinstance(eager, dict)
            assert list(m.zeta.items()) == list(eager.items())
            assert all(run_at(m, z) == image for z, image in eager.items())
    assert merges > 50


def comb_game(n):
    """A spine of n decision nodes, each with one side leaf: n + 1 runs of
    average length about n / 2."""
    edges = {}
    for k in range(n):
        edges[(f"d{k}", f"l{k}")] = "s"
        edges[(f"d{k}", f"d{k + 1}")] = "c"
    utilities = {("P1", f"l{k}"): k % 5 for k in range(n)}
    utilities[("P1", f"d{n}")] = 0
    return make_game(edges, [{f"d{k}"} for k in range(n)],
                     {f"d{k}": "P1" for k in range(n)}, utilities)


def test_a_long_comb_validates_and_classifies_within_seconds():
    start = time.perf_counter()
    m = identity_morphism(comb_game(4000))
    assert is_mono(m) and is_iso(m)
    assert time.perf_counter() - start < 5


@pytest.fixture
def run_node_sets(monkeypatch):
    """The end nodes whose run node set gamecat builds, one per build."""
    import gamecat.tree
    build = gamecat.tree._runs
    calls = []

    def counted(t, *args):
        built = build(t, *args)
        calls.extend(built)
        return built

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gamecat" and getattr(module, "_runs", None) is build:
            monkeypatch.setattr(module, "_runs", counted)
    return calls


def test_run_node_sets_are_built_only_when_zeta_is_read(run_node_sets):
    g = comb_game(200)
    m = identity_morphism(g)
    assert is_mono(m) and is_iso(m)
    assert iso_search(g, g).node_map == m.node_map
    assert run_node_sets == []
    zeta = m.zeta
    assert len(zeta) == 201 and len(run_node_sets) == 2 * 201
    assert m.zeta is zeta and len(run_node_sets) == 2 * 201


def test_runs_and_zeta_equal_the_parent_chain_runs():
    # runs() and zeta come from one preorder walk per tree; _run climbs
    # the parent chain of one end.
    from gamecat.tree import _run
    rng = random.Random(67)
    games = [parse_game_text(open(p, encoding="utf-8").read())[1]
             for p in sorted(glob.glob(os.path.join(FIXTURES, "*.gm")))]
    games += [random_game(rng, max_nodes=rng.choice([6, 10, 16])) for _ in range(240)]
    games.append(comb_game(300))
    for g in games:
        t = g.tree
        assert runs(t) == g.runs() == [_run(t, e) for e in t.ends]
        ms = [identity_morphism(g), relabel_iso(rng, g)[1], extend_under_new_root(rng, g)[1]]
        merged = merge_two_ends(rng, g)
        ms += [merged[1]] if merged is not None else []
        for m in ms:
            tau, tgt = m.node_map, m.target.tree
            assert list(m.zeta.items()) == [(_run(t, e), _run(tgt, tau[e])) for e in t.ends]
