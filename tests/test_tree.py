import glob
import os
import random

import pytest

from gamecat import (Atom, FinSet, OperationError, OutTree, Tup, ValidationError,
                     descendants, parse_game_text, run_end, runs, strict_predecessors,
                     to_sequence, tree_leq, validate_out_tree)
from conftest import FIXTURES
from genrandom import random_game


def A(name):
    return Atom(str(name))


def tree(*edges):
    es = {(A(x), A(y)) for x, y in edges}
    ns = {n for e in es for n in e}
    return validate_out_tree(ns, es)


def test_two_leaf_tree():
    t = tree((0, 1), (0, 2))
    assert t.root == A(0)
    assert t.decision_nodes == frozenset({A(0)})
    assert t.end_nodes == frozenset({A(1), A(2)})
    assert runs(t) == [frozenset({A(0), A(1)}), frozenset({A(0), A(2)})]


def test_single_node_is_trivial():
    with pytest.raises(ValidationError) as e:
        validate_out_tree({A(0)}, set())
    assert e.value.code == "Trivial"


def test_error_codes():
    cases = [
        ({A(0)}, {(A(0), A(1))}, "DanglingEdge"),
        ({A(0), A(1)}, {(A(0), A(0)), (A(0), A(1))}, "HasCycle"),
        ({A(0), A(1)}, {(A(0), A(1)), (A(1), A(0))}, "NotAntisymmetric"),
        ({A(0), A(1), A(2)}, {(A(0), A(2)), (A(1), A(2))}, "HasCycle"),
        ({A(0), A(1), A(2), A(3)}, {(A(0), A(1)), (A(2), A(3))},
         "MultipleRoots"),
        ({A(0), A(1), A(2), A(3)},
         {(A(0), A(1)), (A(2), A(3)), (A(3), A(2))}, "NotAntisymmetric"),
    ]
    for nodes, edges, code in cases:
        with pytest.raises(ValidationError) as e:
            validate_out_tree(nodes, edges)
        assert e.value.code == code, (nodes, edges)
    a, b, c, d, r, x = map(A, "abcdrx")
    witnessed = [
        (set(), set(), "NoRoot", None, "empty node set"),
        ({a, b, c}, {(a, b), (b, c), (c, a)}, "NoRoot", None, ""),
        # The cycle off the root is met by following parents from b.
        ({r, x, b, c, d}, {(r, x), (b, c), (c, d), (d, b)}, "HasCycle", b, ""),
    ]
    for nodes, edges, code, witness, detail in witnessed:
        with pytest.raises(ValidationError) as e:
            validate_out_tree(nodes, edges)
        assert (e.value.code, e.value.witness, e.value.detail) == (code, witness, detail)


def test_all_nodes_covered_by_edges_requirement():
    with pytest.raises(ValidationError) as e:
        validate_out_tree({A(0), A(1), A(2)}, {(A(0), A(1))})
    assert e.value.code == "MultipleRoots"


def test_three_level_tree_counts():
    # three-level tree with five runs
    t = tree((0, 3), (0, 1), (1, 4), (1, 2), (3, 5), (3, 6), (4, 7), (4, 8))
    zs = runs(t)
    assert len(zs) == 5
    assert frozenset({A(0), A(3), A(5)}) in zs
    assert frozenset({A(0), A(1), A(4), A(7)}) in zs
    assert frozenset({A(0), A(1), A(4), A(8)}) in zs


def test_order_helpers():
    t = tree((0, 1), (1, 2), (0, 3))
    assert strict_predecessors(t, A(2)) == [A(0), A(1)]
    assert strict_predecessors(t, A(0)) == []
    assert tree_leq(t, A(0), A(2))
    assert tree_leq(t, A(1), A(1))
    assert not tree_leq(t, A(3), A(2))
    assert descendants(t, A(1)) == frozenset({A(1), A(2)})
    assert run_end(t, frozenset({A(0), A(1), A(2)})) == A(2)
    with pytest.raises(OperationError) as e:
        strict_predecessors(t, A(9))
    assert (e.value.code, e.value.witness) == ("UnknownNode", A(9))


def test_runs_are_ordered_by_end_encoding():
    rng = random.Random(7)
    for _ in range(30):
        g = random_game(rng, max_nodes=10)
        zs = runs(g.tree)
        ends = [run_end(g.tree, z) for z in zs]
        from gamecat import encode
        assert ends == sorted(ends, key=encode)
        # each run is a chain from the root
        for z in zs:
            e = run_end(g.tree, z)
            assert z == frozenset(strict_predecessors(g.tree, e)) | {e}


def test_two_parents_witness_is_the_least_such_node():
    # As first written: sort by (target, source) and report the first
    # target met twice.
    def reference(edges):
        seen = set()
        for _, y in sorted(edges, key=lambda e: (e[1], e[0])):
            if y in seen:
                return y
            seen.add(y)

    rng = random.Random(17)
    for _ in range(300):
        names = rng.sample(["a", "b", "c", "é", "10", "9", "x y", "z"], 6)
        nodes = [A(n) for n in names]
        edges = {(nodes[rng.randrange(k)], nodes[k]) for k in range(1, 6)}
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(2, 6)
            edges.add((nodes[rng.randrange(k)], nodes[k]))
        if len({y for _, y in edges}) == len(edges):
            continue
        with pytest.raises(ValidationError) as e:
            validate_out_tree(set(nodes), edges)
        assert (e.value.code, e.value.witness) == ("HasCycle", reference(edges))


def test_edge_witness_is_the_least_offending_edge():
    # As first written: sort every edge, then report the first edge that is
    # dangling, a self-loop or one of an antisymmetric pair, in that order.
    def reference(nodes, edges):
        for x, y in sorted(edges):
            if x not in nodes or y not in nodes:
                return "DanglingEdge", (x, y)
            if x == y:
                return "HasCycle", (x, y)
            if (y, x) in edges:
                return "NotAntisymmetric", (x, y)

    rng = random.Random(29)
    names = ["a", "b", "c", "é", "10", "9", "x y", "z"]
    terms = [A(n) for n in names] + [Tup((A("a"),)), FinSet((A("b"), A("a")))]
    offences = {"DanglingEdge": 0, "HasCycle": 0, "NotAntisymmetric": 0}
    for _ in range(400):
        nodes = rng.sample(terms, 7)
        strays = [x for x in terms if x not in nodes]
        edges = {(nodes[rng.randrange(k)], nodes[k]) for k in range(1, 7)}
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            x, y = rng.sample(nodes, 2)
            if kind == 0:
                edges.add((x, rng.choice(strays)) if rng.random() < 0.5 else (rng.choice(strays), y))
            elif kind == 1:
                edges.add((x, x))
            else:
                edges |= {(x, y), (y, x)}
        code, witness = reference(set(nodes), edges)
        offences[code] += 1
        for order in (sorted(edges), sorted(edges, reverse=True), rng.sample(sorted(edges), len(edges))):
            with pytest.raises(ValidationError) as e:
                validate_out_tree(set(nodes), order)
            assert (e.value.code, e.value.witness) == (code, witness), order
    assert min(offences.values()) >= 40, offences


def test_sorted_index_is_term_order():
    # Validation and transport both read children off the nodes, so the
    # edges in term order are each sorted node's children in turn.
    for g in list(index_inputs())[::4]:
        for t in (g.tree, to_sequence(g).game.tree):
            assert t.sorted_nodes == tuple(sorted(t.nodes))
            assert [(x, y) for x in t.sorted_nodes for y in t.children[x]] == sorted(t.edges)
            assert t.children == {x: tuple(sorted(y for p, y in t.edges if p == x)) for x in t.nodes}


def index_inputs():
    """The fixture games and 240 random games."""
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.gm"))):
        with open(path, encoding="utf-8") as fh:
            yield parse_game_text(fh.read())[1]
    rng = random.Random(131)
    for _ in range(240):
        yield random_game(rng, max_nodes=rng.choice([6, 10, 16]))


def _leq_by_climb(t, x, y):
    """x on the root-to-y path, found by climbing parents from y."""
    while y != x and y != t.root:
        y = t.pred[y]
    return y == x


def _below_by_walk(t, x):
    """x and everything below it, by a stack walk over children."""
    out, stack = [], [x]
    while stack:
        y = stack.pop()
        out.append(y)
        stack.extend(t.children[y])
    return out


def _check_index(t):
    assert sorted(t.order) == sorted(t.nodes) and len(t.order) == len(t.nodes)
    assert all(t.order[t.pos[x]] is x for x in t.nodes)
    for x in t.nodes:
        below = _below_by_walk(t, x)
        assert descendants(t, x) == frozenset(below)
        assert t.last[x] - t.pos[x] + 1 == len(below)
        assert t.depth[x] == len(strict_predecessors(t, x))
        for y in t.nodes:
            assert tree_leq(t, x, y) == _leq_by_climb(t, x, y)


def test_tree_index_agrees_with_parent_climbs_and_stack_walks():
    # Another preorder, children taken in the opposite order, must give the
    # same answers: the index promises no sibling order.
    count = 0
    for g in index_inputs():
        t = g.tree
        _check_index(t)
        other = []
        stack = [t.root]
        while stack:
            x = stack.pop()
            other.append(x)
            stack.extend(reversed(t.children[x]))
        _check_index(OutTree(**{f: getattr(t, f) for f in t._fields} | {"order": tuple(other)}))
        count += 1
    assert count >= 240 + 20


def test_run_end_reads_the_index():
    for g in index_inputs():
        t = g.tree
        for e in t.ends:
            run = frozenset(strict_predecessors(t, e)) | {e}
            assert run_end(t, run) == e
            others = [run - {t.root}, run - {e} | {A("not a node")}]
            others += [run | {x} for x in sorted(t.nodes - run)[:1]]
            for bad in others:
                with pytest.raises(OperationError) as err:
                    run_end(t, bad)
                assert err.value.code == "NotARun"
