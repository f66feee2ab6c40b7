import random

import pytest

from gamecat import (Atom, ValidationError, descendants, run_end, runs,
                     strict_predecessors, tree_leq, validate_out_tree)
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
