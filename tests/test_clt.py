import random
import re

import pytest

from gamecat import (Atom, OperationError, ValidationError, next_node, parse_game_text,
                     to_distinguished, to_sequence, validate_clt, validate_out_tree)
from gamecat.clt import _not_constant
from examplegames import A, OVERLAP, relabel, mixedalpha, make_clt
from genrandom import random_game


def test_infoset_with_shared_feasibility_is_valid():
    _, tgt = relabel()
    assert frozenset({A(3), A(4)}) in tgt.infosets
    x = A(3)
    assert tgt.feasible[x] == frozenset({A("e"), A("f")})


def test_uncovered_decision_node_is_partition_bad():
    # decision node 11 in no information set
    edges = {(A(11), A(21)): A("c"), (A(11), A(24)): A("d"),
             (A(24), A(25)): A("g"), (A(24), A(26)): A("h")}
    tree = validate_out_tree({n for e in edges for n in e}, set(edges))
    with pytest.raises(ValidationError) as e:
        validate_clt(tree, [frozenset({A(24)})], edges)
    assert e.value.code == "PartitionBad"
    assert e.value.witness == A(11)


def test_partition_errors():
    edges = {(A(0), A(1)): A("a"), (A(0), A(2)): A("b")}
    tree = validate_out_tree({A(0), A(1), A(2)}, set(edges))
    with pytest.raises(ValidationError) as e:
        validate_clt(tree, [frozenset({A(0), A(1)})], edges)
    assert e.value.code == "PartitionBad"
    with pytest.raises(ValidationError) as e:
        validate_clt(tree, [frozenset()], edges)
    assert e.value.code == "PartitionBad"
    edges2 = {(A(0), A(1)): A("a"), (A(1), A(2)): A("a")}
    tree2 = validate_out_tree({A(0), A(1), A(2)}, set(edges2))
    with pytest.raises(ValidationError) as e:
        validate_clt(tree2, [frozenset({A(0), A(1)}), frozenset({A(1)})], edges2)
    assert e.value.code == "PartitionBad"


def test_a_cell_listed_twice_is_partition_bad():
    # Every decision node lies in exactly one listed cell: a cell listed
    # twice would let a strategy choose twice at one information set.
    edges = {(A("r"), A("x")): A("L"), (A("r"), A("y")): A("R")}
    tree = validate_out_tree({A("r"), A("x"), A("y")}, set(edges))
    with pytest.raises(ValidationError) as e:
        validate_clt(tree, [{A("r")}, {A("r")}], edges)
    assert (e.value.code, e.value.witness, e.value.detail) == (
        "PartitionBad", A("r"), "node in two information sets")


def test_the_overlap_witness_is_the_least_shared_node_in_any_line_order():
    # A set of atoms iterates in the order of their addresses (an atom's
    # hash is its id). Each line order gets fresh names, so that its atoms
    # are built anew; the cells {c, b, a} and {b, a} share a and b.
    game, *lines = OVERLAP.splitlines()
    rng = random.Random(0)
    for k in range(30):
        rng.shuffle(lines)
        text = re.sub(r"\b[abc]\b", lambda m: f"o{k}{m[0]}", "\n".join([game, *lines]))
        with pytest.raises(ValidationError) as e:
            parse_game_text(text)
        assert (e.value.code, e.value.witness) == ("PartitionBad", Atom(f"o{k}a")), text


def test_label_must_cover_edges():
    edges = {(A(0), A(1)): A("a"), (A(0), A(2)): A("b")}
    tree = validate_out_tree({A(0), A(1), A(2)}, set(edges))
    partial = {(A(0), A(1)): A("a")}
    with pytest.raises(ValidationError) as e:
        validate_clt(tree, [frozenset({A(0)})], partial)
    assert e.value.code == "LabelBad"


def test_duplicate_action_from_one_node_is_nondeterministic():
    edges = {(A(0), A(1)): A("a"), (A(0), A(2)): A("a")}
    tree = validate_out_tree({A(0), A(1), A(2)}, set(edges))
    with pytest.raises(ValidationError) as e:
        validate_clt(tree, [frozenset({A(0)})], edges)
    assert e.value.code == "NonDeterministic"
    assert e.value.witness == (A(0), A("a"))


def test_feasibility_must_be_constant_on_cells():
    edges = {(A(0), A(1)): A("a"), (A(1), A(2)): A("b")}
    tree = validate_out_tree({A(0), A(1), A(2)}, set(edges))
    with pytest.raises(ValidationError) as e:
        validate_clt(tree, [frozenset({A(0), A(1)})], edges)
    assert e.value.code == "FeasibilityNotConstant"


def test_next_node_values():
    src, _ = mixedalpha()
    assert next_node(src, A(3), A("b")) == A(5)
    assert next_node(src, A(4), A("b")) == A(7)
    with pytest.raises(OperationError) as e:
        next_node(src, A(5), A("b"))
    assert e.value.code == "NotDecision"
    with pytest.raises(OperationError) as e:
        next_node(src, A(3), A("z"))
    assert e.value.code == "NotFeasible"


def test_derived_action_set_is_label_image():
    src, _ = relabel()
    assert src.actions == frozenset({A("b"), A("c"), A("d"), A("g")})


def test_clt_equality_is_structural():
    c1 = make_clt({(0, 1): "a", (0, 2): "b"}, [{0}])
    c2 = make_clt({(0, 1): "a", (0, 2): "b"}, [{0}])
    c3 = make_clt({(0, 1): "a", (0, 2): "c"}, [{0}])
    assert c1 == c2
    assert c1 != c3


def test_not_constant_reports_the_split_of_the_sorted_cell():
    # As first written: every cell sorted, each member compared with the least.
    def reference(cells, value):
        for cell in cells:
            first, *rest = sorted(cell)
            for x in rest:
                if value[x] != value[first]:
                    return first, x
        return None

    rng = random.Random(23)
    pool = [A(n) for n in ["a", "b", "c", "é", "10", "9", "x y", "z", "q"]]
    for _ in range(500):
        members = rng.sample(pool, rng.randint(1, len(pool)))
        cells, k = [], 0
        while k < len(members):
            size = rng.randint(1, 4)
            cells.append(frozenset(members[k:k + size]))
            k += size
        value = {x: rng.choice("uvv") for x in members}
        assert _not_constant(cells, value) == reference(cells, value)


def test_validation_and_transport_store_the_same_forms():
    # Each cell's actions are its members' labels in term order, each
    # decision node's children follow them, and a converter's transported
    # CLT stores what validating its views afresh stores.
    rng = random.Random(17)
    for _ in range(120):
        g = random_game(rng, max_nodes=10)
        for c in (g.clt, to_sequence(g).game.clt, to_distinguished(g).game.clt):
            for x, cell in c.info_of.items():
                labels = [c.label[(x, y)] for y in c.tree.children[x]]
                assert list(c.cell_actions[cell]) == sorted(labels)
                assert [c.label[(x, y)] for y in c.succ[x]] == list(c.cell_actions[cell])
            tree = validate_out_tree(c.tree.nodes, c.tree.edges)
            fresh = validate_clt(tree, c.infosets, c.label)
            assert ((c.cells, c.info_of, c.act, c.cell_actions, c.succ)
                    == (fresh.cells, fresh.info_of, fresh.act, fresh.cell_actions, fresh.succ))
