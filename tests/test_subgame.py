import random
import time

import pytest

from gamecat import (Atom, OperationError, ValidationError, identity_morphism,
                     is_selten_subgame, one_player_zero_game, properties,
                     selten_subclt, selten_subgame, subgame_roots)
from gamecat.cli import main
from examplegames import A, trio_a, nested, innerwrap, flatten, make_game
from genrandom import random_game, relabel_iso
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
