import random
import time

import pytest

from gamecat import (Atom, OperationError, identity_morphism, is_nash, nash,
                     next_node, outcome, properties, push_strategy, spe,
                     strategies, strategy_space_size, subgame_roots,
                     to_distinguished)
from gamecat.equilibrium import GrandStrategy
from gamecat.terms import FinSet, Tup
import examplegames
from examplegames import A, driver3, nested, trio_a, make_game
from genrandom import random_game, relabel_iso
from oracles import (as_strategy_set, backward_induction, oracle_nash,
                     oracle_spe)


def pick(g, mapping):
    """The enumerated strategy whose choices match mapping (cell -> action)."""
    want = {frozenset(A(n) for n in cell): A(a) for cell, a in mapping.items()}
    for s in strategies(g):
        if s.as_dict() == want:
            return s
    raise AssertionError("strategy not found")


def runset(*nodes):
    return frozenset(A(n) for n in nodes)


def test_strategy_count_is_product_of_feasible_sizes():
    g = trio_a()
    assert strategy_space_size(g) == 8
    assert len(strategies(g)) == 8


def test_strategy_cap():
    g = trio_a()
    with pytest.raises(OperationError) as e:
        strategies(g, cap=7)
    assert e.value.code == "StrategySpaceTooLarge"
    assert e.value.detail == "8"


def test_outcomes_trace_the_chosen_actions():
    g = trio_a()
    s = pick(g, {(0,): "b", (1,): "g", (3, 4): "e"})
    assert outcome(g, s) == runset(0, 3, 5)
    s2 = pick(g, {(0,): "c", (1,): "d", (3, 4): "f"})
    assert outcome(g, s2) == runset(0, 1, 4, 8)


def test_nash_matches_independent_oracle_on_fixture():
    g = trio_a()
    assert as_strategy_set(nash(g)) == oracle_nash(g)


def test_spe_matches_independent_oracle_on_fixture():
    g = trio_a()
    assert as_strategy_set(spe(g)) == oracle_spe(g)


def test_spe_is_contained_in_nash():
    rng = random.Random(41)
    for _ in range(15):
        g = random_game(rng, max_nodes=8, max_infosets=4, max_actions=3)
        ns, ss = nash(g), spe(g)
        assert set(map(lambda s: frozenset(s.choices), ss)) <= \
            set(map(lambda s: frozenset(s.choices), ns))
        for s in ns:
            assert is_nash(g, s)


def test_nash_and_spe_match_oracles_on_random_games():
    rng = random.Random(43)
    for _ in range(12):
        g = random_game(rng, max_nodes=8, max_infosets=4, max_actions=3)
        assert as_strategy_set(nash(g)) == oracle_nash(g)
        assert as_strategy_set(spe(g)) == oracle_spe(g)


def test_nash_and_spe_match_oracles_on_300_random_games():
    rng = random.Random(61)
    absent_minded = 0
    for _ in range(300):
        g = random_game(rng, max_nodes=10, max_infosets=4, max_actions=3)
        absent_minded += not properties(g).no_absentmindedness
        assert as_strategy_set(nash(g)) == oracle_nash(g)
        assert as_strategy_set(spe(g)) == oracle_spe(g)
    assert absent_minded > 0


def test_absent_minded_driver_cannot_exit_at_the_second_node():
    # One cell {1, 2}, node 2 the C-child of node 1. Exiting at 2 would pay
    # 4, but reaching 2 takes C at the cell, so a pure strategy never exits
    # there: all-C (pays 1) beats all-E (pays 0), and nothing beats all-C.
    g = make_game({(1, 3): "E", (1, 2): "C", (2, 4): "E", (2, 5): "C"},
                  [{1, 2}], {1: "P1", 2: "P1"},
                  {("P1", 3): 0, ("P1", 4): 4, ("P1", 5): 1})
    all_c = {runset(1, 2): A("C")}
    assert [s.as_dict() for s in nash(g)] == [all_c]
    assert [s.as_dict() for s in spe(g)] == [all_c]


def test_driver_meeting_one_cell_three_times_matches_the_oracles():
    # One run meets P1's cell {1, 2, 3} three times, so a walk that branches
    # at 1 must keep its choice at both 2 and 3; P2 moves before and after.
    g = driver3()
    assert not properties(g).no_absentmindedness
    assert as_strategy_set(nash(g)) == oracle_nash(g)
    assert as_strategy_set(spe(g)) == oracle_spe(g)
    equilibria = nash(g)
    assert [s.as_dict()[runset(1, 2, 3)] for s in equilibria] == [A("C"), A("E"), A("E")]
    assert [s for s in strategies(g) if is_nash(g, s)] == equilibria


def test_pivot_meeting_its_cell_three_times_matches_the_oracles(monkeypatch):
    # driver3 with P1 also moving at 7: P1 has 4 strategies and P2 2, so
    # P1 is the pivot, and its walk must keep one action at 1, 2 and 3.
    edges = {(0, 1): "L", (0, 9): "R",
             (1, 4): "E", (1, 2): "C", (2, 5): "E", (2, 3): "C",
             (3, 6): "E", (3, 7): "C", (7, 10): "a", (7, 11): "b"}
    mover = {0: "P2", 1: "P1", 2: "P1", 3: "P1", 7: "P1"}
    p1 = {4: 0, 5: 3, 6: 3, 9: 0, 10: 1, 11: -1}
    p2 = {4: 0, 5: 0, 6: 0, 9: 1, 10: 2, 11: 0}
    g = make_game(edges, [{0}, {1, 2, 3}, {7}], mover,
                  {**{("P1", e): v for e, v in p1.items()}, **{("P2", e): v for e, v in p2.items()}})
    assert own_spaces(g) == {A("P1"): 4, A("P2"): 2}
    walks = pivot_walks(monkeypatch)
    ns = nash(g)
    assert walks == [g.ranks[A("P1")]] * 2
    assert as_strategy_set(ns) == oracle_nash(g)
    assert as_strategy_set(spe(g)) == oracle_spe(g)
    assert [s for s in strategies(g) if is_nash(g, s)] == ns
    # All-C never exits at 5 or 6; it meets 7, where a pays P1 more.
    assert {s.as_dict()[runset(1, 2, 3)] for s in ns if s.as_dict()[runset(0)] == A("L")} \
        == {A("C")}


def binary_game(depth, seed):
    """The full binary tree of the given depth, nodes numbered heap-style
    from 1; P1 moves at even depths and P2 at odd ones, and each player's
    end utilities are a seeded permutation, so every preference is strict."""
    rng = random.Random(seed)
    edges, mover = {}, {}
    level = [1]
    for d in range(depth):
        for x in level:
            mover[x] = "P1" if d % 2 == 0 else "P2"
            edges[(x, 2 * x)] = "L"
            edges[(x, 2 * x + 1)] = "R"
        level = [y for x in level for y in (2 * x, 2 * x + 1)]
    utilities = {}
    for i in ("P1", "P2"):
        values = list(range(len(level)))
        rng.shuffle(values)
        utilities.update({(i, e): v for e, v in zip(level, values)})
    return make_game(edges, [{x} for x in mover], mover, utilities)


def test_binary_4_equilibria_finish_and_agree_with_backward_induction():
    g = binary_game(4, seed=3)
    assert strategy_space_size(g) == 2 ** 15
    start = time.perf_counter()
    ns, ss = nash(g), spe(g)
    assert time.perf_counter() - start < 60
    want = {frozenset({x}): a for x, a in backward_induction(g).items()}
    assert [s.as_dict() for s in ss] == [want]
    assert want in [s.as_dict() for s in ns]


def test_binary_8_spe_is_backward_induction_within_seconds():
    g = binary_game(8, seed=3)
    start = time.perf_counter()
    ss = spe(g, cap=2 ** 300)
    assert time.perf_counter() - start < 10
    want = {frozenset({x}): a for x, a in backward_induction(g).items()}
    assert [s.as_dict() for s in ss] == [want]


def _ref_deviation_gains(g, choice, start, i, base):
    """True when player i, the others held to choice, can reach from start
    an end node worth more than base to i; stops at the first such node."""
    info_of, mine = g.clt.info_of, {x for x, j in g.mover.items() if j == i}
    feasible, ends, utilities = g.clt.feasible, g.tree.end_nodes, g.utilities
    fixed, path = {}, []
    stack = [(start, 0, None, None)]
    while stack:
        x, depth, cell, a = stack.pop()
        for c in path[depth:]:
            if c is not None:
                del fixed[c]
        del path[depth:]
        path.append(cell)
        if cell is not None:
            fixed[cell] = a
        if x in ends:
            if utilities[(i, x)] > base:
                return True
            continue
        c = info_of[x]
        if x not in mine:
            stack.append((next_node(g.clt, x, choice[c]), depth + 1, None, None))
        elif c in fixed:
            stack.append((next_node(g.clt, x, fixed[c]), depth + 1, None, None))
        else:
            for a in feasible[x]:
                stack.append((next_node(g.clt, x, a), depth + 1, c, a))
    return False


def _ref_play(g, choice, x):
    """The end node reached from x when every cell plays choice."""
    while x not in g.tree.end_nodes:
        x = next_node(g.clt, x, choice[g.clt.info_of[x]])
    return x


def _ref_nash_from(g, choice, start):
    end = _ref_play(g, choice, start)
    return not any(_ref_deviation_gains(g, choice, start, i, g.utilities[(i, end)])
                   for i in g.players)


def ref_nash(g):
    """Every strategy, then the ones no player can improve on from the root."""
    return [s for s in strategies(g) if _ref_nash_from(g, s.as_dict(), g.tree.root)]


def ref_spe(g):
    """Every strategy, then the ones Nash from every subgame root."""
    roots = sorted(subgame_roots(g))
    return [s for s in strategies(g)
            if all(_ref_nash_from(g, s.as_dict(), r) for r in roots)]


def test_nash_and_spe_equal_enumerate_and_filter_on_1000_random_games():
    rng = random.Random(67)
    imperfect = absent_minded = several_players = 0
    for _ in range(1000):
        g = random_game(rng, max_nodes=16, max_players=3, max_actions=3)
        imperfect += not properties(g).perfect_information
        absent_minded += not properties(g).no_absentmindedness
        several_players += len(g.players) > 1
        assert nash(g) == ref_nash(g)
        assert spe(g) == ref_spe(g)
    assert imperfect > 300 and absent_minded > 300 and several_players > 300


@pytest.mark.parametrize("solver", [nash, spe, strategies])
def test_cap_names_the_full_space_at_size_minus_one(solver):
    g = binary_game(3, seed=1)
    size = strategy_space_size(g)
    assert size == 2 ** 7
    with pytest.raises(OperationError) as e:
        solver(g, cap=size - 1)
    assert e.value.code == "StrategySpaceTooLarge"
    assert e.value.detail == str(size)
    assert solver(g, cap=size)


def test_unique_spe_of_strict_perfect_information_game():
    g = make_game(
        {(0, 1): "a", (0, 2): "b", (1, 3): "c", (1, 4): "d"},
        [{0}, {1}], {0: "P1", 1: "P2"},
        {("P1", 2): 1, ("P1", 3): 0, ("P1", 4): 3,
         ("P2", 2): 0, ("P2", 3): 2, ("P2", 4): 5})
    choice = backward_induction(g)
    assert choice is not None
    sols = spe(g)
    assert len(sols) == 1
    assert sols[0].as_dict() == {frozenset({x}): a for x, a in choice.items()}


def test_backward_induction_oracle_agrees_on_random_strict_games():
    rng = random.Random(47)
    checked = 0
    while checked < 8:
        g = random_game(rng, max_nodes=8, util_range=(-50, 50))
        if any(len(c) != 1 for c in g.clt.infosets):
            continue
        choice = backward_induction(g)
        if choice is None:
            continue
        checked += 1
        sols = spe(g)
        dicts = [s.as_dict() for s in sols]
        assert {frozenset({x}): a for x, a in choice.items()} in dicts


def test_push_strategy_commutes_with_outcomes():
    rng = random.Random(53)
    for _ in range(10):
        g = random_game(rng, max_nodes=8, max_infosets=4, max_actions=3)
        g2, cert = relabel_iso(rng, g)
        for s in strategies(g):
            s2 = push_strategy(cert, s)
            assert cert.zeta[outcome(g, s)] == outcome(g2, s2)


def test_push_strategy_transports_equilibrium_sets():
    rng = random.Random(59)
    for _ in range(8):
        g = random_game(rng, max_nodes=8, max_infosets=4, max_actions=3)
        g2, cert = relabel_iso(rng, g)
        for solver in (nash, spe):
            pushed = {frozenset(push_strategy(cert, s).choices)
                      for s in solver(g)}
            direct = {frozenset(s.choices) for s in solver(g2)}
            assert pushed == direct


def test_push_strategy_requires_an_isomorphism():
    g1 = make_game({(0, 1): "a", (0, 2): "b"}, [{0}], {0: "P1"},
                   {("P1", 1): 0, ("P1", 2): 0})
    g2 = make_game({(0, 1): "a"}, [{0}], {0: "P1"}, {("P1", 1): 0})
    from gamecat import validate_game_morphism
    m = validate_game_morphism(g1, g2, {A(0): A(0), A(1): A(1), A(2): A(1)})
    with pytest.raises(OperationError):
        push_strategy(m, strategies(g1)[0])


def test_push_strategy_rejects_a_strategy_of_another_game():
    with pytest.raises(OperationError) as e:
        push_strategy(identity_morphism(trio_a()), strategies(nested())[0])
    assert (e.value.code, e.value.witness) == ("NotAStrategy", (runset(0), A("a")))
    # An action the source cell does not offer is rejected too; a strategy
    # that chooses at only some source cells still pushes.
    iso, (cell, a) = identity_morphism(trio_a()), strategies(trio_a())[0].choices[0]
    with pytest.raises(OperationError) as e:
        push_strategy(iso, GrandStrategy(((cell, A("e")),)))
    assert (e.value.code, e.value.witness) == ("NotAStrategy", (cell, A("e")))
    assert push_strategy(iso, GrandStrategy(((cell, a),))).choices == ((cell, a),)


def test_outcome_and_is_nash_reject_a_strategy_of_another_game():
    g = trio_a()
    first = strategies(g)[0]
    cases = [(strategies(nested())[0], (runset(0), A("a"))),
             (GrandStrategy(first.choices[:1] + ((first.choices[1][0], A("e")),)),
              (first.choices[1][0], A("e"))),
             # A cell with no choice: the first in encoding order is named.
             (GrandStrategy(first.choices[:1] + first.choices[2:]), first.choices[1][0])]
    for s, witness in cases:
        for f in (outcome, is_nash):
            with pytest.raises(OperationError) as e:
                f(g, s)
            assert (e.value.code, e.value.witness) == ("NotAStrategy", witness)
    assert outcome(g, first) == outcome(g, GrandStrategy(first.choices[::-1]))


def test_push_along_distinguishing_certificate_tags_actions():
    g = trio_a()
    res = to_distinguished(g)
    s = pick(g, {(0,): "b", (1,): "g", (3, 4): "e"})
    pushed = push_strategy(res.certificate, s)
    cell0 = frozenset({A(0)})
    assert pushed.as_dict()[cell0] == Tup((FinSet((A(0),)), A("b")))


def own_spaces(g):
    """Each player's number of strategies of its own."""
    space = {}
    for cell in g.clt.cells:
        i = g.mover[next(iter(cell))]
        space[i] = space.get(i, 1) * len(g.clt.cell_actions[cell])
    return space


def pivot_walks(monkeypatch):
    """The payoff table of every walk nash makes for its pivot, as a list
    that fills while nash runs: the walks that collect runs."""
    from gamecat import equilibrium
    walks, walk = [], equilibrium._best_payoff

    def counted(at, pay, start, p, mine, again, runs=None):
        if runs is not None:
            walks.append(pay)
        return walk(at, pay, start, p, mine, again, runs)
    monkeypatch.setattr(equilibrium, "_best_payoff", counted)
    return walks


def test_nash_of_one_player_games_matches_the_oracle():
    # The pivot owns every cell: no other player is checked.
    rng = random.Random(73)
    for _ in range(60):
        g = random_game(rng, max_nodes=10, max_players=1, max_actions=3)
        assert as_strategy_set(nash(g)) == oracle_nash(g)


def test_nash_with_ties_at_the_pivots_best_rank_matches_the_oracle():
    # Utilities 0 or 1 tie often, so the pivot reaches its best rank by
    # several runs; with every utility 0 every strategy is Nash.
    rng = random.Random(79)
    several = 0
    for _ in range(150):
        g = random_game(rng, max_nodes=10, max_players=3, max_actions=3, util_range=(0, 1))
        several += len(nash(g)) > 1
        assert as_strategy_set(nash(g)) == oracle_nash(g)
    assert several > 50
    g = make_game(examplegames.TRIO_EDGES, examplegames.TRIO_INFOSETS, examplegames.TRIO_MOVER,
                  {(i, e): 0 for i in ("P1", "P2", "P3") for e in (2, 5, 6, 7, 8)})
    assert nash(g) == strategies(g)


def test_nash_when_players_tie_for_the_most_strategies_matches_the_oracle(monkeypatch):
    # In trio_a each player has two strategies; the pivot is P1, the owner
    # of the first cell in encoding order.
    g = trio_a()
    assert set(own_spaces(g).values()) == {2}
    walks = pivot_walks(monkeypatch)
    assert as_strategy_set(nash(g)) == oracle_nash(g)
    assert walks == [g.ranks[A("P1")]] * 4
    rng, tied = random.Random(83), 0
    while tied < 60:
        g = random_game(rng, max_nodes=12, max_players=3, max_actions=3)
        sizes = sorted(own_spaces(g).values())
        if len(sizes) > 1 and sizes[-1] == sizes[-2]:
            tied += 1
            assert as_strategy_set(nash(g)) == oracle_nash(g)


def lopsided_game():
    """P2 picks L or R at the root; below each, a comb of 12 P1 nodes, each
    continuing by a or leaving by b, the k-th nodes of the two combs one
    cell: 2**12 strategies for P1, 2 for P2. P1 is paid most at the comb's
    end, so a is its first deviation and nearly always a gain."""
    edges, mover, utilities = {(0, "L0"): "L", (0, "R0"): "R"}, {0: "P2"}, {}
    for side, top in (("L", 20), ("R", 19)):
        for k in range(12):
            x = f"{side}{k}"
            edges[(x, f"{side}{k + 1}")], edges[(x, f"{side}x{k}")] = "a", "b"
            mover[x] = "P1"
            utilities[("P1", f"{side}x{k}")] = k
            utilities[("P2", f"{side}x{k}")] = k % 3
        utilities[("P1", f"{side}12")] = top
        utilities[("P2", f"{side}12")] = 1 if side == "L" else 2
    return make_game(edges, [{0}] + [{f"L{k}", f"R{k}"} for k in range(12)], mover, utilities)


def test_lopsided_nash_walks_once_per_strategy_of_the_other_player(monkeypatch):
    g = lopsided_game()
    assert own_spaces(g) == {A("P1"): 2 ** 12, A("P2"): 2}
    walks = pivot_walks(monkeypatch)
    start = time.perf_counter()
    ns = nash(g)
    assert time.perf_counter() - start < 1
    assert walks == [g.ranks[A("P1")]] * 2
    assert as_strategy_set(ns) == oracle_nash(g)
