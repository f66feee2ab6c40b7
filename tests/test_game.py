import glob
import os
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from gamecat import (Atom, GameError, OperationError, ValidationError, build_game, descendants,
                     is_iso, iso_search, mono_witness, nash, one_player_zero_game,
                     ordinal_profile, parse_game_text, print_game, pushforward, run_end,
                     selten_subgame, spe, subgame_roots, to_action_set, to_distinguished,
                     to_distinguished_sequence, to_sequence, validate_game,
                     validate_game_morphism)
from conftest import FIXTURES
from examplegames import A, trio_a, trio_b, collapse, make_clt, make_game
from genrandom import merge_two_ends, random_bijections, random_game
from oracles import as_strategy_set, oracle_nash, oracle_spe


def run_of(g, *nodes):
    return frozenset(A(n) for n in nodes)


def test_three_player_game_is_valid():
    g = trio_a()
    assert g.players == frozenset({A("P1"), A("P2"), A("P3")})
    assert g.mover[A(3)] == A("P3") and g.mover[A(4)] == A("P3")
    assert g.utility(A("P1"), run_of(g, 0, 3, 5)) == 1
    assert {x for x, i in g.mover.items() if i == A("P3")} == {A(3), A(4)}


def test_mover_must_cover_and_be_constant():
    clt = make_clt({(0, 1): "a", (1, 2): "b"}, [{0}, {1}])
    with pytest.raises(ValidationError) as e:
        validate_game(clt, {A(0): A("P1")}, {})
    assert e.value.code == "MoverMissing"

    clt2 = make_clt({(0, 3): "a", (0, 1): "b", (1, 4): "a", (1, 2): "b"},
                    [{0, 1}])
    with pytest.raises(ValidationError) as e:
        validate_game(clt2, {A(0): A("P1"), A(1): A("P2")}, {})
    assert e.value.code == "MoverNotConstant"

    with pytest.raises(ValidationError) as e:
        validate_game(clt, {A(0): A("P1"), A(1): A("P1"), A(2): A("P1")}, {})
    assert (e.value.code, e.value.witness, e.value.detail) == (
        "MoverMissing", A(2), "mover assigned to a non-decision node")


def test_utilities_must_cover_all_runs_and_players():
    clt = make_clt({(0, 1): "a", (0, 2): "b"}, [{0}])
    with pytest.raises(ValidationError) as e:
        validate_game(clt, {A(0): A("P1")}, {(A("P1"), A(1)): 0})
    assert e.value.code == "UtilityMissing"
    with pytest.raises(ValidationError) as e:
        validate_game(clt, {A(0): A("P1")},
                      {(A("P1"), A(1)): 0, (A("P1"), A(2)): 0,
                       (A("P2"), A(1)): 0})
    assert e.value.code == "UtilityExtraneous"


def test_utilities_accept_run_sets():
    clt = make_clt({(0, 1): "a", (0, 2): "b"}, [{0}])
    g = validate_game(clt, {A(0): A("P1")},
                      {(A("P1"), frozenset({A(0), A(1)})): Fraction(1, 3),
                       (A("P1"), A(2)): 2})
    assert g.utility(A("P1"), frozenset({A(0), A(1)})) == Fraction(1, 3)


# On the tree 0 -> 1 -> 2, 0 -> 3: a partial run, a set mixing two branches
# and a set with two ends.
NOT_RUNS = [(1, 2), (1, 3), (0, 2, 3)]


def test_error_messages_encode_plain_sets_and_print_other_witnesses():
    # A plain set is written as a frozenset is; a witness that is no term
    # or collection of terms (here a node the caller made up) is printed
    # with str().
    with pytest.raises(OperationError) as e:
        trio_a().utility(A("P1"), {A(0)})
    assert str(e.value) == "NotARun {0}"
    with pytest.raises(OperationError) as e:
        trio_a().utility(A("P1"), frozenset({A(0)}))
    assert str(e.value) == "NotARun {0}"
    with pytest.raises(OperationError) as e:
        descendants(trio_a().tree, 5)
    assert str(e.value) == "UnknownNode 5"


@pytest.mark.parametrize("nodes", NOT_RUNS)
def test_sets_that_are_not_runs_are_rejected_everywhere(nodes):
    g = make_game({(0, 1): "a", (1, 2): "b", (0, 3): "c"}, [{0}, {1}],
                  {0: "P1", 1: "P1"}, {("P1", 2): 1, ("P1", 3): 0})
    z = frozenset(A(x) for x in nodes)
    for call in (lambda: run_end(g.tree, z), lambda: g.utility(A("P1"), z)):
        with pytest.raises(OperationError) as e:
            call()
        assert (e.value.code, e.value.witness) == ("NotARun", z)

    with pytest.raises(ValidationError) as e:
        validate_game(g.clt, g.mover, {**g.utilities, (A("P1"), z): 1})
    assert (e.value.code, e.value.witness) == ("UtilityExtraneous", (A("P1"), z))

    text = ("game g\nnode 0\nnode 1\nnode 2\nnode 3\n"
            "edge 0 1 a\nedge 1 2 b\nedge 0 3 c\n"
            "infoset i0 { 0 }\ninfoset i1 { 1 }\n"
            "player P1 infoset i0\nplayer P1 infoset i1\n"
            "utility P1 run { 0 1 2 } 1\nutility P1 end 3 0\n"
            f"utility P1 run {{ {' '.join(map(str, nodes))} }} 1\n")
    with pytest.raises(ValidationError) as e:
        parse_game_text(text)
    assert (e.value.code, e.value.witness) == ("UtilityExtraneous", (A("P1"), z))


def test_utility_of_an_unknown_player_is_a_coded_error():
    g = trio_a()
    with pytest.raises(OperationError) as e:
        g.utility(A("P9"), run_of(g, 0, 3, 5))
    assert (e.value.code, e.value.witness) == ("UnknownPlayer", A("P9"))
    with pytest.raises(OperationError) as e:
        ordinal_profile(g, A("P9"))
    assert (e.value.code, e.value.witness) == ("UnknownPlayer", A("P9"))


def test_an_end_key_and_a_run_key_with_two_values_conflict():
    # build_game keys one run by its end and by its node set, with two values.
    edges = {(A(0), A(1)): A("a"), (A(0), A(2)): A("b")}
    run = frozenset({A(0), A(1)})
    utilities = {(A("P1"), A(1)): 1, (A("P1"), A(2)): 0, (A("P1"), run): 2}
    with pytest.raises(ValidationError) as e:
        build_game({A(0), A(1), A(2)}, edges, [{A(0)}], {A(0): A("P1")}, utilities)
    assert (e.value.code, e.value.witness) == ("UtilityConflict", (A("P1"), run))
    # Two keys for one run with one value agree.
    g = build_game({A(0), A(1), A(2)}, edges, [{A(0)}], {A(0): A("P1")},
                   {**utilities, (A("P1"), run): Fraction(2, 2)})
    assert g.utility(A("P1"), run) == 1


@pytest.mark.parametrize("value", [None, [1], "abc", float("nan"), "1/0", float("inf")])
def test_a_utility_that_is_no_rational_is_a_coded_error(value):
    edges = {(A(0), A(1)): A("a"), (A(0), A(2)): A("b")}
    utilities = {(A("P1"), A(1)): 1, (A("P1"), A(2)): value}
    with pytest.raises(ValidationError) as e:
        build_game({A(0), A(1), A(2)}, edges, [{A(0)}], {A(0): A("P1")}, utilities)
    assert (e.value.code, e.value.witness) == ("UtilityNotRational",
                                               (A("P1"), frozenset({A(0), A(2)})))


def test_every_value_fraction_accepts_is_a_utility():
    edges = {(A(0), A(1)): A("a"), (A(0), A(2)): A("b"), (A(0), A(3)): A("c"),
             (A(0), A(4)): A("d"), (A(0), A(5)): A("e")}
    values = [3, "1/2", Decimal("0.25"), 0.5, True]
    g = build_game({A(k) for k in range(6)}, edges, [{A(0)}], {A(0): A("P1")},
                   {(A("P1"), A(k + 1)): v for k, v in enumerate(values)})
    assert [g.utility(A("P1"), frozenset({A(0), A(k + 1)})) for k in range(5)] == [
        3, Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), 1]


def test_one_player_zero_game():
    src, _, _ = collapse()
    assert src.players == frozenset({A("P1")})
    assert all(v == 0 for v in src.utilities.values())


def test_ordinal_profile_values():
    g = trio_a()
    prof = ordinal_profile(g, A("P1"))
    assert prof[run_of(g, 0, 3, 5)] == 0
    assert prof[run_of(g, 0, 1, 4, 8)] == 2
    middles = [run_of(g, 0, 1, 2), run_of(g, 0, 3, 6), run_of(g, 0, 1, 4, 7)]
    assert all(prof[z] == 1 for z in middles)


def test_ordinal_profile_is_shared_across_cardinal_variants():
    a, b = trio_a(), trio_b()
    for i in a.players:
        assert ordinal_profile(a, i) == ordinal_profile(b, i)


def test_ordinal_profile_invariant_under_affine_rescale():
    rng = random.Random(11)
    for _ in range(20):
        g = random_game(rng, max_nodes=9)
        i = min(g.players, key=lambda t: t.name)
        scaled = {(j, e): (2 * v + 1 if j == i else v)
                  for (j, e), v in g.utilities.items()}
        g2 = build_game(g.tree.nodes, dict(g.clt.label), g.clt.infosets,
                        g.mover, scaled)
        for j in g.players:
            assert ordinal_profile(g, j) == ordinal_profile(g2, j)


def test_game_equality_is_structural():
    g1 = make_game({(0, 1): "a", (0, 2): "b"}, [{0}], {0: "P1"},
                   {("P1", 1): 0, ("P1", 2): 1})
    g2 = make_game({(0, 1): "a", (0, 2): "b"}, [{0}], {0: "P1"},
                   {("P1", 1): 0, ("P1", 2): 1})
    g3 = make_game({(0, 1): "a", (0, 2): "b"}, [{0}], {0: "P1"},
                   {("P1", 1): 0, ("P1", 2): 2})
    assert g1 == g2
    assert g1 != g3


def test_ranks_order_non_integer_and_tied_utilities():
    edges = {(0, 1): "a", (0, 2): "b", (1, 3): "c", (1, 4): "d"}
    tied = {("P1", 2): "1/3", ("P1", 3): "1/3", ("P1", 4): "-1/2",
            ("P2", 2): "2/7", ("P2", 3): "5/2", ("P2", 4): "2/7"}
    g = make_game(edges, [{0}, {1}], {0: "P1", 1: "P2"}, tied)
    assert g.ranks == {A("P1"): {A(2): 1, A(3): 1, A(4): 0},
                       A("P2"): {A(2): 0, A(3): 1, A(4): 0}}
    assert ordinal_profile(g, A("P1")) == {run_of(g, 0, 2): 0, run_of(g, 0, 1, 3): 0,
                                           run_of(g, 0, 1, 4): 1}
    assert as_strategy_set(nash(g)) == oracle_nash(g)
    assert as_strategy_set(spe(g)) == oracle_spe(g)
    # Breaking P1's tie keeps a morphism onto the tied game, but not back.
    split = make_game(edges, [{0}, {1}], {0: "P1", 1: "P2"}, {**tied, ("P1", 3): "17/50"})
    identity = {x: x for x in g.tree.nodes}
    assert not is_iso(validate_game_morphism(split, g, identity))
    with pytest.raises(ValidationError) as e:
        validate_game_morphism(g, split, identity)
    assert (e.value.code, e.value.witness) == (
        "UtilityNotPreserved", (A("P1"), run_of(g, 0, 2), run_of(g, 0, 1, 3)))
    assert iso_search(g, split) is None
    rescaled = make_game(edges, [{0}, {1}], {0: "P1", 1: "P2"},
                         {k: Fraction(v) * 3 - Fraction(1, 5) for k, v in tied.items()})
    assert is_iso(iso_search(g, rescaled))


def _ref_ranks(g):
    """Dense ranks of the sorted Fraction utilities, 0 for the least."""
    out = {}
    for i in g.players:
        values = sorted({g.utilities[(i, e)] for e in g.tree.ends})
        out[i] = {e: values.index(g.utilities[(i, e)]) for e in g.tree.ends}
    return out


def test_integer_ranks_equal_the_ranks_of_sorted_fractions():
    rng = random.Random(23)
    pool = [Fraction(0), Fraction(-3), Fraction(7), Fraction(1, 3), Fraction(2, 6),
            Fraction(333333, 1000000), Fraction(333334, 1000000), Fraction(-1, 3),
            Fraction(-333333, 1000000), Fraction(10**30 + 1, 10**30), Fraction(1),
            Fraction(10**30 - 1, 10**30), Fraction(-7, 2), Fraction(1, 10**18 + 9),
            Fraction(1, 10**18 + 7), Fraction(-5, 4)]
    for k in range(400):
        g = random_game(rng, max_nodes=12)
        if k % 4 == 0:  # integers only, the common case
            values = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        else:
            values = rng.sample(pool, rng.randint(1, len(pool)))
        h = validate_game(g.clt, g.mover, {key: rng.choice(values) for key in g.utilities})
        assert h.ranks == _ref_ranks(h)
    # The near-equal pairs get distinct ranks in their own order.
    edges = {(0, k): f"a{k}" for k in range(1, 5)}
    g = make_game(edges, [{0}], {0: "P1"},
                  {("P1", 1): "1/3", ("P1", 2): "333333/1000000",
                   ("P1", 3): "333334/1000000", ("P1", 4): "2/6"})
    assert g.ranks == {A("P1"): {A(1): 1, A(2): 0, A(3): 2, A(4): 1}} == _ref_ranks(g)


def test_every_caller_of_the_game_core_keeps_its_contract(monkeypatch):
    # game._game tests only the payoff tables. Every caller must give it a
    # mover on exactly the decision nodes, constant on each cell, and
    # Fraction values: wrap the core in each module that imported it and
    # check each call's input, over file reads by both readers (and fuzzed
    # texts), the converters' forms read back, Selten subgames,
    # one_player_zero_game and mono-witness probes.
    import gamecat.game
    from test_cli_fuzz import _mutate

    core, calls, broken = gamecat.game._game, Counter(), []
    importers = [m for name, m in sorted(sys.modules.items())
                 if name.startswith("gamecat.") and getattr(m, "_game", None) is core]

    def wrapped(where):
        def _game(clt, mover, payoffs):
            calls[where] += 1
            if not (mover.keys() == clt.tree.decision_nodes
                    and all(len({mover[x] for x in cell}) == 1 for cell in clt.cells)
                    and all(type(v) is Fraction for t in payoffs.values() for v in t.values())):
                broken.append((where, clt, mover, payoffs))
            return core(clt, mover, payoffs)
        return _game

    for module in importers:
        monkeypatch.setattr(module, "_game", wrapped(module.__name__))

    def read(text):
        try:
            return parse_game_text(text)[1]
        except GameError:
            return None

    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.gm"))):
        with open(path, encoding="utf-8") as fh:
            assert read(fh.read()) is not None, path
    rng = random.Random(35)
    for k in range(300):
        g = random_game(rng, max_nodes=12)
        text = print_game(f"g{k}", g)
        quoted = print_game(f"q{k}", pushforward(g, *random_bijections(rng, g))[0])
        assert read(text) == g and read(quoted) is not None
        for t in (text, quoted):
            read(_mutate(rng, t))
        for convert in (to_distinguished, to_sequence, to_distinguished_sequence, to_action_set):
            try:
                assert read(print_game("c", convert(g).game)) is not None
            except ValidationError:
                assert convert is to_action_set
        for r in subgame_roots(g):
            selten_subgame(g, r)
        one_player_zero_game(g.clt)
        merged = merge_two_ends(rng, g)
        if merged is not None:
            assert mono_witness(merged[1]) is not None
    assert broken == []
    # Both readers, and each importer, met the core.
    assert calls["gamecat.fileformat"] >= 300 and calls["gamecat.game"] >= 600, calls
    assert {m.__name__ for m in importers} == set(calls), calls
