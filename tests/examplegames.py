"""Example games used across the test suites.

Each builder returns validated objects. The node/edge layouts are also
serialized into tests/fixtures/*.gm by gen_fixtures.py for the CLI tests.
"""

from fractions import Fraction

from gamecat import (Atom, one_player_zero_game, validate_clt,
                     validate_game, validate_out_tree)


def A(name):
    return Atom(str(name))


def make_clt(edges, infosets):
    edges = {(A(x), A(y)): A(a) for (x, y), a in edges.items()}
    nodes = {n for e in edges for n in e}
    tree = validate_out_tree(nodes, set(edges))
    return validate_clt(tree, [frozenset(A(x) for x in cell) for cell in infosets],
                        edges)


def make_game(edges, infosets, mover, utilities):
    clt = make_clt(edges, infosets)
    mover = {A(x): A(i) for x, i in mover.items()}
    utilities = {(A(i), A(end)): Fraction(v) for (i, end), v in utilities.items()}
    return validate_game(clt, mover, utilities)


TRIO_EDGES = {
    (0, 3): "b", (0, 1): "c",
    (1, 4): "d", (1, 2): "g",
    (3, 5): "e", (3, 6): "f",
    (4, 7): "e", (4, 8): "f",
}
TRIO_INFOSETS = [{0}, {1}, {3, 4}]
TRIO_MOVER = {0: "P1", 1: "P2", 3: "P3", 4: "P3"}


def trio_a():
    utilities = {}
    utilities.update({("P1", 5): 1, ("P1", 2): 0, ("P1", 6): 0,
                      ("P1", 7): 0, ("P1", 8): -1})
    utilities.update({("P2", 7): 1, ("P2", 8): 1, ("P2", 2): 0,
                      ("P2", 5): 0, ("P2", 6): 0})
    utilities.update({("P3", 5): 0, ("P3", 8): 0, ("P3", 2): 1,
                      ("P3", 6): 1, ("P3", 7): 1})
    return make_game(TRIO_EDGES, TRIO_INFOSETS, TRIO_MOVER, utilities)


def trio_b():
    utilities = {}
    utilities.update({("P1", 5): 3, ("P1", 2): 0, ("P1", 6): 0,
                      ("P1", 7): 0, ("P1", 8): -5})
    utilities.update({("P2", 7): 7, ("P2", 8): 7, ("P2", 2): 1,
                      ("P2", 5): 1, ("P2", 6): 1})
    utilities.update({("P3", 5): -2, ("P3", 8): -2, ("P3", 2): 4,
                      ("P3", 6): 4, ("P3", 7): 4})
    return make_game(TRIO_EDGES, TRIO_INFOSETS, TRIO_MOVER, utilities)


def trio_undist():
    edges = {
        (0, 3): "a", (0, 1): "b",
        (1, 4): "a", (1, 2): "b",
        (3, 5): "a", (3, 6): "b",
        (4, 7): "a", (4, 8): "b",
    }
    utilities = {}
    utilities.update({("P1", 5): 1, ("P1", 2): 0, ("P1", 6): 0,
                      ("P1", 7): 0, ("P1", 8): -1})
    utilities.update({("P2", 7): 1, ("P2", 8): 1, ("P2", 2): 0,
                      ("P2", 5): 0, ("P2", 6): 0})
    utilities.update({("P3", 5): 0, ("P3", 8): 0, ("P3", 2): 1,
                      ("P3", 6): 1, ("P3", 7): 1})
    return make_game(edges, TRIO_INFOSETS, TRIO_MOVER, utilities)


RELABEL_SRC_EDGES = {
    (0, 3): "b", (0, 1): "c",
    (1, 4): "d", (1, 2): "g",
    (3, 5): "b", (3, 6): "c",
    (4, 7): "b", (4, 8): "c",
}


def relabel():
    src = make_clt(RELABEL_SRC_EDGES, TRIO_INFOSETS)
    tgt = make_clt(TRIO_EDGES, TRIO_INFOSETS)
    return src, tgt


def split():
    edges = {(0, 1): "a", (1, 3): "a", (3, 6): "a"}
    src = make_clt(edges, [{0}, {1, 3}])
    tgt = make_clt(edges, [{0, 3}, {1}])
    return src, tgt


def mixedalpha():
    shared = {(0, 3): "a", (0, 4): "b"}
    src = make_clt({**shared, (3, 5): "b", (3, 6): "c",
                    (4, 7): "b", (4, 8): "c"}, [{0}, {3, 4}])
    tgt = make_clt({**shared, (3, 5): "e", (3, 6): "f",
                    (4, 7): "f", (4, 8): "e"}, [{0}, {3, 4}])
    return src, tgt


def endclash():
    src = make_clt({(0, 1): "a", (0, 2): "b"}, [{0}])
    tgt = make_clt({(10, 11): "a", (10, 12): "b",
                    (12, 13): "c", (12, 14): "d"}, [{10}, {12}])
    tau = {A(0): A(10), A(1): A(11), A(2): A(12)}
    return src, tgt, tau


def prefixed():
    src = make_clt({(0, 1): "a", (0, 2): "b"}, [{0}])
    tgt = make_clt({(50, 10): "e", (10, 11): "a", (10, 12): "b"},
                   [{50}, {10}])
    tau = {A(0): A(10), A(1): A(11), A(2): A(12)}
    return src, tgt, tau


def twomover():
    edges = {(0, 1): "a", (1, 2): "b"}
    src = make_game(edges, [{0}, {1}], {0: "P1", 1: "P1"},
                    {("P1", 2): 0})
    tgt = make_game(edges, [{0}, {1}], {0: "P1", 1: "P2"},
                    {("P1", 2): 0, ("P2", 2): 0})
    return src, tgt


def prefixinc():
    src = make_clt({(0, 1): "a"}, [{0}])
    tgt = make_clt({(0, 1): "a", (1, 2): "b"}, [{0}, {1}])
    return src, tgt


def collapse():
    src = one_player_zero_game(
        make_clt({(0, 41): "b", (0, 42): "d", (41, 81): "g", (42, 82): "h"},
                 [{0}, {41}, {42}]))
    tgt = one_player_zero_game(
        make_clt({(0, 40): "f", (40, 81): "g", (40, 82): "h"},
                 [{0}, {40}]))
    tau = {A(0): A(0), A(41): A(40), A(42): A(40), A(81): A(81), A(82): A(82)}
    return src, tgt, tau


def mergeplayers():
    edges = {(0, 1): "a", (1, 2): "b"}
    src = make_game(edges, [{0}, {1}], {0: "rho1", 1: "rho2"},
                    {("rho1", 2): 0, ("rho2", 2): 0})
    tgt = make_game(edges, [{0}, {1}], {0: "rho1", 1: "rho1"},
                    {("rho1", 2): 0})
    return src, tgt


NESTED_EDGES = {
    (0, 11): "a", (0, 12): "b",
    (11, 21): "c", (11, 24): "d",
    (12, 22): "c", (12, 23): "d",
    (24, 25): "g", (24, 26): "h",
}


def nested():
    return one_player_zero_game(make_clt(NESTED_EDGES, [{0}, {11, 12}, {24}]))


def innerwrap():
    src = one_player_zero_game(
        make_clt({(11, 21): "c", (11, 24): "d", (24, 25): "g", (24, 26): "h"},
                 [{11}, {24}]))
    return src, nested()


def flatten():
    edges = {(0, 1): "a", (0, 2): "b"}
    src = make_game(edges, [{0}], {0: "P1"}, {("P1", 1): 0, ("P1", 2): 1})
    tgt = make_game(edges, [{0}], {0: "P1"}, {("P1", 1): 0, ("P1", 2): 0})
    return src, tgt


def refine():
    src = one_player_zero_game(make_clt(TRIO_EDGES, [{0}, {1}, {3}, {4}]))
    tgt = one_player_zero_game(make_clt(TRIO_EDGES, TRIO_INFOSETS))
    return src, tgt


def driver3():
    """P1's one cell {1, 2, 3} lies on one run: the driver meets it three
    times. P2 moves before (at 0) and after (at 7). Exiting at 5 or 6 pays
    P1 most, but reaching 2 takes C at the cell, so a pure strategy never
    exits there."""
    edges = {(0, 1): "L", (0, 9): "R",
             (1, 4): "E", (1, 2): "C", (2, 5): "E", (2, 3): "C",
             (3, 6): "E", (3, 7): "C", (7, 10): "a", (7, 11): "b"}
    mover = {0: "P2", 1: "P1", 2: "P1", 3: "P1", 7: "P2"}
    p1 = {4: 0, 5: 3, 6: 3, 9: 0, 10: 1, 11: -1}
    p2 = {4: 0, 5: 0, 6: 0, 9: 1, 10: 2, 11: 0}
    utilities = {**{("P1", e): v for e, v in p1.items()},
                 **{("P2", e): v for e, v in p2.items()}}
    return make_game(edges, [{0}, {1, 2, 3}, {7}], mover, utilities)


# Information sets that are no partition, as .gm text. In REPEATED_CELL the
# one decision node r is listed in two cells, both for P; in
# REPEATED_CELL_TWO_PLAYERS one is for P and one for Q. In OVERLAP the cells
# {c, b, a} and {b, a} share a and b.
REPEATED_CELL = """game repeated
node r
node x
node y
edge r x L
edge r y R
infoset i0 { r }
infoset i1 { r }
player P infoset i0
player P infoset i1
utility P end x 1
utility P end y 0
"""
REPEATED_CELL_TWO_PLAYERS = REPEATED_CELL.replace("player P infoset i1", "player Q infoset i1")
OVERLAP = """game overlap
node a
node b
node c
node w
node x
node y
node z
edge c b L
edge c x R
edge b a L
edge b y R
edge a z L
edge a w R
infoset i1 { c b a }
infoset i0 { b a }
player P infoset i0
player P infoset i1
utility P end w 0
utility P end x 0
utility P end y 0
utility P end z 0
"""
