"""Games: a CLT plus a move assignment and exact-rational utilities.

The mover map must be constant on information sets and its image is the
player set; utilities assign each player an exact rational on every run.
Utilities are keyed internally by the run's end node, since runs of a finite
tree biject with end nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .clt import CLT, _not_constant, validate_clt
from .errors import OperationError, ValidationError
from .terms import Atom, Term
from .tree import _run, _runs, run_end, runs


@dataclass(frozen=True, eq=False)
class Game:
    clt: CLT
    mover: dict                      # decision node -> player
    players: frozenset = field(repr=False)  # image of mover
    utilities: dict = field(repr=False)     # (player, end node) -> Fraction
    player_nodes: dict = field(repr=False)  # player -> frozenset of nodes

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (self.clt == other.clt and self.mover == other.mover
                and self.utilities == other.utilities)

    __hash__ = None

    @property
    def tree(self):
        return self.clt.tree

    def runs(self):
        return runs(self.clt.tree)

    def utility(self, i: Term, run: frozenset) -> Fraction:
        return self.utilities[(i, run_end(self.clt.tree, run))]

    @cached_property
    def ranks(self) -> dict:
        """player -> end node -> the dense rank of the player's utility
        there, 0 for the least: integers in the utilities' order, so
        comparing ranks is comparing utilities. The ranks are taken of
        integer keys, each utility times the common denominator of the
        player's utilities, which order as the utilities do."""
        out = {}
        for i in self.players:
            pay = [self.utilities[(i, e)] for e in self.tree.ends]
            den = math.lcm(*{v.denominator for v in pay})
            keys = [v.numerator * (den // v.denominator) for v in pay]
            rank = {v: k for k, v in enumerate(sorted(set(keys)))}
            out[i] = {e: rank[v] for e, v in zip(self.tree.ends, keys)}
        return out


def validate_game(clt: CLT, mover, utilities) -> Game:
    w = clt.tree.decision_nodes
    mover = dict(mover)
    if w - mover.keys():
        raise ValidationError("MoverMissing", witness=min(w - mover.keys()))
    if mover.keys() - w:
        raise ValidationError("MoverMissing", witness=min(mover.keys() - w),
                              detail="mover assigned to a non-decision node")
    split = _not_constant(clt.sorted_infosets(), mover)
    if split is not None:
        raise ValidationError("MoverNotConstant", witness=split)

    players = frozenset(mover.values())
    tree = clt.tree

    table: dict = {}
    for key, value in utilities.items():
        i, end = key
        if isinstance(end, (frozenset, set)):
            try:
                end = run_end(tree, end)
            except OperationError:
                raise ValidationError("UtilityExtraneous", witness=(i, frozenset(end))) from None
        if i not in players or end not in tree.end_nodes:
            raise ValidationError("UtilityExtraneous", witness=(i, end))
        table[(i, end)] = value if type(value) is Fraction else Fraction(value)

    # Every key is a (player, end) pair, so the table is full unless short.
    if len(table) < len(players) * len(tree.ends):
        gap = min({(i, end) for i in players for end in tree.ends} - table.keys())
        raise ValidationError("UtilityMissing", witness=(gap[0], _run(tree, gap[1])))

    player_nodes: dict = {i: [] for i in players}
    for x, i in mover.items():
        player_nodes[i].append(x)
    return Game(clt=clt, mover=mover, players=players, utilities=table,
                player_nodes={i: frozenset(xs) for i, xs in player_nodes.items()})


def one_player_zero_game(clt: CLT, player: Term = Atom("P1")) -> Game:
    """Wrap a CLT as a game: one player, zero utility on every run."""
    mover = {x: player for x in clt.tree.decision_nodes}
    utilities = {(player, e): 0 for e in clt.tree.ends}
    return validate_game(clt, mover, utilities)


def ordinal_profile(g: Game, i: Term) -> dict:
    """Dense ranks of player i's utility over runs: 0 is best, ties share."""
    if i not in g.players:
        raise OperationError("UnknownPlayer", witness=i)
    ranks = g.ranks[i]
    top = max(ranks.values())
    runs = _runs(g.tree)
    return {runs[e]: top - k for e, k in ranks.items()}


def build_game(nodes, edges, infosets, mover, utilities) -> Game:
    """Convenience: validate the whole stack from raw parts.

    edges is a map (src, tgt) -> action label.
    """
    from .tree import validate_out_tree

    tree = validate_out_tree(nodes, edges)
    clt = validate_clt(tree, infosets, edges)
    return validate_game(clt, mover, utilities)
