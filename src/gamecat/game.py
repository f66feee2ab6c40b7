"""Games: a CLT plus a move assignment and exact-rational utilities.

The mover map must be constant on information sets and its image is the
player set; utilities assign each player an exact rational on every run,
stored as one table per player keyed by end node (`payoffs`), as runs biject
with end nodes. `_game`, the core that `validate_game`, the .gm block
reader and the library's own builders end in, tests only the payoff tables:
its callers make the mover and the values valid. `utilities` is a view.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction

from .clt import CLT, _not_constant, validate_clt
from .errors import OperationError, ValidationError
from .terms import Atom, Term, _Record
from .tree import _run, _runs, run_end, runs, validate_out_tree


class Game(_Record, compare=("clt", "mover", "payoffs"), shown=("clt", "mover")):
    clt: CLT
    mover: dict        # decision node -> player
    players: frozenset  # image of mover
    payoffs: dict      # player -> end node -> Fraction

    __hash__ = None

    @property
    def tree(self):
        return self.clt.tree

    def runs(self):
        return runs(self.clt.tree)

    def utility(self, i: Term, run: frozenset) -> Fraction:
        if i not in self.payoffs:
            raise OperationError("UnknownPlayer", witness=i)
        return self.payoffs[i][run_end(self.clt.tree, run)]

    utilities = cached_property(lambda self: {
        (i, e): v for i, table in self.payoffs.items() for e, v in table.items()})

    @cached_property
    def ranks(self) -> dict:
        """player -> end node -> the dense rank of the player's utility
        there, 0 for the least: integers in the utilities' order, so
        comparing ranks is comparing utilities. The ranks are taken of
        integer keys, each utility times the common denominator of the
        player's utilities, which order as the utilities do."""
        out = {}
        for i in self.players:
            pay = list(map(self.payoffs[i].__getitem__, self.tree.ends))
            den = math.lcm(*{v.denominator for v in pay})
            keys = [v.numerator * (den // v.denominator) for v in pay]
            rank = {v: k for k, v in enumerate(sorted(set(keys)))}
            out[i] = {e: rank[v] for e, v in zip(self.tree.ends, keys)}
        return out


def _game(clt: CLT, mover: dict, payoffs: dict):
    """The game, or None unless payoffs holds one table by end node for each player mover
    names, which the block reader does not check. Every caller gives mover on the decision
    nodes, constant on each cell, and Fraction values, by construction or by its checks."""
    players, ends = frozenset(mover.values()), clt.tree.end_nodes
    if payoffs.keys() == players and all(t.keys() == ends for t in payoffs.values()):
        return Game(clt=clt, mover=mover, players=players, payoffs=payoffs)
    return None


def validate_game(clt: CLT, mover, utilities) -> Game:
    """utilities gives values by (player, end node or run), as a mapping or
    as pairs, which may repeat a run with one value but not with two. One
    ordered loop reads every form and ends in _game."""
    mover = dict(mover)
    items = list(utilities.items() if hasattr(utilities, "items") else utilities)
    tree, w = clt.tree, clt.tree.decision_nodes
    if w - mover.keys():
        raise ValidationError("MoverMissing", witness=min(w - mover.keys()))
    if mover.keys() - w:
        raise ValidationError("MoverMissing", witness=min(mover.keys() - w),
                              detail="mover assigned to a non-decision node")
    split = _not_constant(clt.cells, mover)
    if split is not None:
        raise ValidationError("MoverNotConstant", witness=split)

    payoffs = {i: {} for i in mover.values()}
    for (i, end), value in items:
        if isinstance(end, (frozenset, set)):
            try:
                end = run_end(tree, end)
            except OperationError:
                raise ValidationError("UtilityExtraneous", witness=(i, frozenset(end))) from None
        table = payoffs.get(i)
        if table is None or end not in tree.end_nodes:
            raise ValidationError("UtilityExtraneous", witness=(i, end))
        if type(value) is not Fraction:
            try:
                value = Fraction(value)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise ValidationError("UtilityNotRational", witness=(i, _run(tree, end))) from None
        held = table.setdefault(end, value)
        if held is not value and held != value:
            raise ValidationError("UtilityConflict", witness=(i, _run(tree, end)))

    # Every key is an end node, so a table is full unless short.
    gaps = [(i, e) for i, table in payoffs.items() if len(table) < len(tree.ends)
            for e in tree.ends if e not in table]
    if gaps:
        i, end = min(gaps)
        raise ValidationError("UtilityMissing", witness=(i, _run(tree, end)))

    return _game(clt, mover, payoffs)


def one_player_zero_game(clt: CLT, player: Term = Atom("P1")) -> Game:
    """Wrap a CLT as a game: one player, zero utility on every run."""
    return _game(clt, dict.fromkeys(clt.tree.decision_nodes, player),
                 {player: dict.fromkeys(clt.tree.ends, Fraction(0))})


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
    tree = validate_out_tree(nodes, edges)
    clt = validate_clt(tree, infosets, edges)
    return validate_game(clt, mover, utilities)
