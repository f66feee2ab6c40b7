"""Grand strategies, outcomes, Nash equilibria, subgame-perfect equilibria,
and their transport along isomorphisms.

A grand strategy picks one feasible action per information set (feasibility
is constant on cells, so this is the same as a continuous node-keyed
choice). `nash` and `spe` enumerate the exact strategy space, capped, and
check each strategy with one reachability pass per player: with the other
players held to the strategy, player i can reach a run exactly when it
follows the strategy at every node of another player and i's own choices
along it agree within each information set (Kuhn 1953; agreement matters
only under absentmindedness). So no deviation is enumerated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import OperationError
from .game import Game
from .morphism import GameMorphism, is_iso
from .subgame import subgame_roots
from .terms import encode_set
from .tree import _run


@dataclass(frozen=True)
class GrandStrategy:
    choices: tuple  # ((cell, action), ...) sorted by cell encoding

    def as_dict(self):
        return dict(self.choices)


def strategy_space_size(g: Game) -> int:
    n = 1
    for cell in g.clt.infosets:
        n *= len(g.clt.feasible[next(iter(cell))])
    return n


def strategies(g: Game, cap: int = 1_000_000):
    """All grand strategies in lexicographic (infoset, action) order."""
    size = strategy_space_size(g)
    if size > cap:
        raise OperationError("StrategySpaceTooLarge", witness=None, detail=str(size))
    cells = g.clt.sorted_infosets()
    pools = [sorted(g.clt.feasible[next(iter(cell))]) for cell in cells]
    out = []
    for combo in itertools.product(*pools):
        out.append(GrandStrategy(tuple(zip(cells, combo))))
    return out


def _play(g: Game, choice: dict, x):
    """The end node reached from x when every cell plays choice."""
    info_of, nxt, ends = g.clt.info_of, g.clt.next, g.tree.end_nodes
    while x not in ends:
        x = nxt[(x, choice[info_of[x]])]
    return x


def outcome(g: Game, s: GrandStrategy) -> frozenset:
    return _run(g.tree, _play(g, s.as_dict(), g.tree.root))


def _deviation_gains(g: Game, choice: dict, start, i, base) -> bool:
    """True when player i, the others held to choice, can reach from start
    an end node worth more than base to i.

    An iterative DFS: at another player's node it follows choice; at one of
    i's nodes it branches over the feasible actions, unless the node's cell
    was fixed higher up the same path (absentmindedness), where it keeps the
    fixed action. Each node is visited at most once."""
    info_of, nxt, mine = g.clt.info_of, g.clt.next, g.player_nodes[i]
    feasible, ends, utilities = g.clt.feasible, g.tree.end_nodes, g.utilities
    fixed: dict = {}  # i's cells fixed on the current path -> action
    path: list = []   # per depth, the cell the edge into that node fixed, or None
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
            stack.append((nxt[(x, choice[c])], depth + 1, None, None))
        elif c in fixed:
            stack.append((nxt[(x, fixed[c])], depth + 1, None, None))
        else:
            for a in feasible[x]:
                stack.append((nxt[(x, a)], depth + 1, c, a))
    return False


def _nash_from(g: Game, choice: dict, start) -> bool:
    """No player gains by a unilateral deviation in play from start."""
    end = _play(g, choice, start)
    return not any(_deviation_gains(g, choice, start, i, g.utilities[(i, end)])
                   for i in g.players)


def is_nash(g: Game, s: GrandStrategy) -> bool:
    return _nash_from(g, s.as_dict(), g.tree.root)


def nash(g: Game, cap: int = 1_000_000):
    return [s for s in strategies(g, cap) if is_nash(g, s)]


def spe(g: Game, cap: int = 1_000_000):
    """Strategies that are Nash in every subgame: the same check run from
    each subgame root on the whole tree. No cell straddles a subgame root's
    boundary, so every cell of a player met below the root lies inside the
    subgame."""
    roots = sorted(subgame_roots(g))
    out = []
    for s in strategies(g, cap):
        choice = s.as_dict()
        if all(_nash_from(g, choice, r) for r in roots):
            out.append(s)
    return out


def push_strategy(iso: GameMorphism, s: GrandStrategy) -> GrandStrategy:
    """Transport a strategy along an isomorphism: at each target node the
    image action of what the strategy chose at the preimage node."""
    if not is_iso(iso):
        raise OperationError("NotIso")
    tau = iso.node_map
    alpha = iso.clt_morphism.alpha
    choice = s.as_dict()
    pushed = {}
    for cell, a in choice.items():
        image_cell = frozenset(tau[x] for x in cell)
        pushed[image_cell] = alpha[cell][a]
    return GrandStrategy(tuple(sorted(pushed.items(), key=lambda kv: encode_set(kv[0]))))
