"""Grand strategies, outcomes, Nash equilibria, subgame-perfect equilibria,
and their transport along isomorphisms.

A grand strategy picks one feasible action per information set (feasibility
is constant on cells, so this is the same as a continuous node-keyed
choice). Everything here is brute-force enumeration over the exact strategy
space, capped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import OperationError
from .game import Game
from .morphism import GameMorphism, is_iso
from .subgame import selten_subgame, subgame_roots
from .terms import encode_set, term_key


@dataclass(frozen=True)
class GrandStrategy:
    choices: tuple  # ((cell, action), ...) sorted by cell encoding

    def action_at_cell(self, cell):
        for c, a in self.choices:
            if c == cell:
                return a
        raise OperationError("UnknownInfoset", witness=cell)

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
    pools = [sorted(g.clt.feasible[next(iter(cell))], key=term_key) for cell in cells]
    out = []
    for combo in itertools.product(*pools):
        out.append(GrandStrategy(tuple(zip(cells, combo))))
    return out


def outcome(g: Game, s: GrandStrategy) -> frozenset:
    choice = s.as_dict()
    x = g.tree.root
    z = {x}
    while x in g.tree.decision_nodes:
        a = choice[g.clt.info_of[x]]
        x = g.clt.next[(x, a)]
        z.add(x)
    return frozenset(z)


def is_nash(g: Game, s: GrandStrategy) -> bool:
    base_run = outcome(g, s)
    choice = s.as_dict()
    for i in sorted(g.players, key=term_key):
        base = g.utility(i, base_run)
        cells = [cell for cell in g.clt.sorted_infosets() if g.mover[next(iter(cell))] == i]
        pools = [sorted(g.clt.feasible[next(iter(cell))], key=term_key)
                 for cell in cells]
        for combo in itertools.product(*pools):
            dev = dict(choice)
            for cell, a in zip(cells, combo):
                dev[cell] = a
            s2 = GrandStrategy(tuple(sorted(dev.items(), key=lambda kv: encode_set(kv[0]))))
            if g.utility(i, outcome(g, s2)) > base:
                return False
    return True


def nash(g: Game, cap: int = 1_000_000):
    return [s for s in strategies(g, cap) if is_nash(g, s)]


def _restrict(s: GrandStrategy, sub: Game) -> GrandStrategy:
    cells = set(sub.clt.infosets)
    return GrandStrategy(tuple((c, a) for c, a in s.choices if c in cells))


def spe(g: Game, cap: int = 1_000_000):
    """Strategies that restrict to a Nash equilibrium in every subgame."""
    subs = [selten_subgame(g, r).subgame
            for r in sorted(subgame_roots(g), key=term_key)]
    out = []
    for s in strategies(g, cap):
        if all(is_nash(sub, _restrict(s, sub)) for sub in subs):
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
