"""Grand strategies, outcomes, Nash equilibria, subgame-perfect equilibria,
and their transport along isomorphisms.

A grand strategy picks one feasible action per information set (feasibility
is constant on cells, so this is the same as a continuous node-keyed
choice). Internally a profile is a tuple of action indices, one per cell of
some fixed list of cells, each index into the cell's actions in term order.

With the other players held to a profile, player i can reach an end node
exactly when play follows the profile at every node of another player and
i's own choices along the way agree within each information set (Kuhn 1953).
One walk of the tree finds i's best reachable payoff. It tracks i's choices
only at the cells met twice, those with a member strictly below another
(absentmindedness): nowhere else can one run meet a cell twice. The payoff
depends only on the other players' actions, so it is computed once per tuple
of them: a profile is Nash when no player's best payoff beats what the
player gets at its outcome. `nash` runs this check over the strategy space,
one profile at a time. `spe` never goes through the strategy space: it
builds the profiles that are Nash in every subgame bottom up over the
subgame roots (Selten 1965/1975). A strategy passed in is NotAStrategy when
it picks an action its game lacks, or, unless pushed, skips a cell.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter

from .errors import OperationError
from .game import Game
from .morphism import GameMorphism, is_iso
from .subgame import subgame_roots
from .terms import _Record
from .tree import _above, _run


class GrandStrategy(_Record):
    choices: tuple  # ((cell, action), ...) sorted by cell encoding

    def as_dict(self):
        return dict(self.choices)


def strategy_space_size(g: Game) -> int:
    return math.prod(map(len, g.clt.cell_actions.values()))


def _check_cap(g: Game, cap: int):
    size = strategy_space_size(g)
    if size > cap:
        raise OperationError("StrategySpaceTooLarge", witness=None, detail=str(size))


def _strategy(g: Game, p) -> GrandStrategy:
    """The grand strategy of a profile over all cells in order."""
    c = g.clt
    return GrandStrategy(tuple((cell, c.cell_actions[cell][a]) for cell, a in zip(c.cells, p)))


def _nash_among(g: Game, start, order, profiles) -> list:
    """The profiles that are Nash in play from start, in the order given.

    A profile holds one action index for each cell g.clt.cells[k], k in
    order; these must be all the cells met below start. Each player's best
    payoff rank (ranks order ends as the utilities do) is computed once per
    tuple of the other players' actions."""
    cells, ends = g.clt.cells, g.tree.end_nodes
    at = {x: (j, g.clt.succ[x]) for j, k in enumerate(order) for x in cells[k]}
    twice = {j for j, k in enumerate(order) if len(cells[k]) > 1 and _above(g.tree, cells[k])}
    owner = [g.mover[next(iter(cells[k]))] for k in order]
    checks = []
    for i in dict.fromkeys(owner):
        mine = frozenset(j for j, o in enumerate(owner) if o == i)
        others = [j for j in range(len(owner)) if j not in mine]
        key = itemgetter(*others) if others else (lambda p: ())
        checks.append((key, mine, mine & twice, g.ranks[i], {}))
    out = []
    for p in profiles:
        x = start
        while x not in ends:
            j, succ = at[x]
            x = succ[p[j]]
        for key, mine, again, pay, memo in checks:
            k = key(p)
            best = memo.get(k)
            if best is None:
                best = memo[k] = _best_payoff(at, pay, start, p, mine, again)
            if best > pay[x]:
                break
        else:
            out.append(p)
    return out


def _best_payoff(at, pay, start, p, mine, again):
    """The best payoff in pay among the end nodes reachable from start when
    the positions in mine are free and every other position plays p.

    An iterative DFS: at a node whose position is not in mine it follows p;
    at one in mine it branches over the actions. A stack entry carries the
    actions fixed on its path at the positions in again, those in mine met
    twice (absentmindedness), where a later node keeps the fixed action.
    Each node is visited at most once."""
    best = -1  # ranks are at least 0
    stack = [(start, ())]
    while stack:
        x, fixed = stack.pop()
        here = at.get(x)
        if here is None:  # an end node
            if pay[x] > best:
                best = pay[x]
            continue
        j, succ = here
        if j not in mine:
            stack.append((succ[p[j]], fixed))
        elif j not in again:
            stack += [(y, fixed) for y in succ]
        elif j in (held := dict(fixed)):
            stack.append((succ[held[j]], fixed))
        else:
            stack += [(y, (*fixed, (j, a))) for a, y in enumerate(succ)]
    return best


def strategies(g: Game, cap: int = 1_000_000):
    """All grand strategies in lexicographic (infoset, action) order."""
    _check_cap(g, cap)
    c = g.clt
    return [GrandStrategy(tuple(zip(c.cells, combo)))
            for combo in itertools.product(*map(c.cell_actions.__getitem__, c.cells))]


def _choices(g: Game, s: GrandStrategy, complete: bool = True) -> dict:
    """s's choices by cell. NotAStrategy for a choice at no cell of g or of
    an action its cell lacks, witnessed by that (cell, action); when
    complete, also for the first cell in encoding order with no choice."""
    feasible, choice = g.clt.cell_actions, dict(s.choices)
    off = next(((cell, a) for cell, a in s.choices if a not in feasible.get(cell, ())), None)
    if off is None and complete and len(choice) < len(feasible):
        off = next(cell for cell in g.clt.cells if cell not in choice)
    if off is not None:
        raise OperationError("NotAStrategy", witness=off)
    return choice


def _play(g: Game, choice: dict, x):
    """The end node reached from x when every cell plays choice."""
    c, ends = g.clt, g.tree.end_nodes
    while x not in ends:
        cell = c.info_of[x]
        x = c.succ[x][c.cell_actions[cell].index(choice[cell])]
    return x


def outcome(g: Game, s: GrandStrategy) -> frozenset:
    return _run(g.tree, _play(g, _choices(g, s), g.tree.root))


def is_nash(g: Game, s: GrandStrategy) -> bool:
    """No player gains by a unilateral deviation from s."""
    choice, c = _choices(g, s), g.clt
    p = tuple(c.cell_actions[cell].index(choice[cell]) for cell in c.cells)
    return bool(_nash_among(g, g.tree.root, range(len(p)), [p]))


def nash(g: Game, cap: int = 1_000_000):
    """The Nash equilibria in lexicographic (infoset, action) order. The
    strategy space is walked one index tuple at a time and never stored;
    only the equilibria become GrandStrategy objects."""
    _check_cap(g, cap)
    sizes = [len(g.clt.cell_actions[cell]) for cell in g.clt.cells]
    profiles = itertools.product(*map(range, sizes))
    return [_strategy(g, p) for p in _nash_among(g, g.tree.root, range(len(sizes)), profiles)]


def spe(g: Game, cap: int = 1_000_000):
    """The strategies that are Nash in every subgame, in lexicographic
    (infoset, action) order, built bottom up over the subgame roots.

    No cell straddles a subgame root, so each cell belongs to the nearest
    subgame root above its members, and the roots form a tree. The profiles
    on the cells below a root r that are Nash from r and from every root
    below it are r's own choices joined with one such profile per child
    root, kept when Nash from r. At the tree's root they are the SPE."""
    _check_cap(g, cap)
    roots, tree, cells = subgame_roots(g), g.tree, g.clt.cells
    # The root is a subgame root; in preorder each node's parent comes first.
    nearest, children = {tree.root: tree.root}, {r: [] for r in roots}
    for x in tree.order[1:]:
        above = nearest[tree.pred[x]]
        if x in roots:
            children[above].append(x)
        nearest[x] = x if x in roots else above
    own = {r: [] for r in roots}
    for k, cell in enumerate(cells):
        own[nearest[next(iter(cell))]].append(k)
    # order[r] lists the cells below r: r's own, then each child's order.
    order, found = {}, {}
    for r in reversed([x for x in tree.order if x in roots]):
        kids = children[r]
        order[r] = own[r] + [k for c in kids for k in order.pop(c)]
        choices = itertools.product(*(range(len(g.clt.cell_actions[cells[k]])) for k in own[r]))
        joined = (sum(parts, ()) for parts in
                  itertools.product(choices, *(found.pop(c) for c in kids)))
        found[r] = _nash_among(g, r, order[r], joined)
    back = sorted(range(len(cells)), key=order[tree.root].__getitem__)
    return [_strategy(g, p) for p in sorted(tuple(p[j] for j in back) for p in found[tree.root])]


def push_strategy(iso: GameMorphism, s: GrandStrategy) -> GrandStrategy:
    """Transport a strategy along an isomorphism: each target cell, in
    encoding order, takes the image action of its preimage cell's choice.
    A choice at no source cell, or of an action its cell lacks, is NotAStrategy."""
    if not is_iso(iso):
        raise OperationError("NotIso")
    choice = _choices(iso.source, s, complete=False)
    tau, alpha, info_of = iso.node_map, iso.clt_morphism.alpha, iso.target.clt.info_of
    pushed = {info_of[tau[next(iter(cell))]]: alpha[cell][a] for cell, a in choice.items()}
    return GrandStrategy(tuple((c, pushed[c]) for c in iso.target.clt.cells if c in pushed))
