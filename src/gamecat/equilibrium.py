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
player gets at its outcome. `nash` checks only the best responses of a
pivot, the player with the most strategies of its own (Nash 1951): one walk
per profile of the others, one check per best response. `spe` builds
the profiles that are Nash in every subgame bottom up over the subgame
roots (Selten 1965/1975). A strategy passed in is NotAStrategy when it
picks an action its game lacks, or, unless pushed, skips a cell.
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


def _sizes(g: Game, cap: int) -> list:
    """Each cell's number of actions, once the strategy space is within cap."""
    if (size := strategy_space_size(g)) > cap:
        raise OperationError("StrategySpaceTooLarge", witness=None, detail=str(size))
    return [len(g.clt.cell_actions[cell]) for cell in g.clt.cells]


def _strategy(g: Game, p) -> GrandStrategy:
    """The grand strategy of a profile over all cells in order."""
    return GrandStrategy(tuple((c, g.clt.cell_actions[c][a]) for c, a in zip(g.clt.cells, p)))


def _index(g: Game, order) -> tuple:
    """For profiles over the cells g.clt.cells[k], k in order: each decision
    node's position and children by action index, each position's owner,
    and the positions of the cells met twice."""
    cells, succ = g.clt.cells, g.clt.succ
    at = {x: (j, succ[x]) for j, k in enumerate(order) for x in cells[k]}
    owner = [g.mover[next(iter(cells[k]))] for k in order]
    twice = {j for j, k in enumerate(order) if len(cells[k]) > 1 and _above(g.tree, cells[k])}
    return at, owner, twice


def _end(at, x, p):
    """The end node reached from x when every position plays p."""
    while (here := at.get(x)) is not None:
        x = here[1][p[here[0]]]
    return x


def _checks(g: Game, index, ks, skip=None) -> list:
    """Per owner but skip of a position in ks: the key of the other positions
    in ks, its own, those met twice, its ranks and a memo of its best rank."""
    _, owner, twice = index
    checks = []
    for i in dict.fromkeys(owner[j] for j in ks if owner[j] != skip):
        mine = frozenset(j for j in ks if owner[j] == i)
        others = [j for j in ks if j not in mine]
        key = itemgetter(*others) if others else (lambda p: ())
        checks.append((key, mine, mine & twice, g.ranks[i], {}))
    return checks


def _unbeaten(at, checks, p, start, x) -> bool:
    """No player of checks, the others playing p, can reach from start an
    end node it ranks above x, the end of p's play from start."""
    for key, mine, again, pay, memo in checks:
        if (k := key(p)) not in memo:
            memo[k] = _best_payoff(at, pay, start, p, mine, again)
        if memo[k] > pay[x]:
            return False
    return True


def _best_payoff(at, pay, start, p, mine, again, runs=None):
    """The best payoff in pay reachable from start when the positions in
    mine are free and every other plays p, by an iterative DFS that visits
    each node once. A path keeps the action it took at a position in again,
    which must hold those in mine met twice (absentmindedness). Each end
    node paying at least the best so far goes to runs, if given, with the
    actions its path took at those positions."""
    best = -1  # ranks are at least 0
    stack = [(start, ())]
    while stack:
        x, fixed = stack.pop()
        here = at.get(x)
        if here is None:  # an end node
            if pay[x] >= best:
                best = pay[x]
                if runs is not None:
                    runs.append((fixed, x))
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
    return [_strategy(g, p) for p in itertools.product(*map(range, _sizes(g, cap)))]


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


def _profile(g: Game, s: GrandStrategy) -> tuple:
    """s's profile over all cells, NotAStrategy as _choices finds."""
    choice, c = _choices(g, s), g.clt
    return tuple(c.cell_actions[cell].index(choice[cell]) for cell in c.cells)


def outcome(g: Game, s: GrandStrategy) -> frozenset:
    return _run(g.tree, _end(_index(g, range(len(g.clt.cells)))[0], g.tree.root, _profile(g, s)))


def is_nash(g: Game, s: GrandStrategy) -> bool:
    """No player gains by a unilateral deviation from s."""
    p, root, index = _profile(g, s), g.tree.root, _index(g, ks := range(len(g.clt.cells)))
    return _unbeaten(index[0], _checks(g, index, ks), p, root, _end(index[0], root, p))


def _nash_profiles(g: Game, cap: int) -> list:
    """The Nash equilibria as profiles over all cells, sorted: the pivot's
    best responses to each profile of the others that no other player can
    beat. A run to the pivot's best payoff fixes its actions at the cells
    the run meets; each completion at its other cells ends the same run."""
    sizes, root, space = _sizes(g, cap), g.tree.root, {}
    at, owner, _ = index = _index(g, range(len(sizes)))
    for i, m in zip(owner, sizes):
        space[i] = space.get(i, 1) * m
    pivot = max(space, key=space.get)  # the first in cell order on a tie
    mine = {j for j, i in enumerate(owner) if i == pivot}
    pay, checks, out = g.ranks[pivot], _checks(g, index, range(len(sizes)), pivot), []
    for q in itertools.product(*[(0,) if j in mine else range(m) for j, m in enumerate(sizes)]):
        best = _best_payoff(at, pay, root, q, mine, mine, runs := [])
        for fixed, x in runs:
            if pay[x] == best:
                held = dict(fixed)
                options = [(held[j],) if j in held else range(m) if j in mine else (q[j],)
                           for j, m in enumerate(sizes)]
                out += [p for p in itertools.product(*options) if _unbeaten(at, checks, p, root, x)]
    return sorted(out)


def nash(g: Game, cap: int = 1_000_000):
    """The Nash equilibria in lexicographic (infoset, action) order."""
    return [_strategy(g, p) for p in _nash_profiles(g, cap)]


def _spe_profiles(g: Game, cap: int) -> list:
    """The strategies that are Nash in every subgame, as profiles over all
    cells, sorted, built bottom up over the subgame roots.

    No cell straddles a subgame root, so each cell belongs to the nearest
    subgame root above its members, and the roots form a tree. The profiles
    on the cells below a root r that are Nash from r and from every root
    below it are r's own choices joined with one such profile per child
    root, kept when Nash from r. At the tree's root they are the SPE."""
    sizes, roots, tree, cells = _sizes(g, cap), subgame_roots(g), g.tree, g.clt.cells
    # The root is a subgame root; in preorder each node's parent comes first.
    nearest, children = {tree.root: tree.root}, {r: [] for r in roots}
    for x in tree.order[1:]:
        above = nearest[tree.pred[x]]
        if x in roots:
            children[above].append(x)
        nearest[x] = x if x in roots else above
    own = {x: [] for x in tree.order if x in roots}
    for k, cell in enumerate(cells):
        own[nearest[next(iter(cell))]].append(k)
    # The roots' own cells in preorder: those below r are lo[r] up to hi[r].
    layout = [k for ks in own.values() for k in ks]
    lo = dict(zip(own, itertools.accumulate(map(len, own.values()), initial=0)))
    index, hi, found = _index(g, layout), {}, {}
    for r in reversed(own):
        kids = children[r]
        hi[r] = hi[kids[-1]] if kids else lo[r] + len(own[r])
        choices = itertools.product(*(range(sizes[k]) for k in own[r]))
        joined = (sum(parts, ()) for parts in
                  itertools.product([(0,) * lo[r]], choices, *(found.pop(c) for c in kids)))
        checks = _checks(g, index, range(lo[r], hi[r]))
        found[r] = [p[lo[r]:] for p in joined
                    if _unbeaten(index[0], checks, p, r, _end(index[0], r, p))]
    back = sorted(range(len(cells)), key=layout.__getitem__)
    return sorted(tuple(p[j] for j in back) for p in found[tree.root])


def spe(g: Game, cap: int = 1_000_000):
    """The strategies that are Nash in every subgame, in lexicographic
    (infoset, action) order."""
    return [_strategy(g, p) for p in _spe_profiles(g, cap)]


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
