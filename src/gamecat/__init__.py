"""A category of finite extensive-form games.

Games, their structure-preserving maps, mono/iso classification with
constructive witnesses, subgames, equilibrium enumeration, and converters
to distinguished-action / sequence / action-set normal forms with
isomorphism certificates.

`import gamecat` runs the core modules (terms, tree, clt, game, fileformat,
errors) and no command module: `canon`, `equilibrium`, `morphism` and
`subgame` are in `sys.modules` and are attributes of the package, but each
runs only when one of its attributes is first read. So `validate` runs none
of them, `subgames` runs `subgame`, `strategies`, `nash` and `spe` run
`equilibrium` and `subgame`, `props` runs `canon`, `convert` runs `canon`
and `morphism`, `iso` and `morphism` run `morphism`, and `subgame --at`
runs `subgame` and `morphism`. Public names resolve through `_HOME`.
"""

import _thread
import importlib.util
import sys
import types

from . import clt, errors, fileformat, game, terms, tree

_LOCK, _RUN = _thread.RLock(), set()  # the command modules that have begun to run


class _Lazy(types.ModuleType):
    """A command module not yet run: its first attribute read runs it, once, while
    other threads wait (importlib.util.LazyLoader takes no lock before 3.12)."""

    def __getattribute__(self, name):
        with _LOCK:
            spec = object.__getattribute__(self, "__spec__")
            if spec.name not in _RUN:
                _RUN.add(spec.name)
                spec.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return object.__getattribute__(self, name)


for _name in ("canon", "equilibrium", "morphism", "subgame"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    sys.modules[_spec.name] = globals()[_name] = _module = importlib.util.module_from_spec(_spec)
    _module.__class__ = _Lazy
del _name, _spec, _module

# public name -> the module that defines it
_HOME = {name: home for home, names in {
    "canon": "ConversionResult GameProperties properties to_action_set to_distinguished "
             "to_distinguished_sequence to_sequence",
    "clt": "CLT next_node validate_clt",
    "equilibrium": "GrandStrategy is_nash nash outcome push_strategy spe strategies "
                   "strategy_space_size",
    "errors": "GameError OperationError ParseError ValidationError",
    "fileformat": "parse_game_text parse_morphism_text print_game print_morphism",
    "game": "Game build_game one_player_zero_game ordinal_profile validate_game",
    "morphism": "CltMorphism GameMorphism action_at clt_mono_witness compose forget "
                "identity_clt_morphism identity_morphism inverse is_iso is_mono iso_search "
                "mono_witness pushforward run_at validate_clt_morphism validate_game_morphism",
    "subgame": "SeltenResult is_selten_subgame selten_subclt selten_subgame subgame_roots",
    "terms": "Atom FinSet Term Tup encode encode_set parse_term term_cmp term_key",
    "tree": "OutTree descendants run_end runs strict_predecessors tree_leq validate_out_tree",
}.items() for name in names.split()}

__all__ = sorted([*_HOME, *{*_HOME.values()}])


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
