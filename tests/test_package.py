"""The package's public surface: the names `import gamecat` offers, where
each one lives, and pickles that name a command module not yet run."""

import os
import pickle
import subprocess
import sys
import types

import gamecat
from conftest import fixture_path
from gamecat import identity_morphism, parse_game_text

# Each public name under the module that defines it.
HOMES = {
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
}


def test_the_public_names_are_the_69_names_and_10_submodules():
    names = [name for names in HOMES.values() for name in names.split()]
    assert len(names) == 69 and len(HOMES) == 10
    assert sorted(gamecat.__all__) == sorted([*names, *HOMES]) == gamecat.__all__


def test_each_public_name_is_the_object_its_home_module_defines():
    for home, names in HOMES.items():
        module = sys.modules[f"gamecat.{home}"]
        assert getattr(gamecat, home) is module
        for name in names.split():
            obj = getattr(module, name)
            exec(f"from gamecat import {name} as imported", scope := {})
            assert scope["imported"] is obj is getattr(gamecat, name)
            if isinstance(obj, (type, types.FunctionType)):  # defined there, not imported
                assert obj.__module__ == module.__name__
    scope = {}
    exec("from gamecat import *", scope)
    assert {k for k in scope if k != "__builtins__"} == set(gamecat.__all__)


def test_dir_lists_every_public_name_and_no_other_name_resolves():
    assert "__all__" in dir(gamecat) and set(gamecat.__all__) <= set(dir(gamecat))
    assert not hasattr(gamecat, "no_such_name")
    assert not hasattr(gamecat, "_transport")  # a private name stays in its module


def test_a_pickled_morphism_loads_where_its_module_has_not_run():
    _, g = parse_game_text(open(fixture_path("trio_a.gm"), encoding="utf-8").read())
    m = identity_morphism(g)
    script = ("import pickle, sys, types, gamecat\n"
              "assert type(sys.modules['gamecat.morphism']) is not types.ModuleType\n"
              "m = pickle.loads(sys.stdin.buffer.read())\n"
              "sys.stdout.buffer.write(pickle.dumps(m))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamecat.__file__)))
    done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(m), env=env,
                          capture_output=True, check=True)
    back = pickle.loads(done.stdout)
    assert type(back) is gamecat.GameMorphism and back == m


def test_threads_that_read_a_command_module_at_once_all_see_it_whole():
    # The module's first read runs it; a thread that comes while it runs
    # waits for the whole module instead of reading the half that ran.
    script = ("import sys, threading, gamecat\n"
              "start, seen = threading.Barrier(4), []\n"
              "def read():\n"
              "    start.wait()\n"
              "    seen.append(gamecat.morphism.iso_search.__name__)\n"
              "threads = [threading.Thread(target=read) for _ in range(4)]\n"
              "for t in threads: t.start()\n"
              "for t in threads: t.join(10)\n"
              "print(*seen, sum(t.is_alive() for t in threads))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamecat.__file__)))
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        assert done.stdout.split() == ["iso_search"] * 4 + ["0"], done.stderr
