"""Tests of the benchmark itself: deterministic inputs, independent known
answers, failure counting, and a tiny run of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import filecmp
import importlib.util
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.append(os.path.join(ROOT, "src"))

import answers  # noqa: E402
import games  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _files(path):
    return sorted(os.listdir(path))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    dirs = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        dirs[tag] = tmp_path / tag
        dirs[tag].mkdir()
        workloads.build(workload, seed, str(dirs[tag]), tiny=True)
    names = _files(dirs["a"])
    assert names and names == _files(dirs["b"])
    match, mismatch, errors = filecmp.cmpfiles(dirs["a"], dirs["b"], names, shallow=False)
    assert not mismatch and not errors
    other = _files(dirs["c"])
    same = [n for n in set(names) & set(other)
            if filecmp.cmp(dirs["a"] / n, dirs["c"] / n, shallow=False)]
    assert len(same) < len(names)


def _load_test_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", os.path.join(ROOT, "tests", "oracles.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _as_names(profiles):
    return {frozenset((frozenset(x.name for x in cell), a.name) for cell, a in p)
            for p in profiles}


def test_equilibria_equal_the_brute_force_oracles():
    """The benchmark's reachability answers equal tests/oracles.py, on
    corpus games (absent-minded ones included) and strategic games."""
    from gamecat import parse_game_text

    oracles = _load_test_oracles()
    rng = random.Random(3)
    sample = [games.corpus_game(rng) for _ in range(60)]
    sample += [games.strategic_game(rng, random.Random(k), 72) for k in range(4)]
    assert any(answers.absentminded(g) for g in sample)
    for g in sample:
        _, lib = parse_game_text(g.gm_text("g"))
        eq = answers.Equilibria(g)
        assert eq.nash() == _as_names(oracles.oracle_nash(lib))
        assert eq.spe() == _as_names(oracles.oracle_spe(lib))


def test_near_miss_invariant_is_kept_by_isomorphism():
    """The ordinal invariant that certifies near-misses is the same for a
    game and any relabelled copy, and a near-miss changes it."""
    rng = random.Random(5)
    found = 0
    for _ in range(40):
        g = games.corpus_game(rng)
        copy, m = games.relabel(rng, g, "r")
        assert answers.iso_error(g, copy, m) is None
        assert games.ordinal_invariant(g) == games.ordinal_invariant(copy)
        miss = games.near_miss(rng, g)
        if miss is not None:
            found += 1
            assert games.ordinal_invariant(miss) != games.ordinal_invariant(g)
    assert found


def test_planted_wrong_answer_counts_as_failed(tmp_path):
    cases = workloads.build("corpus", 2, str(tmp_path), tiny=True)
    validate = cases[0].cmds[0]
    assert validate.kind == "validate"
    validate.expect = validate.expect + ["run {bogus}"]
    with run.Speed() as speed:
        run.setup([], (), speed)
        runs = run.run_passes(cases, 0, speed)
    failed, reasons = run.check(cases, runs.results, run.Checker())
    assert failed == runs.passes == 1 and "validate" in reasons[0]


@pytest.mark.parametrize("trace_on", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload, trace_on):
    lines = []
    result = run.run_workload(workload, 1, 0, trace_on, tiny=True, out=lines.append)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace_on else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") for line in lines)
    json.dumps(result)
