"""Time `import gamecat.cli` and whole commands in fresh interpreters, bytecode cached or not.

    python3 tools/importcost.py [--runs 21] [--tree TREE]

Copies the .py files of TREE/src/gamecat (TREE defaults to the checkout this
script is in) into a temporary directory and runs
`python -X importtime -c "import gamecat.cli"` on that copy RUNS times in
each of two modes:

- uncached: PYTHONDONTWRITEBYTECODE=1, so every run compiles each gamecat
  module from source, as in a fresh checkout, while the standard library
  reads its installed bytecode;
- cached: PYTHONPYCACHEPREFIX names a second temporary directory, which one
  untimed run fills, so every module reads cached bytecode and nothing is
  written beside any source.

For each mode it prints the median cumulative µs of gamecat.cli and, for
each module outside gamecat that the import loads, the median of its
cumulative µs (0 in a run that did not load it). `-X importtime` prints no
line for a module that the package loads lazily, as such a module runs on
its first attribute read, not at an import statement.

Then, per mode, it times whole processes, RUNS of each, taken in turns:
`python -m gamecat.cli validate GAME`, `python -m gamecat.cli nash GAME`
(GAME is this checkout's tests/fixtures/trio_a.gm) and `python -c pass`,
and prints each command's median wall time less the median of
`python -c pass`, the cost of starting the interpreter itself. It also
lists the gamecat modules each command ran. The last line is one JSON
object with the same figures. Import times are the interpreter's own
wall-clock readings and process times this script's; neither is scaled
for machine speed. Nothing is written into TREE.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")
GAME = os.path.join(os.path.dirname(HERE), "tests", "fixtures", "trio_a.gm")
COMMANDS = ("validate", "nash")
# One command; then, on stderr, the gamecat modules that ran. A module
# loaded lazily and not yet run is of a subclass of ModuleType.
RAN = ("import sys, types, gamecat.cli\n"
       "gamecat.cli.main(sys.argv[1:])\n"
       "print(*sorted(n for n, m in sys.modules.items() if n.startswith('gamecat.')\n"
       "              and type(m) is types.ModuleType), file=sys.stderr)")


def _median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2


def _loaded(stderr: str) -> dict:
    """module -> cumulative µs, for gamecat.cli and every module its import
    loaded: the lines since the last top-level import before it."""
    out = {}
    for m in map(LINE.match, stderr.splitlines()):
        if m is None:
            continue
        _, cumulative, indent, name = m.groups()
        if not indent and name != "gamecat.cli":
            out = {}  # a top-level import the interpreter made before gamecat's
        else:
            out[name] = int(cumulative)
        if name == "gamecat.cli":
            return out
    raise RuntimeError("no import time line for gamecat.cli:\n" + stderr)


def _run(path: str, env: dict) -> dict:
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gamecat.cli"],
                          env=dict(env, PYTHONPATH=path), capture_output=True, text=True,
                          check=True)
    return _loaded(done.stderr)


def _processes(path: str, env: dict, runs: int) -> dict:
    """Median ms of a fresh process per command, less that of `python -c
    pass` (under "pass"), each run RUNS times, taken in turns."""
    env = dict(env, PYTHONPATH=path)
    calls = {"pass": ["-c", "pass"], **{c: ["-m", "gamecat.cli", c, GAME] for c in COMMANDS}}
    took: dict = {name: [] for name in calls}
    for _ in range(runs):
        for name, argv in calls.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
                           check=True)
            took[name].append(time.perf_counter() - start)
    base = _median(took.pop("pass"))
    return {"pass": base * 1000, **{c: (_median(t) - base) * 1000 for c, t in took.items()}}


def _ran(path: str, env: dict, command: str) -> list:
    done = subprocess.run([sys.executable, "-c", RAN, command, GAME],
                          env=dict(env, PYTHONPATH=path), capture_output=True, text=True,
                          check=True)
    return done.stderr.split()


def _summary(runs: list) -> dict:
    names = sorted({name for run in runs for name in run if not name.startswith("gamecat")})
    return {"runs": len(runs),
            "gamecat.cli_us": _median([run["gamecat.cli"] for run in runs]),
            "other_modules_us": {name: _median([run.get(name, 0) for run in runs])
                                 for name in names}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=21)
    ap.add_argument("--tree", default=os.path.dirname(HERE))
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")}
    with tempfile.TemporaryDirectory() as tmp:
        package = os.path.join(tmp, "src", "gamecat")
        os.makedirs(package)
        for source in glob.glob(os.path.join(args.tree, "src", "gamecat", "*.py")):
            shutil.copy(source, package)
        path = os.path.dirname(package)
        uncached = dict(env, PYTHONDONTWRITEBYTECODE="1")
        cached = dict(env, PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"))
        _run(path, cached)  # fills the cache
        result = {}
        for mode, mode_env in (("uncached", uncached), ("cached", cached)):
            result[mode] = _summary([_run(path, mode_env) for _ in range(args.runs)])
            result[mode]["process_ms"] = _processes(path, mode_env, args.runs)
        ran = {command: _ran(path, uncached, command) for command in COMMANDS}
    for mode, s in result.items():
        print(f"{mode}: gamecat.cli {s['gamecat.cli_us']:.0f} us, median of {s['runs']} runs")
        for name, us in s["other_modules_us"].items():
            print(f"  {name} {us:.0f} us")
        ms = s["process_ms"]
        print(f"  process, less python -c pass ({ms['pass']:.1f} ms): "
              + ", ".join(f"{c} {ms[c]:.1f} ms" for c in COMMANDS))
    for command, modules in ran.items():
        print(f"{command} ran: {' '.join(modules)}")
    result["ran"] = ran
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
