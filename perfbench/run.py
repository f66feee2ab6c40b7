"""gamecat benchmark: CLI time-to-verdict, end to end and per layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from `src/`. One
process, one client, closed loop: each `gamecat.cli.main([...])` call
starts when the previous one has returned. A run builds its inputs from
the seed, runs whole passes over them until at least --seconds of wall time
has passed, checks every output against a known answer, prints a
human-readable report and, as the last line, one JSON object.

--trace 0 reports the end-to-end metrics. --trace 1 runs every game once
untraced and once traced, and reports the per-layer metrics (per traced
game), the command medians of the untraced runs and the tracing overhead;
its spans go to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from functools import cmp_to_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
CMD_KINDS = ["validate", "props", "subgames", "nash", "spe", "convert", "iso", "classify"]

# Machine speed. The shared 2-CPU machine this was written on switches
# between speeds up to 2x apart, both within milliseconds and for minutes
# at a time, so raw wall times of two runs differ by more than any bound
# worth having. While a run measures, an interval timer therefore runs a
# fixed slice of interpreter work (dicts, tuples, frozensets, a cmp_to_key
# sort: the operations gamecat's hot paths use, and nothing of gamecat)
# every REF_GAP_S, inside commands too. A command's time excludes the slices
# that ran inside it and is scaled by the mean of REF_NOMINAL_S / slice time
# over the slices during and around it. Times are thus wall times at one
# fixed machine speed: the speed at which a slice takes REF_NOMINAL_S (on
# that machine slices took 0.85-1.0 ms in fast spells, 1.5 ms in slow ones).
REF_NOMINAL_S = 0.001
REF_GAP_S = 0.025
REF_WINDOW = 6      # slices on each side of a command that also set its speed


def _ref_cmp(a, b):
    return (a[1] > b[1]) - (a[1] < b[1]) or (a[0] > b[0]) - (a[0] < b[0])


_REF_KEY = cmp_to_key(_ref_cmp)


def reference_slice():
    """Fixed interpreter work, about 1 ms on the reference machine."""
    table = {}
    for k in range(400):
        table[(k % 7, "n%d" % (k * 7919 % 400))] = frozenset((k, k % 5))
    order = sorted(table, key=_REF_KEY)
    return len(",".join(s for _, s in order)) + sum(len(table[x]) for x in order)


class Speed:
    """Reference slices run by an interval timer while the context is
    entered, a clock that leaves them out, and the scaling of a measured
    time to the nominal machine speed."""

    def __init__(self):
        self.at: list = []      # perf_counter at the start of each slice
        self.took: list = []    # seconds of each slice
        self._inside = 0.0      # seconds spent in slices so far
        self._busy = False
        self._old = None

    def clock(self):
        """perf_counter without the time spent in reference slices."""
        return time.perf_counter() - self._inside

    def sample(self, n):
        for _ in range(n):
            self._slice()

    def _slice(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        # With the collector on, the slice's allocations set off
        # collections of the program's heap inside the slice; scaled times
        # of one deep game then varied by 7 % from run to run, against 3 %
        # with the collector off during slices.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_slice()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.at.append(start)
        self.took.append(took)
        self._inside += took
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, REF_GAP_S, REF_GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, start, end, seconds):
        """seconds, measured by clock() over [start, end] (perf_counter
        times), at the nominal speed: scaled by the mean rate of the slices
        in the interval and the REF_WINDOW slices on either side of it."""
        lo = max(bisect.bisect_left(self.at, start) - REF_WINDOW, 0)
        hi = bisect.bisect_right(self.at, end) + REF_WINDOW
        window = self.took[lo:hi]
        return seconds * sum(REF_NOMINAL_S / t for t in window) / len(window)


def _call(cli, argv, speed):
    """Run one CLI call; returns (exit code, stdout, traceback or None,
    start, end, seconds): perf_counter at start and end, and the seconds
    the call took without the reference slices inside it."""
    buf = io.StringIO()
    code, error = None, None
    start, clock = time.perf_counter(), speed.clock()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        error = traceback.format_exc()
    return code, buf.getvalue(), error, start, time.perf_counter(), speed.clock() - clock


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


class Runs:
    """What whole passes over the cases produced.

    times[traced][case][cmd] lists the command's scaled seconds, one per
    pass. results maps each distinct outcome (case, cmd, exit code, stdout,
    traceback, files read back) to the number of times it occurred.
    """

    def __init__(self, cases):
        self.cases = cases
        self.times = [[[[] for _ in case.cmds] for case in cases] for _ in range(2)]
        self.results: dict = {}
        self.passes = 0
        self.attempted = 0

    def game_times(self, traced=False):
        """Each game's scaled seconds, per pass."""
        return [[sum(t) for t in zip(*per)] for per in self.times[traced]]

    def games_per_s(self, traced=False):
        games = self.game_times(traced)
        return len(games) * self.passes / sum(map(sum, games))

    def game_medians(self):
        return [_median(t) for t in self.game_times()]

    def cmd_medians(self, kind):
        """Each command of kind's median scaled seconds over the passes."""
        return [_median(t) for case, per in zip(self.cases, self.times[False])
                for cmd, t in zip(case.cmds, per) if cmd.kind == kind]


def run_passes(cases, seconds, speed, tracer=None, min_passes=1):
    """Whole passes over the cases until seconds of wall time have passed
    and at least min_passes are done. A pass runs each case's commands in
    order, case after case; with a tracer each case runs once untraced,
    then once traced. speed's timer must be running."""
    cli = sys.modules["gamecat.cli"]
    runs = Runs(cases)
    done = []   # (traced, case, cmd, start, end, seconds), scaled at the end
    started = time.perf_counter()
    while runs.passes < min_passes or time.perf_counter() - started < seconds:
        for ci, case in enumerate(cases):
            for traced in ((False, True) if tracer is not None else (False,)):
                if traced:
                    tracer.game = f"{runs.passes}:{case.name}"
                    tracer.on()
                try:
                    for mi, cmd in enumerate(case.cmds):
                        code, out, error, *timing = _call(cli, cmd.argv, speed)
                        done.append((traced, ci, mi, *timing))
                        captured = tuple((p, _read(p)) for p in cmd.captures)
                        key = (ci, mi, code, out, error, captured)
                        runs.results[key] = runs.results.get(key, 0) + 1
                finally:
                    if traced:
                        tracer.off()
        runs.passes += 1
    speed.sample(REF_WINDOW)   # the slices after the last command
    for traced, ci, mi, start, end, took in done:
        runs.times[traced][ci][mi].append(speed.scaled(start, end, took))
    runs.attempted = len(done)
    return runs


def setup(warmups, purge, speed):
    """Import gamecat afresh and run one warm-up command of each kind;
    returns the scaled seconds this took. purge names the modules an
    earlier set-up loaded, dropped first so that the import starts from
    scratch. speed's timer must be running."""
    for name in purge:
        sys.modules.pop(name, None)
    gc.collect()
    start, clock = time.perf_counter(), speed.clock()
    cli = importlib.import_module("gamecat.cli")
    for cmd in warmups:
        _call(cli, cmd.argv, speed)
    took = speed.clock() - clock
    end = time.perf_counter()
    return start, end, took


class Checker:
    """Context for verifiers that need the program itself, untimed."""

    def __init__(self):
        self.fileformat = sys.modules["gamecat.fileformat"]

    def print_after_parse(self, text):
        """print_game(parse_game_text(text)), or None when text does not parse."""
        try:
            name, g = self.fileformat.parse_game_text(text)
        except Exception:  # a parse failure is a wrong answer, not a crash
            return None
        return self.fileformat.print_game(name, g)


def check(cases, results, ctx, exercised=None):
    """Number of failed executions and the first few reasons. results maps
    each distinct outcome to its count (see Runs). exercised, when given,
    counts the distinct outcomes checked by each verifier."""
    failed, reasons = 0, []
    for (ci, mi, code, out, error, captured), count in results.items():
        cmd = cases[ci].cmds[mi]
        if exercised is not None:
            name = f"{cmd.kind}:{cmd.verify.__name__.lstrip('_')}"
            exercised[name] = exercised.get(name, 0) + 1
        if error is not None:
            verdict = "raised: " + error.strip().splitlines()[-1]
        else:
            try:
                verdict = cmd.check(code, out.splitlines(), dict(captured), ctx)
            except Exception:
                verdict = "check raised: " + traceback.format_exc().strip()
        if verdict is not None:
            failed += count
            if len(reasons) < 5:
                reasons.append(f"{cases[ci].name} {' '.join(cmd.argv)}: {verdict}")
    return failed, reasons


def _tail(values):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _median(values):
    # Not statistics.median: importing statistics loads fractions, which
    # gamecat imports and set-up should count.
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2


def _ms(values):
    return _median(values) * 1000.0


def _warmups(workload, work):
    """One command of each kind the workload runs, on a tiny input."""
    seen, warmups = set(), []
    for case in workloads.build(workload, "warmup", work, tiny=True):
        for cmd in case.cmds:
            if cmd.kind not in seen:
                seen.add(cmd.kind)
                warmups.append(cmd)
    return warmups


def run_workload(workload, seed, seconds, trace_on, tiny=False, out=print):
    work = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "warmup"), exist_ok=True)
    started = time.perf_counter()
    try:
        cases = workloads.build(workload, seed, work, tiny)
        build_s = time.perf_counter() - started
        warmups = _warmups(workload, os.path.join(work, "warmup"))
        speed = Speed()
        with speed:
            before = set(sys.modules)
            setups = [setup(warmups, (), speed)]
            loaded = set(sys.modules) - before
            setups += [setup(warmups, loaded, speed) for _ in range(SETUP_REPEATS - 1)]
            # The benchmark's own objects (inputs, known answers) stay out
            # of the program's garbage collections.
            gc.collect()
            gc.freeze()
            try:
                tracer = None
                if trace_on:
                    tracer = tracing.Tracer(speed.clock)
                    tracer.install()
                # A traced run already runs every game twice.
                min_passes = 1 if trace_on else workloads.MIN_PASSES[workload]
                runs = run_passes(cases, seconds, speed, tracer, min_passes)
            finally:
                gc.unfreeze()
        setup_s = _median([speed.scaled(*timing) for timing in setups])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        exercised: dict = {}
        failed, reasons = check(cases, runs.results, Checker(), exercised)
        if not trace_on:
            metrics = {
                "setup_s": (setup_s, "s"),
                "games_per_s": (runs.games_per_s(), "1/s"),
                "game_p50_ms": (_ms(runs.game_medians()), "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            notes = []
        else:
            metrics = tracing.per_layer(tracer, len(cases) * runs.passes)
            metrics["trace.overhead"] = (runs.games_per_s() / runs.games_per_s(True), "ratio")
            for kind in CMD_KINDS:
                times = runs.cmd_medians(kind)
                metrics[f"cmd.{kind}_p50_ms"] = (_ms(times) if times else 0.0, "ms")
            os.makedirs(os.path.join(HERE, ".out"), exist_ok=True)
            tracer.write_spans(os.path.join(HERE, ".out", f"trace-{workload}-{seed}.jsonl"))
            notes = [f"traced: {len(tracer.spans)} spans, games_per_s untraced"
                     f" {runs.games_per_s():.6g} traced {runs.games_per_s(True):.6g}"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    slices = sorted(speed.took)
    out(f"workload {workload} seed {seed} trace {int(bool(trace_on))}"
        f" build_s {build_s:.3f} run_s {time.perf_counter() - started:.3f}")
    out(f"speed: {len(slices)} reference slices, median {_ms(slices):.4g} ms,"
        f" p10 {slices[len(slices) // 10] * 1000:.4g} ms, p90"
        f" {slices[len(slices) * 9 // 10] * 1000:.4g} ms; times below are scaled"
        f" to {REF_NOMINAL_S * 1000:g} ms per slice")
    for line in _report_lines(runs) + notes:
        out(line)
    for name, (value, unit) in metrics.items():
        out(f"{name} {value:.6g} {unit}")
    out(f"fail_share {failed / runs.attempted:.6g} ({failed}/{runs.attempted})")
    out("checks " + " ".join(f"{k}={v}" for k, v in sorted(exercised.items())))
    for reason in reasons:
        out(f"failure: {reason}")
    return {
        "correct": failed == 0,
        "attempted": runs.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _report_lines(runs):
    games = runs.game_medians()
    lines = [f"passes {runs.passes} games {len(games)} commands {runs.attempted}"
             f" (times below: each game's or command's median over the passes)",
             f"game_p50_ms {_ms(games):.6g} ms (n={len(games)})"]
    tail = _tail(games)
    if tail is not None:
        lines.append(f"game_tail_ms {tail[1] * 1000:.6g} ms (p{tail[0]:.1f}, n={len(games)})")
    for kind in CMD_KINDS:
        times = runs.cmd_medians(kind)
        if times:
            lines.append(f"cmd.{kind}_p50_ms {_ms(times):.6g} ms (n={len(times)})")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gamecat", "cli.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/gamecat is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
