"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each gamecat module; `on`
rebinds them, in every gamecat module that imported them (and in
module-level dicts such as the CLI's converter table), to the wrappers,
which record spans, and `off` puts the originals back. Hot functions get a
call counter only: their time stays in the calling span's self time. No
file of the program changes.

A span is [name, start, end, parent span index, game id]. Spans stay in
memory and are written out by `write_spans` at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys

LAYERS = ["cli", "fileformat", "terms", "tree", "clt", "game", "morphism",
          "subgame", "equilibrium", "canon"]

# Called up to millions of times per pass: counted, never spanned.
# tree.run_end alone made 99 % of the spans before it was added here.
HOT = {"terms.term_cmp", "terms.encode", "terms.encode_set", "game.Game.utility",
       "equilibrium.outcome", "tree.strict_predecessors", "tree.run_end"}


class Tracer:
    """clock: the time source of spans."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.game = None
        self.counts: dict = {}   # call counts of hot functions, and event counts
        self.calls: dict = {}    # span name -> calls
        self.busy: dict = {}     # span name -> seconds inside outermost calls
        self.self_s: dict = {}   # span name -> seconds not covered by child spans
        self._stack: list = []   # open span indices
        self._covered: list = []  # per open span, seconds covered by its children
        self._depth: dict = {}
        self._patches: list = []  # (setter, key, original, wrapper)

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, pre=None, post=None):
        spans, stack, covered, depth = self.spans, self._stack, self._covered, self._depth
        calls, busy, self_s, clock = self.calls, self.busy, self.self_s, self.clock
        for table in (calls, busy, self_s):
            table.setdefault(name, 0)
        depth[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(self, args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.game]
            stack.append(len(spans))
            spans.append(rec)
            covered.append(0.0)
            depth[name] += 1
            rec[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                inner = covered.pop()
                depth[name] -= 1
                took = end - start
                calls[name] += 1
                self_s[name] += took - inner
                if depth[name] == 0:
                    busy[name] += took
                if covered:
                    covered[-1] += took
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        """Build the wrappers and the list of places to rebind; `on` and
        `off` then switch between the wrappers and the originals."""
        import inspect
        from functools import cmp_to_key

        import gamecat.game
        import gamecat.terms

        modules = {m: sys.modules[f"gamecat.{m}"] for m in LAYERS}
        replace = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in HOT:
                    replace[obj] = self._counter(name, obj)
                else:
                    replace[obj] = self._span(name, obj, *_HOOKS.get(name, (None, None)))
        # term_key is cmp_to_key(term_cmp), which calls the original
        # term_cmp, so it is rebuilt around the counting one.
        old_key = gamecat.terms.term_key
        new_key = cmp_to_key(replace[gamecat.terms.term_cmp])

        owners = [mod for key, mod in sys.modules.items()
                  if key == "gamecat" or key.startswith("gamecat.")]
        patches = self._patches
        for mod in owners:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if obj is old_key:
                    patches.append((functools.partial(setattr, mod), attr, obj, new_key))
                elif _hashable(obj) and obj in replace:
                    patches.append((functools.partial(setattr, mod), attr, obj, replace[obj]))
                elif type(obj) is dict:
                    for k, v in obj.items():
                        if _hashable(v) and v in replace:
                            patches.append((obj.__setitem__, k, v, replace[v]))
        utility = gamecat.game.Game.utility
        patches.append((functools.partial(setattr, gamecat.game.Game), "utility", utility,
                        self._counter("game.Game.utility", utility)))

    def on(self):
        for put, key, _, new in self._patches:
            put(key, new)

    def off(self):
        for put, key, old, _ in reversed(self._patches):
            put(key, old)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, game in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "game": game}) + "\n")


def _hashable(obj):
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def _bytes_parsed(tr, args):
    tr.bump("fileformat.bytes_parsed", len(args[0].encode("utf-8")))


def _candidate(tr, args):
    # iso_search validates each complete candidate map with
    # validate_game_morphism, so a call made directly from the search is one
    # candidate, whether it validates or raises.
    if tr.parent_name() == "morphism.iso_search":
        tr.bump("morphism.iso_search.candidates")


def _iso_found(tr, args, result):
    tr.bump("morphism.iso_search.found", result is not None)


def _enumerated(tr, args, result):
    tr.bump("equilibrium.strategies.enumerated", len(result))
    if tr.parent_name() == "equilibrium.nash":
        tr.bump("equilibrium.nash.enumerated", len(result))


def _nash_found(tr, args, result):
    tr.bump("equilibrium.nash.found", len(result))


_HOOKS = {
    "fileformat.parse_game_text": (_bytes_parsed, None),
    "fileformat.parse_morphism_text": (_bytes_parsed, None),
    "morphism.validate_game_morphism": (_candidate, None),
    "morphism.iso_search": (None, _iso_found),
    "equilibrium.strategies": (None, _enumerated),
    "equilibrium.nash": (None, _nash_found),
}


def per_layer(tr, games):
    """The per-layer metrics of a traced run, per game executed."""
    g = max(games, 1)
    calls, busy, self_s, counts = tr.calls, tr.busy, tr.self_s, tr.counts

    def self_of(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    out = {
        "cli.self_s": (self_of("cli.main"), "s/game"),
        "fileformat.parse.self_s": (self_of("fileformat.parse_game_text",
                                            "fileformat.parse_morphism_text"), "s/game"),
        "fileformat.print.self_s": (self_of("fileformat.print_game",
                                            "fileformat.print_morphism"), "s/game"),
        "fileformat.bytes_parsed": (counts.get("fileformat.bytes_parsed", 0), "bytes/game"),
    }
    for name in ("terms.term_cmp", "terms.encode", "terms.encode_set", "tree.strict_predecessors",
                 "tree.run_end", "equilibrium.outcome"):
        out[f"{name}.calls"] = (counts.get(name, 0), "count/game")
    out["game.utility.calls"] = (counts.get("game.Game.utility", 0), "count/game")
    for name in ("tree.runs", "clt.validate_clt", "game.validate_game", "game.ordinal_profile",
                 "morphism.validate_game_morphism", "morphism.iso_search",
                 "subgame.selten_subclt", "subgame.selten_subgame", "equilibrium.is_nash"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count/game")
    for name in ("tree.validate_out_tree", "tree.runs", "clt.validate_clt", "game.validate_game",
                 "morphism.validate_game_morphism", "morphism.iso_search", "morphism.pushforward",
                 "morphism.is_iso", "morphism.mono_witness", "subgame.subgame_roots",
                 "subgame.selten_subgame", "equilibrium.nash", "equilibrium.spe",
                 "canon.properties"):
        out[f"{name}.busy_s"] = (busy.get(name, 0.0), "s/game")
    for name in ("morphism.validate_game_morphism", "morphism.iso_search", "canon.to_sequence",
                 "canon.to_action_set", "canon.to_distinguished"):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s/game")
    out["morphism.iso_search.candidates"] = (
        counts.get("morphism.iso_search.candidates", 0), "count/game")
    out["equilibrium.strategies.enumerated"] = (
        counts.get("equilibrium.strategies.enumerated", 0), "count/game")
    out = {k: (v / g, unit) for k, (v, unit) in out.items()}

    cand = counts.get("morphism.iso_search.candidates", 0)
    out["morphism.iso_search.found_per_candidate"] = (
        counts.get("morphism.iso_search.found", 0) / cand if cand else 0.0, "ratio")
    enum = counts.get("equilibrium.nash.enumerated", 0)
    out["equilibrium.nash.yield"] = (
        counts.get("equilibrium.nash.found", 0) / enum if enum else 0.0, "ratio")

    # terms has no span of its own (its hot functions are counted only), so
    # its time shows in the shares of the layers that call it.
    total = sum(self_s.values())
    for layer in LAYERS:
        if layer == "terms":
            continue
        share = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = (share / total if total else 0.0, "ratio")
    return out
