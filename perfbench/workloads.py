"""The benchmark's workloads: seeded input games, the CLI command sequence
run on each, and the known answer each command is checked against.

A case is one game: its command sequence is what the benchmark times as one
"game". Every command carries its expected exit code and a verifier that
gets the command's stdout lines and the text of any file the command wrote
or read that the check needs (read back after the command, untimed).
"""

from __future__ import annotations

import os
import random

import answers
import games

CONVERT_TARGETS = ["distinguished", "sequence", "action-set", "distinguished-sequence"]

# strategic: exact strategy-space sizes of one pass, among the sizes the
# generator draws most often; each game has its own shape. The median game
# is one of the 40 games of 216 strategies. Sizes from 432 up, where one
# game's nash alone takes 0.4-2.6 s, are left out so that no few games
# dominate the pass. Pass times below are at the seed commit, at the
# benchmark's nominal machine speed (see run.py): strategic about 15 s.
STRATEGIC_SIZES = ([72] * 3 + [216] * 10 + [288] * 3) * 4

# deep: ("binary", d) / ("path", n) run iso and certificate checks;
# ("tree", n) skips iso (see README: relabelled random trees exceed the
# search at 260 nodes). One pass is about 16 s.
DEEP_LADDER = [("binary", 5), ("binary", 6), ("binary", 7),
               ("path", 40), ("path", 80), ("path", 120), ("tree", 250)]

# corpus: games per pass; one pass is about 12 s.
CORPUS_GAMES = 300

# Passes a run makes at least. deep has seven games, each measured once per
# pass within about 5 %; its game_p50_ms is one game's time, and from one
# pass it spread by 0.10 over ten runs. The median of two passes halves the
# variance.
MIN_PASSES = {"corpus": 1, "strategic": 1, "deep": 2}

TINY = {
    "corpus": 3,
    "strategic": [72, 96],
    "deep": [("binary", 3), ("path", 10), ("tree", 30)],
}


class Cmd:
    """One CLI call with its known answer.

    kind: the metric the call's time is pooled into. expect: data the
    verifier compares against (exact stdout lines unless verify says
    otherwise). captures: files read back after the call for the check.
    """

    def __init__(self, kind, argv, expect=None, code=0, verify=None, captures=()):
        self.kind = kind
        self.argv = ["--format", "machine"] + list(argv)
        self.expect = expect
        self.code = code
        self.verify = verify or _exact
        self.captures = list(captures)

    def check(self, code, lines, captured, ctx):
        """None when the result is the known answer, else a reason."""
        if code != self.code:
            return f"exit code {code}, expected {self.code}"
        return self.verify(self, lines, captured, ctx)


class Case:
    def __init__(self, name, cmds):
        self.name = name
        self.cmds = cmds


def _exact(cmd, lines, captured, ctx):
    if lines != cmd.expect:
        return "stdout differs from the known answer"
    return None


def _strategies(key):
    def verify_equilibria(cmd, lines, captured, ctx):
        if any(not line.startswith(key + " ") for line in lines):
            return f"unexpected line in {key} output"
        return answers.strategy_lines_error(lines, key, cmd.expect)
    return verify_equilibria


def _parse_map(lines):
    m = {}
    for line in lines:
        if line.startswith("map "):
            x, _, y = line[4:].partition(" -> ")
            m[x] = y
    return m


def _verify_iso(cmd, lines, captured, ctx):
    g1, g2, emit = cmd.expect
    if not lines or lines[0] != "verdict isomorphic":
        return "not reported isomorphic"
    m = _parse_map(lines)
    tail = [line for line in lines[1:] if not line.startswith("map ")]
    if len(m) != len(lines) - 1 - len(tail):
        return "duplicate map lines"
    err = answers.iso_error(g1, g2, m)
    if err:
        return "witness is not an isomorphism: " + err
    if emit:
        if tail != [f"morphism_file {emit}"]:
            return "missing morphism_file line"
        text = captured.get(emit)
        if text is None or _parse_map(text.splitlines()) != m:
            return "emitted morphism differs from the printed witness"
    elif tail:
        return "unexpected lines after the witness"
    return None


def _verify_convert(cmd, lines, captured, ctx):
    """The emitted game survives print after parse unchanged, and the
    emitted certificate re-validates as an isomorphism from the input."""
    expect, g, source = cmd.expect
    if lines != expect:
        return "stdout differs from the known answer"
    out_game, out_morph = (line.split(" ", 1)[1] for line in lines)
    text, cert = captured.get(out_game), captured.get(out_morph)
    if text is None or cert is None:
        return "converter wrote no output file"
    if ctx.print_after_parse(text) != text:
        return "print after parse changes the emitted game"
    head = cert.splitlines()[1:3]
    if head != [f"source {source}", f"target {os.path.basename(out_game)}"]:
        return "certificate names the wrong games"
    err = answers.iso_error(g, answers.read_gm(text), _parse_map(cert.splitlines()))
    if err:
        return "certificate is not an isomorphism: " + err
    return None


def _verify_absentminded(cmd, lines, captured, ctx):
    if len(lines) != 2 or lines[0] != "verdict invalid" \
            or not lines[1].startswith("error Absentminded"):
        return "expected an Absentminded error"
    return None


def _verify_classify(cmd, lines, captured, ctx):
    base, mono, iso, collapsing = cmd.expect
    head = base + [f"mono {str(mono).lower()}", f"iso {str(iso).lower()}"]
    if lines[:len(head)] != head:
        return "stdout differs from the known answer"
    rest = lines[len(head):]
    witness = [line for line in rest if line.startswith("mono_witness ")]
    clt_witness = [line for line in rest if line.startswith("clt_mono_witness ")]
    if len(witness) + len(clt_witness) != len(rest):
        return "unexpected lines after the verdicts"
    if bool(witness) == mono or bool(clt_witness) != collapsing:
        return "witness lines do not match the mono verdicts"
    return None


def _verify_certificate(cmd, lines, captured, ctx):
    """The certificate iso emitted re-validates as an isomorphism and
    `morphism classify` reports it valid, mono and iso."""
    src, tgt, path = cmd.expect
    m = _parse_map((captured.get(path) or "").splitlines())
    err = answers.iso_error(src, tgt, m)
    if err:
        return "emitted certificate is not an isomorphism: " + err
    if lines != answers.morphism_lines(src, tgt, m) + ["mono true", "iso true"]:
        return "stdout differs from the known answer"
    return None


class _Files:
    def __init__(self, work):
        self.work = work

    def put(self, name, text):
        path = os.path.join(self.work, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def game(self, name, g):
        return self.put(name + ".gm", g.gm_text(name))


def _validate(path, g, name):
    return Cmd("validate", ["validate", path], answers.validate_lines(g, name))


def _converts(path, g, targets):
    stem = os.path.splitext(path)[0]
    cmds = []
    for to in targets:
        if to == "action-set" and answers.absentminded(g):
            cmds.append(Cmd("convert", ["convert", path, "--to", to], code=1,
                            verify=_verify_absentminded))
            continue
        outs = [f"{stem}.{to}.gm", f"{stem}.{to}.gmm"]
        expect = [f"game_file {outs[0]}", f"morphism_file {outs[1]}"]
        cmds.append(Cmd("convert", ["convert", path, "--to", to],
                        (expect, g, os.path.basename(path)),
                        verify=_verify_convert, captures=outs))
    return cmds


def _classify(rng, files, name, g, path):
    """`morphism classify` of a random valid morphism of one of four kinds:
    identity, relabel, extension under a new root, end-merging quotient."""
    kind = rng.choice(["identity", "relabel", "extension", "quotient"])
    merged = games.merge_two_ends(rng, g) if kind == "quotient" else None
    if kind == "quotient" and merged is None:
        kind = "relabel"
    if kind == "identity":
        src, tgt, m = g, g, {x: x for x in g.nodes}
        names = (os.path.basename(path),) * 2
    elif kind == "relabel":
        tgt, m = games.relabel(rng, g, "m")
        src = g
        names = (os.path.basename(path), os.path.basename(files.game(name + ".m", tgt)))
    elif kind == "extension":
        tgt, m = games.extend_under_new_root(rng, g)
        src = g
        names = (os.path.basename(path), os.path.basename(files.game(name + ".m", tgt)))
    else:
        src, tgt, m = merged
        names = (os.path.basename(files.game(name + ".q", src)),
                 os.path.basename(files.game(name + ".m", tgt)))
    gmm = files.put(name + ".gmm", games.gmm_text(name + "." + kind, *names, m))
    mono = kind != "quotient"
    iso = kind in ("identity", "relabel")
    expect = (answers.morphism_lines(src, tgt, m), mono, iso, kind == "quotient")
    return Cmd("classify", ["morphism", "classify", gmm], expect, verify=_verify_classify)


def build_corpus(rng, files, n_games):
    """validate, props, subgames, nash, spe, convert (all four targets), iso
    against a relabelled copy, iso against a certified near-miss, and
    `morphism classify` of a random valid morphism, on small random games.
    Node and player counts are stratified (game k has 2 + k % 11 nodes and
    1 + k // 11 % 4 players), which keeps genrandom's uniform distribution
    of both but takes their sampling noise out of the workload's cost."""
    cases = []
    for k in range(n_games):
        name = f"c{k}"
        g = games.corpus_game(rng, 2 + k % 11, 1 + k // 11 % 4)
        path = files.game(name, g)
        eq = answers.Equilibria(g)
        cmds = [
            _validate(path, g, name),
            Cmd("props", ["props", path], answers.props_lines(g)),
            Cmd("subgames", ["subgames", path],
                [f"subgame_root {r}" for r in answers.subgame_roots(g)]),
            Cmd("nash", ["nash", path], eq.nash(), verify=_strategies("nash")),
            Cmd("spe", ["spe", path], eq.spe(), verify=_strategies("spe")),
        ]
        cmds += _converts(path, g, CONVERT_TARGETS)
        copy, _ = games.relabel(rng, g, "r")
        cmds.append(Cmd("iso", ["iso", path, files.game(name + ".r", copy)],
                        (g, copy, None), verify=_verify_iso))
        miss = games.near_miss(rng, g)
        if miss is not None:
            miss_copy, _ = games.relabel(rng, miss, "n")
            cmds.append(Cmd("iso", ["iso", path, files.game(name + ".n", miss_copy)],
                            ["verdict not-isomorphic"], code=1))
        cmds.append(_classify(rng, files, name, g, path))
        cases.append(Case(name, cmds))
    return cases


def build_strategic(rng, files, sizes):
    """validate, nash and spe on depth-3 games of the given strategy-space
    sizes; game k has a fixed shape, the seed draws its actions and
    utilities."""
    cases = []
    for k, size in enumerate(sizes):
        name = f"s{k}"
        g = games.strategic_game(rng, random.Random(f"strategic:{k}:{size}"), size)
        path = files.game(name, g)
        eq = answers.Equilibria(g)
        cases.append(Case(name, [
            _validate(path, g, name),
            Cmd("nash", ["nash", path], eq.nash(), verify=_strategies("nash")),
            Cmd("spe", ["spe", path], eq.spe(), verify=_strategies("spe")),
        ]))
    return cases


def build_deep(rng, files, ladder):
    """validate, subgames, convert to sequence and action-set, and
    `morphism check` of the identity on a ladder of large games; on binary
    and path games also validate of an order-keeping relabelled copy, iso
    against it and `morphism classify` of the emitted certificate."""
    cases = []
    for family, n in ladder:
        name = f"{family}{n}"
        g = {"binary": games.binary_game, "path": games.path_game,
             "tree": games.imperfect_tree}[family](rng, n)
        path = files.game(name, g)
        ident = files.put(name + ".id.gmm", games.gmm_text(
            name + ".id", name + ".gm", name + ".gm", {x: x for x in g.nodes}))
        cmds = [
            _validate(path, g, name),
            Cmd("subgames", ["subgames", path],
                [f"subgame_root {r}" for r in answers.subgame_roots(g)]),
            *_converts(path, g, ["sequence", "action-set"]),
            Cmd("classify", ["morphism", "check", ident],
                answers.morphism_lines(g, g, {x: x for x in g.nodes})),
        ]
        if family != "tree":
            copy, _ = games.relabel(rng, g, "r", keep_order=True)
            copy_path = files.game(name + ".r", copy)
            emit = os.path.join(files.work, name + ".iso.gmm")
            cmds += [
                _validate(copy_path, copy, name + ".r"),
                Cmd("iso", ["iso", path, copy_path, "--emit-morphism", emit],
                    (g, copy, emit), verify=_verify_iso, captures=[emit]),
                Cmd("classify", ["morphism", "classify", emit], (g, copy, emit),
                    verify=_verify_certificate, captures=[emit]),
            ]
        cases.append(Case(name, cmds))
    return cases


def build(workload, seed, work, tiny=False):
    """The cases of one workload for one seed, with their input files
    written under work."""
    rng = random.Random(f"{workload}:{seed}")
    files = _Files(work)
    if workload == "corpus":
        return build_corpus(rng, files, TINY["corpus"] if tiny else CORPUS_GAMES)
    if workload == "strategic":
        return build_strategic(rng, files, TINY["strategic"] if tiny else STRATEGIC_SIZES)
    if workload == "deep":
        return build_deep(rng, files, TINY["deep"] if tiny else DEEP_LADDER)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ["corpus", "strategic", "deep"]
