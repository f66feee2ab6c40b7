import contextlib
import io
import os
import random
import shutil
import subprocess
import sys

import pytest

import gamecat
from gamecat import encode, is_iso, parse_game_text, print_morphism, validate_game_morphism
from gamecat.cli import _Report, main
from conftest import FIXTURES, fixture_path
import examplegames
from genrandom import random_bijections, random_game


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_lists_derived_data(capsys):
    code, out = run(capsys, "validate", fixture_path("trio_a.gm"))
    assert code == 0
    assert "nodes: 9" in out
    assert "players: P1 P2 P3" in out
    assert out.count("run:") == 5
    assert "run: {0,3,5}" in out


def test_validate_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.gm"
    bad.write_text("game b\nnode 0\n")
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    assert "Trivial" in out


def test_validate_rejects_conflicting_utilities(tmp_path, capsys):
    bad = tmp_path / "bad.gm"
    bad.write_text("game b\nnode 0\nnode 1\nnode 2\nedge 0 1 a\nedge 0 2 b\n"
                   "infoset i { 0 }\nplayer P infoset i\n"
                   "utility P end 1 1\nutility P end 2 0\nutility P end 1 2\n")
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    assert "error: UtilityConflict P {0,1} (line 11)" in out


@pytest.mark.parametrize("text, witness", [(examplegames.REPEATED_CELL, "r"),
                                           (examplegames.REPEATED_CELL_TWO_PLAYERS, "r"),
                                           (examplegames.OVERLAP, "a")],
                         ids=["repeated", "repeated-two-players", "overlap"])
def test_information_sets_that_are_no_partition_are_refused(tmp_path, capsys, text, witness):
    # A cell listed twice once gave strategies two choices at it, and with
    # two players the reader kept the second and reported P's utilities.
    game = tmp_path / "g.gm"
    game.write_text(text, encoding="utf-8")
    for command in ("validate", "strategies", "nash", "spe"):
        assert run(capsys, "--format", "machine", command, str(game)) == (
            1, f"verdict invalid\nerror PartitionBad {witness} (node in two information sets)\n")


def test_syntax_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.gm"
    bad.write_text("game b\nnode (0\n")
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert "SyntaxError" in out


def test_missing_file_exits_2(capsys):
    code, _ = run(capsys, "validate", fixture_path("nope.gm"))
    assert code == 2


def test_non_utf8_game_is_a_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.gm"
    bad.write_bytes(b"game g\nnode \xff\n")
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == f"error: SyntaxError ({bad} is not UTF-8: bad byte at offset 12)\n"


def test_non_utf8_morphism_is_a_syntax_error(tmp_path, capsys):
    shutil.copy(fixture_path("relabel_src.gm"), tmp_path / "src.gm")
    (tmp_path / "tgt.gm").write_bytes(b"game t\nnode \xe9\n")
    bad = tmp_path / "bad.gmm"
    bad.write_bytes(b"morphism m\nsource src.gm\ntarget tgt.gm\nmap \xc3( -> 0\n")
    code, out = run(capsys, "--format", "machine", "morphism", "check", str(bad))
    assert code == 2
    assert out == f"error SyntaxError ({bad} is not UTF-8: bad byte at offset 43)\n"
    # The game files a .gmm names are read the same way.
    good = tmp_path / "good.gmm"
    good.write_text("morphism m\nsource src.gm\ntarget tgt.gm\n")
    code, out = run(capsys, "morphism", "check", str(good))
    assert code == 2
    tgt = tmp_path / "tgt.gm"
    assert out == f"error: SyntaxError ({tgt} is not UTF-8: bad byte at offset 12)\n"


def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    # Some editors start a UTF-8 file with U+FEFF. The reader drops one, and
    # a bad byte's offset still counts the file's bytes, the mark's three too.
    with open(fixture_path("trio_a.gm"), "rb") as fh:
        text = fh.read()
    (tmp_path / "g.gm").write_bytes(b"\xef\xbb\xbf" + text)
    assert run(capsys, "validate", str(tmp_path / "g.gm")) == run(capsys, "validate",
                                                                  fixture_path("trio_a.gm"))
    _, g = parse_game_text(text.decode("utf-8"))
    m = print_morphism("m", "g.gm", "g.gm", {x: x for x in g.tree.nodes})
    (tmp_path / "m.gmm").write_bytes(b"\xef\xbb\xbf" + m.encode("utf-8"))
    code, out = run(capsys, "morphism", "check", str(tmp_path / "m.gmm"))
    assert (code, out.splitlines()[0]) == (0, "verdict: valid")
    bad = tmp_path / "bad.gm"
    bad.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf" + text)
    assert run(capsys, "validate", str(bad)) == (
        2, "error: SyntaxError (unknown declaration '\\ufeffgame' at line 1)\n")
    bad.write_bytes(b"\xef\xbb\xbfgame g\nnode \xff\n")
    assert run(capsys, "validate", str(bad)) == (
        2, f"error: SyntaxError ({bad} is not UTF-8: bad byte at offset 15)\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_files_saved_with_crlf_or_cr_line_breaks_read_as_with_lf(tmp_path, capsys, newline):
    # Files are read as bytes and decoded as they are, with no newline
    # translation: the readers split lines at CRLF and at a lone CR too.
    texts = {name: open(fixture_path(name), encoding="utf-8").read()
             for name in ("trio_a.gm", "relabel.gmm", "relabel_src.gm", "relabel_tgt.gm")}
    texts["comment.gm"] = texts["trio_a.gm"].replace("\n", " # c\n", 3)  # the line reader's
    texts["bad.gm"] = texts["trio_a.gm"].replace("\nnode ", "\nnode (", 2)
    for folder, nl in (("lf", "\n"), ("other", newline)):
        (tmp_path / folder).mkdir()
        for name, text in texts.items():
            (tmp_path / folder / name).write_bytes(text.replace("\n", nl).encode("utf-8"))
    for *argv, name, code in (["validate", "trio_a.gm", 0], ["validate", "comment.gm", 0],
                              ["validate", "bad.gm", 2], ["morphism", "classify", "relabel.gmm", 0]):
        want = run(capsys, *argv, str(tmp_path / "lf" / name))
        assert want[0] == code and run(capsys, *argv, str(tmp_path / "other" / name)) == want


def _into_a_closed_output(argv, buffered):
    """(exit code, stderr) of `gamecat argv | (exec 0<&-; true)` in a
    subprocess: the reader is gone before the first line."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamecat.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "gamecat.cli", *argv], stdout=w,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    return done.returncode, done.stderr


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_a_closed_standard_output_ends_the_command_quietly(buffered):
    # The command writes nothing more, prints no traceback, and nothing at
    # exit, and ends with code 2.
    assert _into_a_closed_output(["validate", fixture_path("trio_a.gm")], buffered) == (2, b"")


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_help_into_a_closed_standard_output_ends_like_a_command(buffered):
    # argparse drops an OSError of its help write, which would end with
    # code 0 when unbuffered.
    for argv in (["--help"], ["validate", "-h"]):
        assert _into_a_closed_output(argv, buffered) == (2, b""), argv


class _ClosedPipe:
    """A standard output whose reader is gone: writing (or, buffered,
    flushing) raises BrokenPipeError."""

    def __init__(self, buffered):
        self.buffered, self.written = buffered, []

    def write(self, text):
        if not self.buffered:
            raise BrokenPipeError(32, "Broken pipe")
        self.written.append(text)

    def flush(self):
        if self.written:
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_main_returns_2_and_drops_a_closed_standard_output(monkeypatch, buffered):
    out = _ClosedPipe(buffered)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["validate", fixture_path("trio_a.gm")]) == 2
    assert sys.stdout is None  # so that nothing is flushed to it at exit
    # Buffered, the command ran to its end; unbuffered, its first line failed.
    assert len(out.written) == (10 if buffered else 0)


@pytest.mark.parametrize("argv", [["validate", "g.gm"], ["convert", "g.gm", "--to", "sequence"],
                                  ["--help"]], ids=["validate", "convert", "help"])
def test_a_standard_output_closed_at_start_ends_the_command_at_once(tmp_path, argv):
    # Python's sys.stdout is None when descriptor 1 is closed: the command
    # exits 2, prints nothing on stderr and writes no file.
    shutil.copy(fixture_path("trio_a.gm"), tmp_path / "g.gm")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamecat.__file__)))
    done = subprocess.run([sys.executable, "-m", "gamecat.cli", *argv], cwd=tmp_path,
                          stderr=subprocess.PIPE, env=env, timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (2, b"")
    assert os.listdir(tmp_path) == ["g.gm"]


def test_main_returns_2_when_standard_output_is_none(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "stdout", None)
    monkeypatch.chdir(tmp_path)
    shutil.copy(fixture_path("trio_a.gm"), "g.gm")
    assert main(["convert", "g.gm", "--to", "sequence"]) == 2
    assert main(["--help"]) == 2
    assert os.listdir(tmp_path) == ["g.gm"]


@pytest.mark.parametrize("fmt, sep", [("human", ": "), ("machine", " ")])
def test_a_written_path_that_ends_in_a_blank_prints_whole(tmp_path, capsys, monkeypatch,
                                                          fmt, sep):
    monkeypatch.chdir(tmp_path)
    shutil.copy(fixture_path("trio_a.gm"), "g.gm")
    for name in ("o.gmm ", " "):
        code, out = run(capsys, "--format", fmt, "iso", "g.gm", "g.gm", "--emit-morphism", name)
        assert code == 0 and out.endswith(f"\nmorphism_file{sep}{name}\n")
    assert sorted(os.listdir(tmp_path)) == [" ", "g.gm", "o.gmm "]
    # A line with no values prints only its key.
    _Report(fmt).line("key", "")
    assert capsys.readouterr().out == "key\n"


_NOT_UTF8 = "a" + os.fsdecode(b"\xff") + ".gm"  # the \xff byte read as a lone surrogate


@pytest.mark.parametrize("command", ["convert", "iso"])
def test_a_game_path_that_is_not_utf8_is_refused_before_any_output(tmp_path, capsys, command):
    # A certificate cannot name such a path: the command prints one coded
    # line and writes nothing, while validate, which names no path, reads it.
    game = str(tmp_path / _NOT_UTF8)
    shutil.copy(fixture_path("trio_a.gm"), game)
    argv, named = {"convert": (["--to", "sequence"], _NOT_UTF8),
                   "iso": ([game, "--emit-morphism", str(tmp_path / "o.gmm")], game)}[command]
    code, out = run(capsys, command, game, *argv)
    assert (code, out) == (2, f"error: SyntaxError ({named!r} is not UTF-8)\n")
    assert os.listdir(tmp_path) == [_NOT_UTF8]
    assert run(capsys, "validate", game)[0] == 0


def test_a_game_in_a_directory_that_is_not_utf8_converts(tmp_path, capsysbinary):
    # convert's certificate names only the games' base names. The paths it
    # prints are the OS's bytes, which the capture's strict UTF-8 could not
    # encode as text.
    (tmp_path / _NOT_UTF8).mkdir()
    game = str(tmp_path / _NOT_UTF8 / "g.gm")
    shutil.copy(fixture_path("trio_a.gm"), game)
    assert main(["convert", game, "--to", "sequence"]) == 0
    stem = os.fsencode(game[:-3])
    assert capsysbinary.readouterr().out == (b"game_file: %s.sequence.gm\n"
                                             b"morphism_file: %s.sequence.gmm\n" % (stem, stem))
    assert main(["morphism", "check", game[:-3] + ".sequence.gmm"]) == 0
    assert capsysbinary.readouterr().out.splitlines()[0] == b"verdict: valid"


@pytest.mark.parametrize("command", ["convert", "iso"])
def test_a_written_path_that_is_not_utf8_prints_as_its_bytes(tmp_path, command):
    # Under a strict error handler on standard output, the lines that name a
    # written file print the path's bytes as the OS gave them.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamecat.__file__)),
               PYTHONIOENCODING="utf-8:strict")
    os.mkdir(os.fsencode(tmp_path) + b"/d\xff")
    for game in (b"g.gm", b"d\xff/g.gm"):
        shutil.copy(fixture_path("trio_a.gm"), os.fsencode(tmp_path) + b"/" + game)
    argv, last = {"convert": ([b"d\xff/g.gm", "--to", "sequence"],
                              b"morphism_file: d\xff/g.sequence.gmm\n"),
                  "iso": (["g.gm", "g.gm", "--emit-morphism", b"o\xff.gmm"],
                          b"morphism_file: o\xff.gmm\n")}[command]
    done = subprocess.run([sys.executable, "-m", "gamecat.cli", command, *argv], cwd=tmp_path,
                          capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.endswith(last)
    if command == "convert":
        assert done.stdout == b"game_file: d\xff/g.sequence.gm\n" + last


@pytest.mark.parametrize("ref, name", [("source", '"a\\u0000b.gm"'), ("source", "a\x00b.gm"),
                                       ("target", '"a\\u0000b.gm"'), ("target", "a\x00b.gm")],
                         ids=["quoted", "raw", "quoted-target", "raw-target"])
def test_a_nul_in_a_file_name_is_a_syntax_error(tmp_path, capsys, ref, name):
    shutil.copy(fixture_path("trio_a.gm"), tmp_path / "g.gm")
    bad = tmp_path / "bad.gmm"
    refs = {"source": "g.gm", "target": "g.gm", ref: name}
    bad.write_text(f"morphism m\nsource {refs['source']}\ntarget {refs['target']}\nmap 0 -> 0\n",
                   encoding="utf-8")
    code, out = run(capsys, "--format", "machine", "morphism", "check", str(bad))
    assert code == 2
    path = os.path.join(str(tmp_path), "a\x00b.gm")
    assert out == f"error SyntaxError (cannot open {path!r}: embedded null byte)\n"


@pytest.mark.parametrize("action", ["check", "classify"])
def test_morphism_check_and_classify_take_exactly_one_file(capsys, action):
    gmm = fixture_path("collapse.gmm")
    for files in ([gmm, fixture_path("nonexistent.gmm")], [gmm, gmm]):
        code, out = run(capsys, "morphism", action, *files)
        assert code == 2
        assert out == f"error: SyntaxError ({action} needs one morphism file)\n"
    assert run(capsys, "morphism", action, gmm)[0] == 0


def test_morphism_compose_takes_two_files(capsys):
    code, out = run(capsys, "morphism", "compose", fixture_path("collapse.gmm"))
    assert code == 2
    assert out == "error: SyntaxError (compose needs two morphism files)\n"


def test_morphism_term_error_names_its_line(tmp_path, capsys):
    shutil.copy(fixture_path("trio_a.gm"), tmp_path / "g.gm")
    bad = tmp_path / "bad.gmm"
    bad.write_text("morphism m\nsource g.gm\ntarget g.gm\nmap (a -> b\n")
    code, out = run(capsys, "morphism", "check", str(bad))
    assert code == 2
    assert out == "error: SyntaxError (expected ',' or ')' at line 4)\n"
    bad.write_text("morphism m\nsource g.gm\ntarget g.gm\nmap 0 -> 0\n\nmap a -> \"b\n")
    code, out = run(capsys, "--format", "machine", "morphism", "check", str(bad))
    assert code == 2
    assert out == "error SyntaxError (unterminated quoted atom at line 6)\n"
    bad.write_text('morphism m\nsource ""\ntarget g.gm\nmap 0 -> 0\n')
    code, out = run(capsys, "morphism", "check", str(bad))
    assert code == 2
    assert out == "error: SyntaxError (empty quoted atom at line 2)\n"


def test_props_output(capsys):
    code, out = run(capsys, "props", fixture_path("trio_a.gm"))
    assert code == 0
    # One line per field of GameProperties, in field order.
    assert out == ("distinguished_actions: true\nuses_sequences: false\n"
                   "uses_action_sets: false\nno_absentmindedness: true\n"
                   "perfect_information: false\n")


def test_machine_format(capsys):
    code, out = run(capsys, "--format", "machine", "props",
                    fixture_path("trio_a.gm"))
    assert code == 0
    assert "distinguished_actions true" in out


def test_strategies_and_equilibria(capsys):
    code, out = run(capsys, "strategies", fixture_path("trio_a.gm"))
    assert code == 0
    assert out.count("strategy:") == 8
    code, out = run(capsys, "nash", fixture_path("trio_a.gm"))
    assert code == 0
    assert out.count("nash:") >= 1
    code, out = run(capsys, "spe", fixture_path("trio_a.gm"))
    assert code == 0
    assert out.count("spe:") >= 1


DRIVER3_LINES = {
    "strategies": [
        "strategy {0}=L {1,2,3}=C {7}=a outcome {0,1,10,2,3,7}",
        "strategy {0}=L {1,2,3}=C {7}=b outcome {0,1,11,2,3,7}",
        "strategy {0}=L {1,2,3}=E {7}=a outcome {0,1,4}",
        "strategy {0}=L {1,2,3}=E {7}=b outcome {0,1,4}",
        "strategy {0}=R {1,2,3}=C {7}=a outcome {0,9}",
        "strategy {0}=R {1,2,3}=C {7}=b outcome {0,9}",
        "strategy {0}=R {1,2,3}=E {7}=a outcome {0,9}",
        "strategy {0}=R {1,2,3}=E {7}=b outcome {0,9}",
    ],
    "nash": ["nash {0}=L {1,2,3}=C {7}=a", "nash {0}=R {1,2,3}=E {7}=a",
             "nash {0}=R {1,2,3}=E {7}=b"],
    "spe": ["spe {0}=L {1,2,3}=C {7}=a"],
}


@pytest.mark.parametrize("command", sorted(DRIVER3_LINES))
def test_strategy_lines_of_a_cell_met_three_times(tmp_path, capsys, command):
    path = tmp_path / "driver3.gm"
    path.write_text(gamecat.print_game("driver3", examplegames.driver3()))
    machine = DRIVER3_LINES[command]
    code, out = run(capsys, "--format", "machine", command, str(path))
    assert (code, out.splitlines()) == (0, machine)
    code, out = run(capsys, command, str(path))
    assert (code, out.splitlines()) == (0, [line.replace(" ", ": ", 1) for line in machine])


def test_equilibrium_lines_equal_the_library_on_random_games(tmp_path, capsys):
    # Every strategies, nash and spe line equals the line formatted here from
    # the library's records; every other game is renamed to quoted, tuple
    # and set names, and absent-minded cells are among the games.
    rng, absent_minded, quoted = random.Random(89), 0, 0
    for k in range(300):
        g = random_game(rng, max_nodes=9, max_players=3, max_actions=3)
        if k % 2:
            g, _ = gamecat.pushforward(g, *random_bijections(rng, g))
        absent_minded += not gamecat.properties(g).no_absentmindedness
        path = tmp_path / f"g{k}.gm"
        path.write_text(gamecat.print_game(f"g{k}", g), encoding="utf-8")

        def text(s):
            return " ".join(f"{gamecat.encode_set(cell)}={encode(a)}" for cell, a in s.choices)
        want = {"strategies": [f"strategy {text(s)} outcome {gamecat.encode_set(gamecat.outcome(g, s))}"
                               for s in gamecat.strategies(g)],
                "nash": [f"nash {text(s)}" for s in gamecat.nash(g)],
                "spe": [f"spe {text(s)}" for s in gamecat.spe(g)]}
        for command, lines in want.items():
            code, out = run(capsys, "--format", "machine", command, str(path))
            assert (code, out.splitlines()) == (0, lines), (k, command)
            quoted += sum('"' in line for line in lines)
    assert absent_minded > 30 and quoted > 500


@pytest.mark.parametrize("command", ["strategies", "nash", "spe"])
def test_strategy_cap_flag(capsys, command):
    game = fixture_path("trio_a.gm")  # 8 strategies
    code, out = run(capsys, "--max-strategies", "7", command, game)
    assert code == 1
    assert out.splitlines() == ["verdict: invalid", "error: StrategySpaceTooLarge (8)"]
    code, out = run(capsys, "--max-strategies", "8", command, game)
    assert code == 0
    assert "error" not in out


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", ["strategies", "nash", "spe"])
def test_a_strategy_cap_below_one_is_a_usage_error(capsys, command, cap):
    # Refused before the game is read: a missing game is not reported.
    for game in (fixture_path("trio_a.gm"), fixture_path("nope.gm")):
        code, out = run(capsys, "--max-strategies", cap, command, game)
        assert (code, out) == (2, f"error: SyntaxError (--max-strategies must be at least 1, "
                                  f"not {cap})\n")


def test_morphism_check_valid_shows_transformations(capsys):
    code, out = run(capsys, "morphism", "check", fixture_path("prefixed.gmm"))
    assert code == 0
    assert "verdict: valid" in out
    assert "zeta: {0,2} -> {10,12,50}" in out
    assert "zeta: {0,1} -> {10,11,50}" in out


def test_morphism_check_infoset_split(capsys):
    code, out = run(capsys, "morphism", "check", fixture_path("split.gmm"))
    assert code == 1
    assert "InfosetSplit {1,3}" in out


def test_morphism_check_action_transform_values(capsys):
    code, out = run(capsys, "morphism", "check", fixture_path("mixedalpha.gmm"))
    assert code == 1
    assert "ActionTransformNotConstant" in out
    assert "alpha: 3 b -> e" in out
    assert "alpha: 4 b -> f" in out


def test_morphism_check_no_player_transform(capsys):
    code, out = run(capsys, "morphism", "check", fixture_path("twomover.gmm"))
    assert code == 1
    assert "NoPlayerTransform" in out


def test_morphism_classify(capsys):
    code, out = run(capsys, "morphism", "classify", fixture_path("collapse.gmm"))
    assert code == 0
    assert "mono: true" in out
    assert "iso: false" in out
    assert "clt_mono_witness" in out
    assert "-> 41" in out and "| 42" in out


def test_morphism_compose(tmp_path, capsys):
    # compose the prefixed morphism with the identity on its target
    shutil.copy(fixture_path("prefixed_src.gm"), tmp_path / "prefixed_src.gm")
    shutil.copy(fixture_path("prefixed_tgt.gm"), tmp_path / "prefixed_tgt.gm")
    shutil.copy(fixture_path("prefixed.gmm"), tmp_path / "prefixed.gmm")
    _, tgt = parse_game_text(open(fixture_path("prefixed_tgt.gm")).read())
    from gamecat import print_morphism
    ident = print_morphism("id", "prefixed_tgt.gm", "prefixed_tgt.gm",
                           {x: x for x in tgt.tree.nodes})
    (tmp_path / "id.gmm").write_text(ident)
    code, out = run(capsys, "morphism", "compose",
                    str(tmp_path / "prefixed.gmm"), str(tmp_path / "id.gmm"))
    assert code == 0
    assert "map: 0 -> 10" in out
    assert "map: 2 -> 12" in out


def test_subgames_and_subgame(capsys):
    code, out = run(capsys, "subgames", fixture_path("nested.gm"))
    assert code == 0
    assert "subgame_root: 0" in out and "subgame_root: 24" in out
    code, out = run(capsys, "subgame", fixture_path("nested.gm"), "--at", "24")
    assert code == 0
    assert "nodes: 3" in out
    code, out = run(capsys, "subgame", fixture_path("nested.gm"), "--at", "11")
    assert code == 1
    assert "NotExists {11,12}" in out


def test_iso_command(capsys):
    code, out = run(capsys, "iso", fixture_path("trio_a.gm"),
                    fixture_path("trio_b.gm"))
    assert code == 0
    assert "verdict: isomorphic" in out
    code, out = run(capsys, "iso", fixture_path("trio_a.gm"),
                    fixture_path("nested.gm"))
    assert code == 1
    assert "verdict: not-isomorphic" in out


def test_iso_emit_morphism(tmp_path, capsys):
    out_path = tmp_path / "witness.gmm"
    code, out = run(capsys, "iso", fixture_path("trio_a.gm"),
                    fixture_path("trio_b.gm"), "--emit-morphism",
                    str(out_path))
    assert code == 0
    code, out = run(capsys, "morphism", "classify", str(out_path))
    assert code == 0
    assert "iso: true" in out


_EMIT = ["iso", fixture_path("trio_a.gm"), fixture_path("trio_b.gm"), "--emit-morphism"]
_OUTPUTS = ("g.sequence.gm", "g.sequence.gmm", "e.gmm")


def _write_outputs(capsys, work):
    """The bytes of _OUTPUTS after convert and iso --emit-morphism write them in work."""
    shutil.copy(fixture_path("trio_a.gm"), work / "g.gm")
    assert run(capsys, "convert", str(work / "g.gm"), "--to", "sequence")[0] == 0
    assert run(capsys, *_EMIT, str(work / "e.gmm"))[0] == 0
    return [(work / name).read_bytes() for name in _OUTPUTS]


@pytest.mark.parametrize("old", [b"x" * 100_000, b"y"], ids=["longer", "shorter"])
def test_outputs_are_overwritten_in_place(tmp_path, capsys, old):
    # An existing output keeps its inode, mode and hard links and holds
    # exactly the bytes a fresh write gives, whatever it held before.
    fresh, work = tmp_path / "fresh", tmp_path / "work"
    fresh.mkdir()
    work.mkdir()
    for name in _OUTPUTS:
        (work / name).write_bytes(old)
        (work / name).chmod(0o600)
        os.link(work / name, work / f"{name}.link")
    before = [os.stat(work / name) for name in _OUTPUTS]
    expected = _write_outputs(capsys, fresh)
    assert _write_outputs(capsys, work) == expected
    assert [(work / f"{name}.link").read_bytes() for name in _OUTPUTS] == expected
    after = [os.stat(work / name) for name in _OUTPUTS]
    assert [(s.st_ino, s.st_mode, s.st_nlink) for s in after] == \
        [(s.st_ino, s.st_mode, s.st_nlink) for s in before]


@pytest.mark.parametrize("old, cuts", [(b"x" * 100_000, [0]), (b"y", [])],
                         ids=["longer", "shorter"])
def test_only_a_longer_output_is_cut_and_before_the_write(tmp_path, capsys, monkeypatch, old,
                                                          cuts):
    # A longer output is cut to 0 before the new text goes in, as open(path,
    # "w") cuts it, so it is never the old text cut to the new length; a
    # shorter one is written over in place.
    out, seen, ftruncate = tmp_path / "e.gmm", [], os.ftruncate
    out.write_bytes(old)

    def record(fd, length):
        seen.append((length, out.read_bytes() == old))
        ftruncate(fd, length)

    monkeypatch.setattr(os, "ftruncate", record)
    assert run(capsys, *_EMIT, str(out))[0] == 0
    assert seen == [(length, True) for length in cuts]
    assert out.read_bytes().startswith(b"morphism ")


def test_outputs_are_written_through_symlinks(tmp_path, capsys):
    fresh, work, real = tmp_path / "fresh", tmp_path / "work", tmp_path / "real"
    for d in (fresh, work, real):
        d.mkdir()
    for name in _OUTPUTS:
        (real / name).write_text("x" * 10_000)
        (work / name).symlink_to(real / name)
    expected = _write_outputs(capsys, fresh)
    assert _write_outputs(capsys, work) == expected
    assert [(real / name).read_bytes() for name in _OUTPUTS] == expected
    assert [os.readlink(work / name) for name in _OUTPUTS] == [str(real / n) for n in _OUTPUTS]


def test_emit_morphism_to_dev_null(capsys):
    code, out = run(capsys, *_EMIT, os.devnull)
    assert code == 0
    assert out.splitlines()[0] == "verdict: isomorphic"
    assert out.splitlines()[-1] == f"morphism_file: {os.devnull}"


def test_a_fresh_output_gets_the_mode_open_gives(tmp_path, capsys):
    for mask in (0o022, 0o077, 0o002):
        old = os.umask(mask)
        try:
            with open(tmp_path / f"plain{mask}", "w") as fh:
                fh.write("x")
            out = tmp_path / f"e{mask}.gmm"
            code, _ = run(capsys, *_EMIT, str(out))
        finally:
            os.umask(old)
        assert code == 0
        assert os.stat(out).st_mode == os.stat(tmp_path / f"plain{mask}").st_mode


def test_an_output_in_a_missing_directory_is_a_file_error(tmp_path, capsys):
    out = str(tmp_path / "no" / "e.gmm")
    code, printed = run(capsys, *_EMIT, out)
    assert (code, printed) == (2, f"error: FileError (No such file or directory: {out!r})\n")


def test_a_nul_in_the_emitted_morphism_path_is_a_syntax_error(tmp_path, capsys):
    out = str(tmp_path / "x\0y")
    code, printed = run(capsys, *_EMIT, out)
    assert (code, printed) == (2, f"error: SyntaxError (cannot open {out!r}: embedded null byte)\n")
    assert os.listdir(tmp_path) == []


def test_convert_writes_verifiable_pair(tmp_path, capsys):
    for to in ["distinguished", "sequence", "action-set",
               "distinguished-sequence"]:
        work = tmp_path / to.replace("-", "_")
        work.mkdir()
        game_path = work / "trio_a.gm"
        shutil.copy(fixture_path("trio_a.gm"), game_path)
        code, out = run(capsys, "convert", str(game_path), "--to", to)
        assert code == 0
        out_game = work / f"trio_a.{to}.gm"
        out_morph = work / f"trio_a.{to}.gmm"
        assert out_game.exists() and out_morph.exists()
        # re-check the emitted certificate through the public API
        from gamecat import parse_morphism_text
        _, src_ref, tgt_ref, node_map = parse_morphism_text(
            out_morph.read_text())
        _, src = parse_game_text((work / src_ref).read_text())
        _, tgt = parse_game_text((work / tgt_ref).read_text())
        m = validate_game_morphism(src, tgt, node_map)
        assert is_iso(m)
        code, _ = run(capsys, "morphism", "check", str(out_morph))
        assert code == 0


def test_morphism_files_the_cli_writes_read_back_from_a_hash_directory(tmp_path, capsys):
    # iso writes absolute paths and convert the input's basename; a `#` in
    # either is written quoted, so it is not read back as a comment.
    work = tmp_path / "a#b"
    work.mkdir()
    shutil.copy(fixture_path("collapse_src.gm"), work / "collapse_src.gm")
    shutil.copy(fixture_path("collapse_src.gm"), work / "x#y.gm")
    game = str(work / "collapse_src.gm")
    emitted = str(work / "e.gmm")
    assert run(capsys, "iso", game, game, "--emit-morphism", emitted)[0] == 0
    assert f'source "{game}"' in open(emitted, encoding="utf-8").read()
    code, out = run(capsys, "morphism", "check", emitted)
    assert (code, out.splitlines()[0]) == (0, "verdict: valid")
    assert run(capsys, "convert", str(work / "x#y.gm"), "--to", "sequence")[0] == 0
    certificate = str(work / "x#y.sequence.gmm")
    assert 'source "x#y.gm"' in open(certificate, encoding="utf-8").read()
    code, out = run(capsys, "morphism", "classify", certificate)
    assert code == 0 and "iso: true" in out


_HASH_NODE_GAME = """game a"b
node r
node "x#y"
node e
node f
node z
edge r "x#y" a
edge r z b
edge "x#y" e c
edge "x#y" f d
infoset i0 { r }
infoset i1 { "x#y" }
player P infoset i0
player P infoset i1
utility P end e 1
utility P end f 0
utility P end z 0
"""


def test_iso_refuses_a_morphism_name_that_would_not_read_back(tmp_path, capsys):
    # `a"b.iso.c"#d"` would read back as `a"b.iso.c"`: nothing is printed
    # before the refusal and no file is written.
    a, c, out = tmp_path / "a.gm", tmp_path / "c.gm", tmp_path / "out.gmm"
    a.write_text(_HASH_NODE_GAME)
    c.write_text(_HASH_NODE_GAME.replace('game a"b', 'game c"#d"'))
    code, printed = run(capsys, "iso", str(a), str(c), "--emit-morphism", str(out))
    assert (code, printed) == (1, 'verdict: invalid\nerror: UnprintableName (a"b.iso.c"#d")\n')
    assert not out.exists()
    assert run(capsys, "iso", str(c), str(a), "--emit-morphism", str(out))[0] == 0
    assert gamecat.parse_morphism_text(out.read_text())[0] == 'c"#d".iso.a"b'


def test_subgame_refuses_a_game_name_that_would_not_read_back(tmp_path, capsys):
    s = tmp_path / "s.gm"
    s.write_text(_HASH_NODE_GAME)
    code, printed = run(capsys, "--format", "machine", "subgame", str(s), "--at", '"x#y"')
    assert (code, printed) == (1, 'verdict invalid\nerror UnprintableName (a"b.at."x#y")\n')
    assert sorted(os.listdir(tmp_path)) == ["s.gm"]


def test_convert_absentminded_fails_cleanly(capsys):
    code, out = run(capsys, "convert", fixture_path("split_tgt.gm"),
                    "--to", "action-set")
    assert code == 1
    assert "Absentminded" in out


def test_usage_error_exits_2(capsys):
    import contextlib, io
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["no-such-command"])
    assert code == 2


def test_parser_is_reused_across_calls_in_one_process(capsys):
    first = run(capsys, "--format", "machine", "nash", fixture_path("trio_a.gm"))
    assert first[0] == 0 and first[1]
    assert main(["nash"]) == 2  # missing argument: usage error
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert run(capsys, "--format", "machine", "nash", fixture_path("trio_a.gm")) == first
    # The default format is not left over from the earlier call.
    code, out = run(capsys, "nash", fixture_path("trio_a.gm"))
    assert code == 0 and out == first[1].replace("nash ", "nash: ")


def test_importing_the_cli_leaves_argparse_unloaded():
    """A gamecat process is spared argparse's import (about 3.6 ms)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamecat.__file__)))
    out = subprocess.run([sys.executable, "-c", "import sys, gamecat.cli; "
                          "print('argparse' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


# One command in a fresh interpreter: its output on stdout, then on stderr
# its exit code and the command modules that ran. A module not yet run is
# a lazy module, whose type is a subclass of ModuleType; type() reads no
# attribute of it, so the check runs nothing. Standard library only.
MODULES_RUN_SCRIPT = """\
import sys, types
import gamecat.cli
code = gamecat.cli.main(sys.argv[1:])
print(code, *[m for m in ("canon", "equilibrium", "morphism", "subgame")
              if type(sys.modules["gamecat." + m]) is types.ModuleType], file=sys.stderr)
"""


@pytest.mark.parametrize("argv, ran", [
    (["validate", "trio_a.gm"], ""),
    (["validate", "bad.gm"], ""),
    (["subgames", "trio_a.gm"], "subgame"),
    (["strategies", "trio_a.gm"], "equilibrium subgame"),
    (["nash", "trio_a.gm"], "equilibrium subgame"),
    (["spe", "trio_a.gm"], "equilibrium subgame"),
    (["props", "trio_a.gm"], "canon"),
    (["convert", "trio_a.gm", "--to", "action-set"], "canon morphism"),
    (["iso", "trio_a.gm", "trio_b.gm"], "morphism"),
    (["morphism", "classify", "relabel.gmm"], "morphism"),
    (["subgame", "trio_a.gm", "--at", "0"], "morphism subgame"),
], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_each_command_runs_only_the_modules_it_needs(tmp_path, capsys, argv, ran):
    for name in ("trio_a.gm", "trio_b.gm", "relabel.gmm", "relabel_src.gm", "relabel_tgt.gm"):
        shutil.copy(fixture_path(name), tmp_path)
    (tmp_path / "bad.gm").write_text("game b\nnode 0\n")
    argv = [str(tmp_path / w) if w.endswith((".gm", ".gmm")) else w for w in argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamecat.__file__)))
    done = subprocess.run([sys.executable, "-c", MODULES_RUN_SCRIPT, *argv],
                          env=env, capture_output=True, text=True, check=True)
    code, out = run(capsys, *argv)
    assert done.stderr.split() == [str(code), *ran.split()]
    assert done.stdout == out != ""


def test_a_validate_process_leaves_dataclasses_and_its_imports_unloaded():
    """The records are plain classes, so a process is spared dataclasses'
    import and the modules it pulls in."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamecat.__file__)))
    script = ("import sys, gamecat.cli; code = gamecat.cli.main(['validate', sys.argv[1]]); "
              "print(code, [m for m in ('dataclasses', 'inspect', 'ast', 'dis') "
              "if m in sys.modules], file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", script, fixture_path("trio_a.gm")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.startswith("game: trio_a\n") and done.stderr == "0 []\n"


@pytest.mark.parametrize("action", ["check", "classify"])
def test_identity_morphism_loads_its_game_once(tmp_path, capsys, monkeypatch, action):
    import gamecat.cli
    calls = []

    def counting_parse(text):
        calls.append(1)
        return parse_game_text(text)

    monkeypatch.setattr(gamecat.cli, "parse_game_text", counting_parse)
    shutil.copy(fixture_path("trio_a.gm"), tmp_path / "g.gm")
    shutil.copy(fixture_path("trio_a.gm"), tmp_path / "copy.gm")
    _, g = parse_game_text((tmp_path / "g.gm").read_text(encoding="utf-8"))
    maps = "".join(f"map {encode(x)} -> {encode(x)}\n" for x in sorted(g.tree.nodes))
    # A symlink to the source and a hard link to it are the source's file.
    (tmp_path / "link.gm").symlink_to("g.gm")
    os.link(tmp_path / "g.gm", tmp_path / "hard.gm")
    outs = []
    for name, target in [("id.gmm", "g.gm"), ("dot.gmm", "./g.gm"), ("copy.gmm", "copy.gm"),
                         ("link.gmm", "link.gm"), ("hard.gmm", "hard.gm")]:
        (tmp_path / name).write_text(f"morphism id\nsource g.gm\ntarget {target}\n{maps}",
                                     encoding="utf-8")
        calls.clear()
        outs.append(run(capsys, "--format", "machine", "morphism", action, str(tmp_path / name)))
        assert len(calls) == (2 if name == "copy.gmm" else 1)
    # One load or two, the same bytes.
    assert all(out == outs[0] for out in outs) and outs[0][0] == 0
    assert "verdict valid" in outs[0][1]
    # A missing target is reported by loading it, after the source.
    (tmp_path / "gone.gmm").write_text(f"morphism id\nsource g.gm\ntarget gone.gm\n{maps}",
                                       encoding="utf-8")
    calls.clear()
    assert run(capsys, "--format", "machine", "morphism", action, str(tmp_path / "gone.gmm")) == \
        (2, f"error FileError (No such file or directory: {str(tmp_path / 'gone.gm')!r})\n")
    assert len(calls) == 1


def test_validate_accepts_end_nodes_nested_2000_deep(tmp_path, capsys):
    x, y = ["(" * 2000 + name + ")" * 2000 for name in "ab"]
    game = tmp_path / "deep.gm"
    game.write_text(f"game deep\nnode r\nnode {x}\nnode {y}\nedge r {x} L\n"
                    f"edge r {y} R\ninfoset i {{ r }}\nplayer P infoset i\n"
                    f"utility P end {x} 1\nutility P end {y} 0\n", encoding="utf-8")
    code, out = run(capsys, "--format", "machine", "validate", str(game))
    assert code == 0
    assert out.splitlines()[1:] == ["nodes 3", "root r", "actions L R", "players P",
                                    f"run {{r,{x}}}", f"run {{r,{y}}}"]


# Runs every command that prints terms or term sets on every fixture, in
# one process, and prints what each printed and wrote.
_HASH_ORDER_SCRIPT = """
import contextlib, io, os, sys
from gamecat.cli import main

def call(*argv, wrote=()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    print(argv, code, out.getvalue())
    for path in wrote if code == 0 else ():
        with open(path, encoding="utf-8") as fh:
            print(path, fh.read())

for name in sorted(os.listdir(".")):
    stem, ext = os.path.splitext(name)
    if ext == ".gmm":
        call("morphism", "classify", name)
    elif ext == ".gm" and "." not in stem:
        for command in ("validate", "props", "subgames", "nash", "spe"):
            call(command, name)
        for to in ("distinguished", "sequence", "action-set", "distinguished-sequence"):
            call("convert", name, "--to", to, wrote=(f"{stem}.{to}.gm", f"{stem}.{to}.gmm"))
        call("iso", name, name)
"""


def test_output_does_not_depend_on_hash_order(tmp_path):
    # Terms hash by identity, so set order follows memory addresses and
    # string hashes: two processes under different hash seeds print alike.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gamecat.__file__)))
    procs = []
    for seed in ("0", "12345"):
        work = tmp_path / seed
        shutil.copytree(FIXTURES, work)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _HASH_ORDER_SCRIPT], cwd=work, text=True,
            env=dict(env, PYTHONHASHSEED=seed), stdout=subprocess.PIPE))
    outs = [p.communicate(timeout=300)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    games = [name for name in os.listdir(FIXTURES) if name.endswith(".gm")]
    assert outs[0] == outs[1] and outs[0].count("('convert'") == 4 * len(games)


def _binary_text(d):
    """binary(d): the full binary perfect-information tree of depth d, two
    players alternating by depth."""
    nodes, frontier, lines = ["r"], ["r"], ["game binary"]
    for _ in range(d):
        frontier = [x + bit for x in frontier for bit in "01"]
        nodes += frontier
    for k, x in enumerate(nodes):
        lines.append(f"node {x}")
        if len(x) <= d:
            lines += [f"edge {x} {x}0 L", f"edge {x} {x}1 R", f"infoset i{k} {{ {x} }}",
                      f"player P{(len(x) - 1) % 2 + 1} infoset i{k}"]
        else:
            lines += [f"utility P{i} end {x} {(k * i) % 5}" for i in (1, 2)]
    return "\n".join(lines) + "\n"


def _count_sorts(monkeypatch):
    """The term sorts made from here on, in every gamecat module: the set
    of each sort of terms, and None for each sort of pairs."""
    import gamecat.terms
    original, calls = gamecat.terms._sorted, []

    def counting_sorted(xs, **kwargs):
        xs = list(xs)
        calls.append(None if xs and type(xs[0]) is tuple else frozenset(xs))
        return original(xs, **kwargs)

    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("gamecat") and \
                getattr(module, "_sorted", None) is original:
            monkeypatch.setattr(module, "_sorted", counting_sorted)
    return calls


@pytest.mark.parametrize("to", ["distinguished", "sequence", "action-set",
                                "distinguished-sequence"])
def test_convert_sorts_each_node_set_at_most_once(tmp_path, capsys, monkeypatch, to):
    # Trees keep their nodes in term order, sorted at validation or
    # transport, and decision or end nodes in term order are read off them.
    path = tmp_path / "b.gm"
    path.write_text(_binary_text(7), encoding="utf-8")
    calls = _count_sorts(monkeypatch)
    assert run(capsys, "convert", str(path), "--to", to)[0] == 0
    monkeypatch.undo()
    trees = [parse_game_text(p.read_text(encoding="utf-8"))[1].tree
             for p in (path, tmp_path / f"b.{to}.gm")]
    assert len(trees[0].nodes) == 255 and len(calls) > 0
    for t in trees:
        # The distinguished form keeps the input's tree, so its one node set
        # is sorted once too.
        assert calls.count(t.nodes) == 1
        assert t.decision_nodes not in calls and t.end_nodes not in calls
    if to == "sequence":
        # Children, edges and utility lines are read off the sorted nodes.
        assert None not in calls


def test_load_and_print_sort_the_nodes_once_and_no_pairs(monkeypatch):
    text = _binary_text(7)
    calls = _count_sorts(monkeypatch)
    name, g = gamecat.parse_game_text(text)
    printed = gamecat.print_game(name, g)
    monkeypatch.undo()
    assert len(g.tree.nodes) == 255 and printed == gamecat.print_game(name, g)
    assert calls.count(g.tree.nodes) == 1 and None not in calls


@pytest.mark.parametrize("to", ["distinguished", "sequence", "action-set",
                                "distinguished-sequence"])
def test_convert_validates_only_its_input(tmp_path, capsys, monkeypatch, to):
    # The converted game and its certificate are built by transport: the
    # only validation is the input's, and no morphism is validated. Every
    # load ends in the cores that decide a tree and a game, whichever
    # reader it takes, so they are what is counted.
    cores = {"_out_tree": gamecat.tree, "_game": gamecat.game,
             "validate_game_morphism": gamecat.morphism}
    calls = dict.fromkeys(cores, 0)
    for name, home in cores.items():
        original = getattr(home, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("gamecat") and \
                    getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    path = tmp_path / "b.gm"
    path.write_text(_binary_text(7), encoding="utf-8")
    assert run(capsys, "convert", str(path), "--to", to)[0] == 0
    assert calls == {"_out_tree": 1, "_game": 1, "validate_game_morphism": 0}
