import importlib
import io
import os
import random
import subprocess
import sys

import pytest

from cantrans import CORE, TransducerError, core_of, fixtures, machine, \
    order_in_On, parse, serialize
from cantrans.cli import _write, main

from helpers import count_calls, fresh_parser_main, non_synchronizing_core

minimize_module = importlib.import_module("cantrans.minimize")


@pytest.fixture
def sample(tmp_path):
    p = tmp_path / "sample.ct"
    p.write_text(fixtures.SAMPLE_3_2)
    return str(p)


@pytest.fixture
def torsion(tmp_path):
    p = tmp_path / "torsion.ct"
    p.write_text(fixtures.TORSION_CORE_2)
    return str(p)


def test_validate(sample, capsys):
    assert main(["validate", sample]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_rejects(tmp_path, capsys):
    p = tmp_path / "bad.ct"
    p.write_text("cantor-transducer 1\nalphabet n=2 r=1\ninitial q0\n"
                 "q0 .0 -> s : -\ns 0 -> s : -\ns 1 -> s : 1\n")
    assert main(["validate", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_minimize_and_canon(sample, tmp_path, capsys):
    out = tmp_path / "min.ct"
    assert main(["minimize", sample, "-o", str(out)]) == 0
    assert main(["canon", sample]) == 0
    first = capsys.readouterr().out
    assert main(["canon", str(out)]) == 0
    assert capsys.readouterr().out == first


def test_eval(sample, capsys):
    assert main(["eval", sample, "--point", ".0 | 0"]) == 0
    assert capsys.readouterr().out.strip() == ".0 0 | 1"


def test_eval_core_needs_state(torsion, capsys):
    assert main(["eval", torsion, "--point", "- | 0", "--state", "a"]) == 0
    assert capsys.readouterr().out.strip() == "- | 0"


def test_compose_and_invert(sample, tmp_path, capsys):
    inv = tmp_path / "inv.ct"
    assert main(["invert", sample, "-o", str(inv)]) == 0
    both = tmp_path / "round.ct"
    assert main(["compose", sample, str(inv), "-o", str(both)]) == 0
    assert main(["member", str(both)]) == 0
    assert capsys.readouterr().out.strip() == "yes"


def test_sync_and_core(sample, tmp_path, capsys):
    assert main(["sync", sample]) == 0
    out = capsys.readouterr().out
    assert "level: 2" in out
    assert "q2" in out and "q3" in out and "q4" in out
    core = tmp_path / "core.ct"
    assert main(["core", sample, "-o", str(core)]) == 0
    assert parse(core.read_text()).mode == "core"


def test_member_no(sample, capsys):
    assert main(["member", sample]) == 1
    assert capsys.readouterr().out.strip() == "no"


def test_classify_line(sample, capsys):
    assert main(["classify", sample]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "G:n P:y L:y sync-level:2 core-states:3"


def test_order(torsion, capsys):
    assert main(["order", torsion, "--cap", "8"]) == 0
    assert capsys.readouterr().out.strip() == "finite 2"


def _order_documents():
    rng = random.Random(4)
    return {
        "torsion": (fixtures.TORSION_CORE_2, "5"),
        "balanced": (fixtures.BALANCED_CORE_2, "3"),
        "sample": (fixtures.SAMPLE_3_2, "8"),
        "not-synchronizing": (serialize(non_synchronizing_core(3, rng)), "8"),
    }


@pytest.mark.parametrize("name", list(_order_documents()))
def test_order_validates_its_input_once(name, tmp_path, monkeypatch,
                                        capsys):
    doc, cap = _order_documents()[name]
    path = tmp_path / "in.ct"
    path.write_text(doc)
    argv = ["order", str(path), "--cap", cap]
    seen = count_calls(monkeypatch, machine, "_stages")
    got = (main(argv), *capsys.readouterr())
    # the parsed document only: the power search's factors are valid, so
    # neither they nor their products run validate's stages again
    assert len(seen) == 1
    monkeypatch.undo()
    assert (fresh_parser_main(argv), *capsys.readouterr()) == got
    # the library's order search on the same core, validating it itself
    t = parse(doc)
    try:
        kind, k = order_in_On(t if t.mode == CORE else core_of(t), int(cap))
    except TransducerError as e:
        assert got == (2, "", f"error: {e}\n")
    else:
        assert got == (0, (kind if k is None else f"{kind} {k}") + "\n", "")


def test_outer_eq(sample, torsion, capsys, monkeypatch):
    assert main(["outer-eq", sample, sample]) == 0
    assert main(["outer-eq", torsion, torsion]) == 0
    capsys.readouterr()
    # the alphabets are compared before either machine is reduced
    reduced = count_calls(monkeypatch, minimize_module, "_reduce")
    assert main(["outer-eq", sample, torsion]) == 2
    assert capsys.readouterr().err == "error: alphabet mismatch\n"
    assert reduced == []


def test_make_prefix_map(tmp_path, capsys):
    mp = tmp_path / "map.txt"
    mp.write_text(".0 0 -> .1\n.0 1 -> .0 0\n.1 -> .0 1\n")
    out = tmp_path / "map.ct"
    assert main(["make-prefix-map", str(mp), "--n", "2", "--r", "2",
                 "-o", str(out)]) == 2  # r = n is out of range
    mp2 = tmp_path / "map2.txt"
    mp2.write_text(".0 0 -> .1\n.0 1 -> .2\n.1 -> .0 0\n.2 -> .0 1\n")
    assert main(["make-prefix-map", str(mp2), "--n", "3", "--r", "3",
                 "-o", str(out)]) == 2
    mp3 = tmp_path / "map3.txt"
    mp3.write_text(".0 -> .1\n.1 0 -> .0 0\n.1 1 -> .0 1\n.1 2 -> .0 2\n")
    assert main(["make-prefix-map", str(mp3), "--n", "3", "--r", "2",
                 "-o", str(out)]) == 0
    assert main(["member", str(out)]) == 0


def test_make_twist_and_random(tmp_path, capsys):
    tw = tmp_path / "twist.ct"
    assert main(["make-twist", "--n", "3", "--r", "1", "--perm", "1,2,0",
                 "-o", str(tw)]) == 0
    assert main(["eval", str(tw), "--point", ".0 | 0"]) == 0
    assert capsys.readouterr().out.strip() == ".0 | 1"

    r1 = tmp_path / "r1.ct"
    r2 = tmp_path / "r2.ct"
    for target in (r1, r2):
        assert main(["random", "--n", "2", "--r", "1", "--states", "3",
                     "--seed", "5", "-o", str(target)]) == 0
    assert r1.read_text() == r2.read_text()

    g = tmp_path / "g.ct"
    assert main(["random", "--n", "3", "--r", "2", "--gnr", "--seed", "9",
                 "-o", str(g)]) == 0
    assert main(["member", str(g)]) == 0


def test_random_synchronous_document(tmp_path):
    from cantrans.randgen import random_transducer
    from cantrans import Alphabet, serialize
    t = random_transducer(Alphabet(2, 1), 3, 1, 4, synchronous=True)
    doc = serialize(t)
    body = [ln for ln in doc.splitlines()
            if "->" in ln and not ln.startswith("q0 .")]
    assert all(ln.split(":")[1].strip() in ("0", "1") for ln in body)


def test_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.ct")
    assert main(["validate", missing]) == 2


def test_eval_depth_flag(sample, capsys):
    assert main(["eval", sample, "--point", ".0 | 0", "--depth", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ".0 0 | 1"
    assert out[1] == ".0 0 1 1 1 1"


def test_sync_reports_witness_on_failure(tmp_path, capsys):
    doc = """cantor-transducer 1
alphabet n=3 r=2
initial q0
q0 .0 -> id : .0
q0 .1 -> id2 : .1
id 0 -> id : 0
id 1 -> id : 1
id 2 -> id : 2
id2 0 -> id2 : 0
id2 1 -> id2 : 1
id2 2 -> id2 : 2
"""
    p = tmp_path / "par.ct"
    p.write_text(doc)
    assert main(["sync", str(p)]) == 1
    out = capsys.readouterr().out
    assert "not synchronizing" in out and "id" in out


def _exit_code(argv, run=main):
    """The exit code of run(argv), whether it returns it or argparse
    exits."""
    try:
        return run(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("argv", [
    ["make-twist", "--n", "3", "--r", "1", "--perm", "a,b"],
    ["random", "--n", "2", "--r", "1", "--states", "0"],
    ["random", "--n", "2", "--r", "1", "--max-out", "-1"],
    ["random", "--n", "2", "--r", "1", "--max-out", "0"],
    ["order", "TORSION", "--cap", "0"],
], ids=["perm-not-int", "states-0", "max-out-negative", "max-out-0",
        "cap-0"])
def test_bad_numbers_exit_2_without_traceback(argv, torsion, capsys):
    argv = [torsion if a == "TORSION" else a for a in argv]
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1


def test_rejection_budget_exits_2(monkeypatch, capsys):
    from cantrans import cli
    from cantrans.randgen import RejectionBudgetExceeded

    def exhausted(*_args):
        raise RejectionBudgetExceeded("no valid machine in 2000 draws")

    monkeypatch.setattr(cli, "random_transducer", exhausted)
    assert main(["random", "--n", "2", "--r", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: no valid machine")


def test_library_refuses_bad_numbers_with_typed_errors():
    from cantrans import Alphabet, TransducerError, order_in_On
    from cantrans.randgen import random_transducer
    with pytest.raises(TransducerError):
        order_in_On(fixtures.torsion_core_2(), cap=0)
    with pytest.raises(TransducerError):
        random_transducer(Alphabet(2, 1), 0, 2, 0)
    with pytest.raises(TransducerError):
        random_transducer(Alphabet(2, 1), 2, -1, 0)


def _sequence(sample, torsion, out):
    return [
        ["eval", sample, "--point", ".0 | 0", "--depth", "3"],
        ["eval", sample, "--point", ".0 | 0"],
        ["order", torsion, "--cap", "5"],
        ["order", torsion],
        ["order", torsion, "--cap", "1"],
        ["minimize", sample, "-o", out],
        ["minimize", sample],
        ["order", torsion, "--cap", "0"],
        ["classify", sample],
        ["eval", "--point", ".0 | 0"],
        ["member", sample],
        ["make-twist", "--n", "3", "--r", "1", "--perm", "1,2,0"],
    ]


def test_parser_is_built_once_and_keeps_no_state(sample, torsion, tmp_path,
                                                 monkeypatch, capsys):
    import argparse

    from cantrans import cli
    from helpers import fresh_parser_main

    progs = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        shared = []
        for argv in _sequence(sample, torsion, str(tmp_path / "a.ct")):
            code = _exit_code(argv)
            shared.append((code, *capsys.readouterr()))
        assert progs.count("cantrans") == 1
        assert len(progs) == len(set(progs)) == 16

        fresh = []
        for argv in _sequence(sample, torsion, str(tmp_path / "b.ct")):
            code = _exit_code(argv, fresh_parser_main)
            fresh.append((code, *capsys.readouterr()))
    finally:
        cli._parser.cache_clear()
    assert progs.count("cantrans") == 1 + len(fresh)
    assert shared == fresh
    assert [c for c, _, _ in shared] == [0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 1, 0]
    assert shared[0][1] != shared[1][1]
    assert shared[2][1] == shared[3][1] == "finite 2\n"
    assert shared[4][1] == "unknown\n"
    assert shared[5][1] == ""
    assert (tmp_path / "a.ct").read_text() == shared[6][1]
    assert (tmp_path / "b.ct").read_text() == shared[6][1]


LATIN_DOC = b"cantor-transducer 1\nalphabet n=2 core\n# caf\xe9\n"


def _stdin(monkeypatch, data):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("verb, data, where", [
    ("validate", LATIN_DOC, "line 3, column 6"),
    ("validate", b"\xff", "line 1, column 1"),
    ("make-prefix-map", b".0 -> .0\n.1 \xc3 -> .1\n", "line 2, column 4"),
], ids=["latin-1-comment", "first-byte", "prefix-map"])
def test_input_not_utf8_exits_2_without_traceback(verb, data, where, source,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    if source == "file":
        path = tmp_path / "latin.txt"
        path.write_bytes(data)
        arg, name = str(path), repr(str(path))
    else:
        _stdin(monkeypatch, data)
        arg, name = "-", "standard input"
    argv = [verb, arg] + (["--n", "2", "--r", "2"]
                          if verb == "make-prefix-map" else [])
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {where}: {name} is not UTF-8 text (")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_stdin_is_read_as_utf8(monkeypatch, capsys):
    doc = fixtures.TORSION_CORE_2.replace("\n", " # é\n", 1)
    _stdin(monkeypatch, doc.encode("utf-8"))
    assert main(["validate", "-"]) == 0
    assert capsys.readouterr().out == "valid: 4 states\n"
    # a text stream with no bytes underneath is read as text
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    assert main(["validate", "-"]) == 0


@pytest.mark.parametrize("verb", [
    "validate", "minimize", "canon", "eval", "compose", "invert", "sync",
    "core", "member", "classify", "order", "outer-eq"])
def test_empty_core_document_exits_2_without_traceback(verb, tmp_path,
                                                       capsys):
    path = tmp_path / "empty.ct"
    path.write_text("cantor-transducer 1\nalphabet n=2 core\n")
    argv = [verb, str(path)]
    if verb in ("compose", "outer-eq"):
        argv.append(str(path))
    if verb == "eval":
        argv += ["--point", "| 0", "--state", "q0"]
    assert _exit_code(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 0, column 0: invalid transducer: no states\n"


LONG = ["random", "--n", "3", "--r", "2", "--states", "30"]
SHORT = ["make-twist", "--n", "3", "--r", "1", "--perm", "1,2,0"]


def _stdout_of(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("first, second", [
    (LONG, SHORT), (SHORT, LONG), (LONG, LONG), (None, SHORT)],
    ids=["long-then-short", "short-then-long", "same-twice", "new-file"])
def test_output_file_holds_exactly_the_new_document(first, second, tmp_path,
                                                    capsys):
    path = tmp_path / "out.ct"
    if first is not None:
        assert main(first + ["-o", str(path)]) == 0
        assert path.read_bytes() == _stdout_of(first, capsys).encode("utf-8")
    assert main(second + ["-o", str(path)]) == 0
    assert path.read_bytes() == _stdout_of(second, capsys).encode("utf-8")


@pytest.mark.parametrize("old", ["x" * 5000, "é" * 40],
                         ids=["longer", "shorter"])
def test_write_overwrites_with_the_utf8_bytes(old, tmp_path):
    path = tmp_path / "doc.ct"
    path.write_text(old, encoding="utf-8")
    text = fixtures.TORSION_CORE_2.replace("a", "é")
    _write(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
def test_output_to_dev_null_exits_0(capsys):
    assert main(SHORT + ["-o", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_output_to_a_directory_exits_2_without_traceback(tmp_path, capsys):
    assert _exit_code(SHORT + ["-o", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(tmp_path) in err


def test_failed_write_leaves_a_prefix_of_the_new_document(tmp_path):
    """A write cut short (here by a file size limit) leaves no tail of the
    old, longer document behind the bytes it wrote."""
    pytest.importorskip("resource")
    path = tmp_path / "doc.ct"
    old = "#" * 8000 + "\n"
    path.write_text(old)
    limit = 3000
    script = (
        "import resource, sys\n"
        "from cantrans.cli import main\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
        "sys.exit(main(sys.argv[1:]))\n")
    argv = ["random", "--n", "3", "--r", "2", "--states", "200",
            "-o", str(path)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
    new = subprocess.run([sys.executable, "-m", "cantrans", *argv[:-2]],
                         env=env, capture_output=True, timeout=60).stdout
    assert len(new) > len(old) > limit
    assert path.read_bytes() == new[:limit]


def _dispatch_cases(sample, torsion, prefix_map):
    """Command lines for every verb, each verb's -h, and the lines the
    parsers refuse or read around: none, a top-level option, an unknown
    verb, a missing required argument or option, extra arguments, an
    abbreviated option and `--`."""
    verbs = [
        ["validate", sample],
        ["minimize", sample],
        ["canon", sample],
        ["eval", sample, "--point", ".0 | 0", "--depth", "3"],
        ["compose", sample, sample],
        ["invert", sample],
        ["sync", torsion],
        ["core", torsion],
        ["member", sample],
        ["classify", sample],
        ["order", torsion, "--cap", "4"],
        ["outer-eq", torsion, torsion],
        ["make-prefix-map", prefix_map, "--n", "2", "--r", "1"],
        ["make-twist", "--n", "3", "--r", "1", "--perm", "1,2,0"],
        ["random", "--n", "3", "--r", "2", "--seed", "4"],
    ]
    return [*verbs, *([argv[0], "-h"] for argv in verbs),
            [], ["-h"], ["--help"], ["-x"], ["nosuchverb"],
            ["nosuchverb", sample], ["validate"], ["eval", sample],
            ["make-twist", "--n", "3", "--r", "1"],
            ["member", sample, "--bogus"], ["member", sample, "x", "y"],
            ["order", torsion, "--cap"], ["order", torsion, "--cap", "x"],
            ["eval", sample, "--point", ".0 | 0", "--dep", "2"],
            ["member", "--", sample], ["member", sample, "--", "x"],
            ["--", "member", sample], ["member", "-h", sample]]


def test_verbs_dispatch_as_the_top_level_parser_does(sample, torsion,
                                                     tmp_path, monkeypatch,
                                                     capsys):
    """main sends a verb straight to its subparser: exit codes, stdout and
    stderr are byte for byte those of parse_args on a fresh top-level
    parser, and the top-level parser parses only the lines that do not
    start with a verb."""
    from cantrans import cli

    prefix_map = tmp_path / "pm.map"
    prefix_map.write_text(".0 0 -> .0 0 0\n.0 1 0 -> .0 0 1\n.0 1 1 -> .0 1\n")
    cases = _dispatch_cases(sample, torsion, str(prefix_map))
    top, verbs = cli._parser()
    parsed = []
    real = top.parse_known_args

    def counting(*args, **kwargs):
        parsed.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(top, "parse_known_args", counting)
    codes = []
    for argv in cases:
        del parsed[:]
        got = (_exit_code(argv), *capsys.readouterr())
        assert len(parsed) == (not argv or argv[0] not in verbs), argv
        want = (_exit_code(argv, fresh_parser_main), *capsys.readouterr())
        assert got == want, argv
        codes.append(got[0])
    assert set(codes) == {0, 1, 2}
    assert codes[:15] == [0] * 8 + [1] + [0] * 6
    assert codes[15:30] == [0] * 15
    code, out, err = _exit_code(["member", sample, "--bogus"]), \
        *capsys.readouterr()
    assert (code, out) == (2, "") and err.startswith("usage: cantrans ")
    assert err.endswith("\ncantrans: error: unrecognized arguments: --bogus\n")


def test_out_of_memory_exits_2_with_one_error_line(tmp_path):
    """A MemoryError is refused as the other errors are: order on
    BALANCED_CORE_2, whose core powers grow without bound, at the default
    cap under a 256 MiB address-space limit exits 2 with one error line
    and no traceback."""
    pytest.importorskip("resource")
    limit = 256 << 20
    script = (
        "import resource, sys\n"
        "from cantrans import fixtures\n"
        "from cantrans.cli import main\n"
        "open(sys.argv[1], 'w').write(fixtures.BALANCED_CORE_2)\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "sys.exit(main(['order', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script,
                          str(tmp_path / "b.ct")],
                         env=env, capture_output=True, text=True, timeout=20)
    assert (run.returncode, run.stdout, run.stderr) == \
        (2, "", "error: out of memory\n")
