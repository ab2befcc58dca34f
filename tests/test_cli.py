import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from artinhom.cli import COMMANDS, SYNTAX, main, parse_system_file, parse_word, read_args
from artinhom.errors import (
    BadDiagonal,
    ConflictingEntry,
    ParseError,
    UnknownGenerator,
    UsageError,
)
from conftest import (
    BraidClassMonoid,
    braid_class,
    build_parser,
    make_a3,
    make_b3,
    requested_format,
    signed_perm_of_word,
)

A2_TEXT = "gens: a b\nm a b 3\n"
A3_TEXT = "gens: a b c\nm a b 3\nm b c 3\n"
B3_TEXT = "gens: a b c\nm a b 4\nm b c 3\n"
AFFINE_A2_TEXT = "gens: a b c\nm a b 3\nm b c 3\nm a c 3\n"
D4_TEXT = "gens: a b c d\nm a b 3\nm b c 3\nm b d 3\n"
H3_TEXT = "gens: a b c\nm a b 5\nm b c 3\n"
# reduced words of the longest elements; (abc)^3 is w0 = -1 of B3
A3_DELTA = "acb" * 2
B3_DELTA = "abc" * 3
REPO = Path(__file__).resolve().parents[1]
USAGE_ERRORS = {
    "missing-argument": ["boundary2", "a"],
    "non-integer-option": ["matching-audit", "--max-len", "x"],
    "negative-max-len": ["matching-audit", "--max-len", "-2"],
    "negative-bound": ["lcm", "ab", "ba", "--bound", "-1"],
    "both-sides": ["gcd", "a", "b", "--left", "--right"],
}
# their messages, pinned here rather than read from argparse, whose
# wording may change between Python versions
USAGE_MESSAGES = {
    "missing-argument": "the following arguments are required: t",
    "non-integer-option": "argument --max-len: invalid int value: 'x'",
    "negative-max-len": "argument --max-len: -2 is negative; need an integer >= 0",
    "negative-bound": "argument --bound: -1 is negative; need an integer >= 0",
    "both-sides": "argument --right: not allowed with argument --left",
}


def child_env():
    """This process's environment, with src/ first on PYTHONPATH."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def run_child(argv, stdout=subprocess.PIPE, **kwargs):
    """Run Python on argv from the repository root, importing src/."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=REPO,
        env=child_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
        **kwargs,
    )


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.system"
    path.write_text(A2_TEXT)
    return str(path)


@pytest.fixture
def inf_file(tmp_path):
    path = tmp_path / "inf.system"
    path.write_text("gens: a b\nm a b inf\n")
    return str(path)


class TestParseSystemFile:
    def test_canonical_example(self):
        system = parse_system_file(A2_TEXT)
        assert system.gens == ("a", "b")
        assert system.m("a", "b") == 3

    def test_default_order(self):
        system = parse_system_file("gens: a b\n")
        assert system.m("a", "b") == 2

    def test_inf_token(self):
        system = parse_system_file("gens: a b\nm a b inf\n")
        assert system.m("a", "b") == math.inf

    def test_comments_and_blank_lines(self):
        system = parse_system_file("# header\n\ngens: a b  # trailing\nm a b 3\n")
        assert system.m("a", "b") == 3

    def test_conflicting_entry(self):
        with pytest.raises(ConflictingEntry):
            parse_system_file("gens: a b\nm a b 3\nm b a 4\n")
        with pytest.raises(ConflictingEntry):
            parse_system_file("gens: a b\nm a b 3\nm a b 3\n")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as info:
            parse_system_file("gens: a b\nm a b\n")
        assert info.value.line == 2
        with pytest.raises(ParseError):
            parse_system_file("m a b 3\n")
        with pytest.raises(ParseError):
            parse_system_file("gens: a b\nm a b x\n")

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            parse_system_file("gens: a b\nm a c 3\n")

    def test_diagonal_rejected(self):
        with pytest.raises(BadDiagonal):
            parse_system_file("gens: a b\nm a a 3\n")

    def test_multi_character_generators(self):
        system = parse_system_file("gens: s1 s2\nm s1 s2 4\n")
        assert system.m("s1", "s2") == 4


class TestParseWord:
    def test_bare_characters(self):
        system = parse_system_file(A2_TEXT)
        assert parse_word(system, "abab") == ("a", "b", "a", "b")
        assert parse_word(system, "e") == ()

    def test_dotted_names(self):
        system = parse_system_file("gens: s1 s2\n")
        assert parse_word(system, "s1.s2.s1") == ("s1", "s2", "s1")
        assert parse_word(system, "s1") == ("s1",)

    def test_unknown(self):
        system = parse_system_file(A2_TEXT)
        with pytest.raises(UnknownGenerator):
            parse_word(system, "abz")


class TestCommands:
    def test_delta(self, a2_file, capsys):
        assert main(["--system", a2_file, "delta", "a", "b"]) == 0
        assert capsys.readouterr().out == "delta{a b} = aba\n"

    def test_nf(self, a2_file, capsys):
        assert main(["--system", a2_file, "nf", "abab"]) == 0
        assert capsys.readouterr().out == "nf(abab) = {a b} {a}\n"

    def test_homology_free_case(self, inf_file, capsys):
        assert main(["--system", inf_file, "homology"]) == 0
        assert capsys.readouterr().out == "H_0 = Z\nH_1 = Z^2\n"

    def test_homology_verify(self, a2_file, capsys):
        assert main(["--system", a2_file, "homology", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "H_1 = Z" in out
        assert "agrees" in out

    def test_matching_audit(self, a2_file, capsys):
        assert main(["--system", a2_file, "matching-audit", "--max-len", "4"]) == 0
        assert "grade (4,1)" in capsys.readouterr().out

    def test_salvetti_stats(self, a2_file, capsys):
        assert main(["--system", a2_file, "salvetti-stats"]) == 0
        out = capsys.readouterr().out
        assert "census = (6, 12, 6)" in out
        assert "24 cell pair checks pass" in out

    def test_boundary2(self, a2_file, capsys):
        assert main(["--system", a2_file, "boundary2", "a", "b"]) == 0
        assert "match: True" in capsys.readouterr().out

    def test_homology_verify_trivial_system(self, tmp_path, capsys):
        path = tmp_path / "trivial.system"
        path.write_text("gens:\n")
        assert main(["--system", str(path), "homology", "--verify"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("H_0 = Z\n")
        assert "presentation H_1 agrees" in out

    def test_divides_and_gcd_and_lcm(self, a2_file, capsys):
        assert main(["--system", a2_file, "divides", "b", "aba"]) == 0
        assert "True" in capsys.readouterr().out
        assert main(["--system", a2_file, "divides", "--right", "ab", "a"]) == 0
        assert "False" in capsys.readouterr().out
        assert main(["--system", a2_file, "gcd", "ab", "aa"]) == 0
        assert "left gcd = a" in capsys.readouterr().out
        assert main(["--system", a2_file, "lcm", "a", "b"]) == 0
        assert "right lcm = aba" in capsys.readouterr().out

    def test_sf_and_morse_cells(self, a2_file, capsys):
        assert main(["--system", a2_file, "sf"]) == 0
        assert capsys.readouterr().out == "{}\n{a}\n{b}\n{a b}\n"
        assert main(["--system", a2_file, "morse-cells"]) == 0
        assert "census = (1, 2, 1)" in capsys.readouterr().out


class TestExitCodes:
    def test_domain_error_is_one(self, inf_file, capsys):
        assert main(["--system", inf_file, "delta", "a", "b"]) == 1
        assert "error" in capsys.readouterr().out

    def test_undecided_is_one(self, tmp_path, capsys):
        # the left letters a and b are of finite type, so only the bound
        # can stop the search
        path = tmp_path / "affine.system"
        path.write_text(AFFINE_A2_TEXT)
        code = main(
            ["--system", str(path), "--format", "jsonl", "lcm", "ab", "bc", "--bound", "6"]
        )
        assert code == 1
        record = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert record["record"] == "error"
        assert record["code"] == "undecided"

    def test_none_from_left_letters_is_success(self, inf_file, capsys):
        assert main(["--system", inf_file, "lcm", "ab", "ba"]) == 0
        assert capsys.readouterr().out == "right lcm = none\n"

    def test_none_result_is_success(self, inf_file, capsys):
        assert main(["--system", inf_file, "lcm", "a", "b"]) == 0
        assert "none" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    @pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "not-utf-8"])
    def test_missing_file_is_one(self, tmp_path, capsys, content, fmt):
        path = tmp_path / "a.system"
        if content is not None:
            path.write_bytes(content)
        assert main(["--system", str(path), "--format", fmt, "sf"]) == 1
        lines = capsys.readouterr().out.splitlines()
        if fmt == "text":
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            records = [json.loads(line) for line in lines]
            assert [r["record"] for r in records] == ["meta", "error"]
            assert records[-1]["code"] == "io-error"

    def test_bad_system_file_is_one(self, tmp_path, capsys):
        path = tmp_path / "bad.system"
        path.write_text("gens: a b\nm a b 1\n")
        assert main(["--system", str(path), "sf"]) == 1
        assert "error" in capsys.readouterr().out

    def test_boundary2_on_one_generator_is_one(self, a2_file, capsys):
        assert main(["--system", a2_file, "boundary2", "a", "a"]) == 1
        assert capsys.readouterr().out.startswith("error: ")

    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_is_one(self, a2_file, capsys, argv):
        assert main(["--system", a2_file, *argv]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert len(out.splitlines()) == 1

    @pytest.mark.parametrize("name", USAGE_ERRORS)
    def test_usage_error_messages(self, a2_file, capsys, name):
        assert main(["--system", a2_file, *USAGE_ERRORS[name]]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"error: {USAGE_MESSAGES[name]}\n"
        # the usage line of the command goes to stderr, as argparse wrote it
        (usage,) = captured.err.splitlines()
        assert usage.startswith(f"usage: artinhom {USAGE_ERRORS[name][0]} [-h]")

    @pytest.mark.parametrize("command", ["top-level", *COMMANDS])
    def test_help_is_zero(self, capsys, command):
        # no --system: help is read before the required options are checked
        argv = ["--help"] if command == "top-level" else [command, "--help"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: artinhom") and captured.err == ""
        if command == "top-level":
            for name, (_, line, _, _) in SYNTAX.items():
                assert f"  {name}" in captured.out and line in captured.out
        else:
            assert captured.out.startswith(f"usage: artinhom {command} [-h]")
            assert SYNTAX[command][1] in captured.out

    def test_audit_failure_is_two(self, a2_file, capsys, monkeypatch):
        from artinhom.errors import AuditFailure
        from artinhom.matching import BarMatching

        def sabotaged(self, length, edges=None):
            raise AuditFailure(f"length {length}: forced failure")

        monkeypatch.setattr(BarMatching, "audit_grade", sabotaged)
        assert main(["--system", a2_file, "matching-audit", "--max-len", "2"]) == 2
        assert "failure" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_out_of_memory_is_one(self, a2_file, capsys, monkeypatch, fmt):
        from artinhom import cli

        def exhausted(args, system, out):
            raise MemoryError

        monkeypatch.setitem(cli.COMMANDS, "homology", exhausted)
        assert main(["--system", a2_file, "--format", fmt, "homology"]) == 1
        captured = capsys.readouterr()
        # one stderr line naming MemoryError, for callers that classify a
        # run by it, and no traceback
        (line,) = captured.err.splitlines()
        assert "MemoryError" in line and "Traceback" not in captured.err
        if fmt == "jsonl":
            record = json.loads(captured.out.splitlines()[-1])
            assert record["record"] == "error" and record["code"] == "out-of-memory"
        else:
            assert captured.out == "error: out of memory\n"

    def test_a_wrong_core_fails_the_layer_check(self, a2_file, capsys, monkeypatch):
        # a fiber whose core loses all but one element passes for a cone
        from artinhom import bar

        real = bar.poset_core
        monkeypatch.setattr(
            bar, "poset_core", lambda elements, below: real(elements, below)[:1]
        )
        argv = ["--system", a2_file, "--format", "jsonl", "homology", "--verify"]
        assert main(argv) == 2
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        (verdict,) = [r for r in records if r["record"] == "verification"]
        assert verdict["h1_agrees"] and not verdict["grades_agree"]


class TestJsonLines:
    def test_records_are_json(self, a2_file, capsys):
        assert main(["--system", a2_file, "--format", "jsonl", "homology"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["record"] == "meta"
        assert [r["free_rank"] for r in records[1:]] == [1, 1, 0]

    def test_deterministic_output(self, a2_file, capsys):
        main(["--system", a2_file, "--format", "jsonl", "morse-cells"])
        first = capsys.readouterr().out
        main(["--system", a2_file, "--format", "jsonl", "morse-cells"])
        second = capsys.readouterr().out
        assert first == second

    def test_errors_have_codes(self, inf_file, capsys):
        main(["--system", inf_file, "--format", "jsonl", "delta", "a", "b"])
        record = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert record["record"] == "error"
        assert record["code"] == "infinite-type"

    def test_boundary2_on_one_generator_has_a_code(self, a2_file, capsys):
        argv = ["--system", a2_file, "--format", "jsonl", "boundary2", "a", "a"]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert record["record"] == "error"
        assert record["code"] == "bad-diagonal"

    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_has_a_code(self, a2_file, capsys, argv):
        assert main(["--system", a2_file, "--format", "jsonl", *argv]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["record"] for r in records] == ["meta", "error"]
        assert records[-1]["code"] == "usage"

    def test_usage_error_under_an_abbreviated_format_option(self, a2_file, capsys):
        # argparse takes --form for --format, and so does the error report
        assert main(["--system", a2_file, "--form", "jsonl", "boundary2", "a"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["record"] for r in records] == ["meta", "error"]
        assert records[-1]["code"] == "usage"


# Command lines that the reader and the argparse parser it replaced both
# accept; they must read the same value for every field.  The system path
# S is never opened.
ACCEPTED = [
    "--system S nf ab",
    "--system S nf -",
    "--system S nf -1",
    "--system S lcm ab ba --b 3",
    "--system S lcm --left ab ba --bound=0",
    "--system S lcm ab ba",
    "--system S lcm ab ba --left --left",
    "--system S gcd a",
    "--system S gcd aba bab --r",
    "--system S divides ab --right aba",
    "--system S divides --l ab aba",
    "--system S delta",
    "--system S delta a b",
    "--system S matching-audit --max-len=2 --max-len 1",
    "--system S matching-audit --max 3",
    "--system S matching-audit",
    "--system other --system S sf",
    "--system S --form jsonl morse-cells",
    "--system=S --fo=jsonl homology --verify",
    "--sys S --format jsonl --format text homology --v",
    "--format jsonl --system S salvetti-stats",
    "--system S boundary2 a b",
]
# Command lines that both refuse: exit 1 with one error, in the format the
# line asks for.
REFUSED = [
    *(" ".join(["--system S", *argv]) for argv in USAGE_ERRORS.values()),
    "--system S frob",
    "--format jsonl --system S frob",
    "sf",
    "--system S",
    "--system S --bogus sf",
    "--system S nf ab --bogus",
    "--system S nf -x",
    "--system S nf ab --verify",
    "--system S --verify homology",
    "--system S --max-len 2 matching-audit",
    "--system S --format xml sf",
    "--system S --format",
    "--system",
    "--system --format sf",
    "--system S matching-audit --max-len",
    "--system S matching-audit --max-len --verify",
    "--system S lcm ab --bound",
    "--system S lcm",
    "--system S gcd a b --right --left",
    "--system S divides a b c",
    "--system S homology --verify=x",
    "--system S nf --help=x",
    "--system S nf ab --format jsonl",
    "--system S nf ab --format=jsonl --format xml",
]


class TestReaderAgainstArgparse:
    @pytest.mark.parametrize("line", ACCEPTED)
    def test_accepted_lines_read_the_same_fields(self, line):
        argv = line.split()
        assert vars(read_args(argv)) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("line", REFUSED)
    def test_refused_lines_give_one_usage_error(self, line, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to fit
        argv = line.split()
        with pytest.raises(UsageError):
            build_parser().parse_args(argv)
        # the usage of the top level or of the command, as argparse chose
        # it; Python 3.13 wraps the top level's after its first line
        usage = capsys.readouterr().err.splitlines()[0]
        with pytest.raises(UsageError):
            read_args(argv)
        assert capsys.readouterr().err.splitlines()[0] == usage
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        if requested_format(argv) == "text":
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            records = [json.loads(line) for line in lines]
            assert [r["record"] for r in records] == ["meta", "error"]
            assert records[-1]["code"] == "usage"

    def test_format_after_the_command_still_sets_the_error_format(self, capsys):
        # --format is a top-level option, so after the command it is an
        # unknown one; the error record still comes in the format it names
        argv = "--system S nf ab --format jsonl".split()
        assert requested_format(argv) == "jsonl"
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert record["code"] == "usage" and "--format jsonl" in record["message"]

    def test_the_table_has_every_command(self):
        assert list(SYNTAX) == list(build_parser()._subparsers._group_actions[0].choices)

    def test_a_double_dash_ends_the_options(self):
        assert read_args("--system S nf -- ab".split()).word == "ab"
        assert read_args("--system S lcm ab -- --left".split()).words == ["ab", "--left"]

    def test_a_list_of_words_ends_at_the_next_option(self, capsys):
        # as argparse read it: a "+" argument takes one run of words, so a
        # word after an option that follows the list is not one of them
        with pytest.raises(UsageError, match="unrecognized arguments: ba"):
            read_args("--system S lcm ab --left ba".split())
        assert read_args("--system S lcm --left ab ba".split()).words == ["ab", "ba"]


def test_import_leaves_out_dataclasses_and_inspect():
    # both cost start-up time in every command and the package needs neither
    code = "import sys, artinhom.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = run_child(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_loads_only_the_package_and_the_standard_modules_it_names():
    # start-up is the import and the parse: the CLI may load nothing beyond
    # what these standard modules load themselves
    code = (
        "import sys\n"
        "import math, itertools, collections, typing\n"
        "before = set(sys.modules)\n"
        "import artinhom.cli\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "    if m != '__future__' and m.split('.')[0] != 'artinhom'))\n"
    )
    result = run_child(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_neither_import_nor_a_run_loads_argparse_gettext_or_locale(tmp_path):
    # argparse, and the gettext and locale modules it imports, would add
    # to the start-up of every process; the command line is read without
    path = tmp_path / "a3.system"
    path.write_text(A3_TEXT)
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "def loaded():\n"
        "    return sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before))\n"
        "import artinhom.cli as cli\n"
        "stages = [loaded()]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['--system', sys.argv[1], 'nf', 'abab']) == 0\n"
        "stages.append(loaded())\n"
        "print(json.dumps(stages))\n"
    )
    result = run_child(["-c", code, str(path)])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[], []]


def test_only_jsonl_output_loads_json(tmp_path):
    # a text report never calls json, so a text-mode process does not pay
    # for its import; a jsonl one does
    path = tmp_path / "a3.system"
    path.write_text(A3_TEXT)
    code = (
        "import contextlib, io, sys\n"
        "import artinhom.cli as cli\n"
        "loaded = []\n"
        "for fmt in ('text', 'jsonl'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['--system', sys.argv[1], '--format', fmt, 'nf', 'abab']) == 0\n"
        "    loaded.append('json' in sys.modules)\n"
        "print(loaded)\n"
    )
    result = run_child(["-c", code, str(path)])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[False, True]"


def test_each_command_loads_only_the_package_modules_it_uses(tmp_path):
    # the monoid arithmetic needs neither the collapse nor the Salvetti
    # layers, whose import every one of its processes would pay for
    path = tmp_path / "a3.system"
    path.write_text(A3_TEXT)
    commands = [
        ["nf", "abab"],
        ["divides", "ab", "aba"],
        ["lcm", "a", "b"],
        ["gcd", "aba", "bab"],
        ["delta", "a", "b"],
        ["sf"],
        ["salvetti-stats"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'artinhom')\n"
        "import artinhom.cli as cli\n"
        "stages = [loaded()]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['--system', sys.argv[2], *argv]) == 0, argv\n"
        "    stages.append(loaded())\n"
        "print(json.dumps(stages))\n"
    )
    result = run_child(["-c", code, json.dumps(commands), str(path)])
    assert result.returncode == 0, result.stderr
    stages = json.loads(result.stdout)
    base = ["artinhom", *(f"artinhom.{m}" for m in ("artin", "cli", "coxeter", "errors"))]
    assert stages[:-1] == [base] * len(commands)
    assert stages[-1] == sorted([*base, "artinhom.homology", "artinhom.salvetti"])


B2_TEXT = "gens: a b\nm a b 4\n"
# B2 `--format jsonl` records after the meta line, pinned as they were
# before the per-grade cell path was deleted
B2_GOLDEN = {
    "morse-cells": [
        '{"counts":[1,2,1],"record":"census"}',
        '{"cell":[],"dim":0,"length":0,"record":"essential-cell","subset":[]}',
        '{"cell":[["a"]],"dim":1,"length":1,"record":"essential-cell","subset":["a"]}',
        '{"cell":[["b"]],"dim":1,"length":1,"record":"essential-cell","subset":["b"]}',
        '{"cell":[["b","a","b"],["a"]],"dim":2,"length":4,"record":"essential-cell",'
        '"subset":["a","b"]}',
    ],
    "homology --verify": [
        '{"dim":0,"free_rank":1,"record":"homology","torsion":[]}',
        '{"dim":1,"free_rank":2,"record":"homology","torsion":[]}',
        '{"dim":2,"free_rank":1,"record":"homology","torsion":[]}',
        '{"grades_agree":true,"h1_agrees":true,"presentation_h1":[2,[]],'
        '"record":"verification"}',
    ],
    "matching-audit --max-len 4": [
        '{"cells":1,"edges":0,"essential":1,"grade":[0,0],"record":"grade-audit"}',
        '{"cells":2,"edges":0,"essential":2,"grade":[1,0],"record":"grade-audit"}',
        '{"cells":8,"edges":4,"essential":0,"grade":[2,1],"record":"grade-audit"}',
        '{"cells":32,"edges":16,"essential":0,"grade":[3,1],"record":"grade-audit"}',
        '{"cells":3,"edges":1,"essential":1,"grade":[4,0],"record":"grade-audit"}',
        '{"cells":124,"edges":62,"essential":0,"grade":[4,1],"record":"grade-audit"}',
    ],
    "nf abab": [
        '{"canonical":["a","b","a","b"],"parts":[["a","b"]],"record":"normal-form",'
        '"word":["a","b","a","b"]}',
    ],
    "lcm a b": [
        '{"lcm":["a","b","a","b"],"record":"lcm","side":"right","words":[["a"],["b"]]}',
    ],
    "gcd aba bab": [
        '{"gcd":[],"record":"gcd","side":"left","words":[["a","b","a"],["b","a","b"]]}',
    ],
    "divides ab aba": [
        '{"record":"divides","result":true,"side":"left","x":["a","b"],'
        '"y":["a","b","a"]}',
    ],
}


def jsonl_record(tmp_path, capsys, text, *argv):
    """The one record after the meta line of a jsonl run that exits 0."""
    path = tmp_path / "system"
    path.write_text(text)
    assert main(["--system", str(path), "--format", "jsonl", *argv]) == 0
    (line,) = capsys.readouterr().out.splitlines()[1:]
    return json.loads(line)


class TestMonoidReach:
    """Powers of the fundamental element past the reach of braid-class
    enumeration (Delta^3 on A3 has 251,080 words), each answer checked
    without the monoid arithmetic under test."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_b3_nf_of_delta_powers(self, tmp_path, capsys, k):
        record = jsonl_record(tmp_path, capsys, B3_TEXT, "nf", B3_DELTA * k)
        assert record["parts"] == [["a", "b", "c"]] * k
        canonical = record["canonical"]
        assert len(canonical) == 9 * k
        # w0 = -1 in the signed permutations, so Delta^k maps to (-1)^k
        sign = -1 if k % 2 else 1
        assert signed_perm_of_word(canonical) == (sign, 2 * sign, 3 * sign)

    def test_b3_simple_divides_delta_cubed(self, tmp_path, capsys):
        # cbc is squarefree, hence simple, hence a divisor of Delta
        assert all(
            w[i] != w[i + 1] for w in braid_class(make_b3(), "cbc") for i in range(2)
        )
        record = jsonl_record(tmp_path, capsys, B3_TEXT, "divides", "cbc", B3_DELTA * 3)
        assert record["result"] is True

    def test_a3_gcd_of_delta_powers(self, tmp_path, capsys):
        record = jsonl_record(
            tmp_path, capsys, A3_TEXT, "gcd", A3_DELTA * 3, A3_DELTA * 2
        )
        expected = BraidClassMonoid(make_a3()).canon(A3_DELTA * 2)
        assert tuple(record["gcd"]) == expected


class TestPosetReach:
    def test_d4_salvetti_stats(self, tmp_path, capsys):
        # every subset of D4, B3 and H3 has finite type, so dimension k holds
        # |W| * C(rank, k) cells, and the quotient one cell per subset:
        # |W(D4)| = 192, |W(B3)| = 48 and |W(H3)| = 120
        cases = {
            D4_TEXT: (3072, [192, 768, 1152, 768, 192], [1, 4, 6, 4, 1]),
            B3_TEXT: (384, [48, 144, 144, 48], [1, 3, 3, 1]),
            H3_TEXT: (960, [120, 360, 360, 120], [1, 3, 3, 1]),
        }
        path = tmp_path / "system"
        for text, (cells, census, quotient) in cases.items():
            path.write_text(text)
            argv = ["--system", str(path), "--format", "jsonl", "salvetti-stats"]
            assert main(argv) == 0
            out = capsys.readouterr().out
            records = [json.loads(line) for line in out.splitlines()[1:]]
            assert records == [
                {"record": "poset-census", "cells": cells, "census": census},
                {"record": "pair-checks", "checked": cells},
                {"record": "quotient-census", "counts": quotient},
            ], text


class TestVerifyReach:
    def test_b3_homology_verify(self, tmp_path, capsys):
        # every length layer up to max_len + 2 = 11, 29,996 fibers
        path = tmp_path / "b3.system"
        path.write_text(B3_TEXT)
        argv = ["--system", str(path), "--format", "jsonl", "homology", "--verify"]
        assert main(argv) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        (verdict,) = [r for r in records if r["record"] == "verification"]
        assert verdict["h1_agrees"] and verdict["grades_agree"]


# The A3 audit to length 6: cells per length 1, 3, 17, 94, 518, 2852 and
# 15701, the counts of ordered factorizations of the elements of each
# length, and 2 * edges + essential = cells in every grade.
A3_AUDIT_GOLDEN = [
    '{"cells":1,"edges":0,"essential":1,"grade":[0,0],"record":"grade-audit"}',
    '{"cells":3,"edges":0,"essential":3,"grade":[1,0],"record":"grade-audit"}',
    '{"cells":3,"edges":1,"essential":1,"grade":[2,0],"record":"grade-audit"}',
    '{"cells":14,"edges":7,"essential":0,"grade":[2,1],"record":"grade-audit"}',
    '{"cells":6,"edges":2,"essential":2,"grade":[3,0],"record":"grade-audit"}',
    '{"cells":88,"edges":44,"essential":0,"grade":[3,1],"record":"grade-audit"}',
    '{"cells":518,"edges":259,"essential":0,"grade":[4,1],"record":"grade-audit"}',
    '{"cells":2852,"edges":1426,"essential":0,"grade":[5,1],"record":"grade-audit"}',
    '{"cells":13,"edges":6,"essential":1,"grade":[6,0],"record":"grade-audit"}',
    '{"cells":15688,"edges":7844,"essential":0,"grade":[6,1],"record":"grade-audit"}',
]


class TestGoldenOutput:
    @pytest.mark.parametrize("command", B2_GOLDEN, ids=B2_GOLDEN)
    def test_b2_records(self, tmp_path, capsys, command):
        path = tmp_path / "b2.system"
        path.write_text(B2_TEXT)
        argv = ["--system", str(path), "--format", "jsonl", *command.split()]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1:] == B2_GOLDEN[command]

    def test_a3_audit_records(self, tmp_path, capsys):
        path = tmp_path / "a3.system"
        path.write_text(A3_TEXT)
        argv = ["--system", str(path), "--format", "jsonl", "matching-audit", "--max-len", "6"]
        assert main(argv) == 0
        records = capsys.readouterr().out.splitlines()[1:]
        assert records == A3_AUDIT_GOLDEN
        per_length = [0] * 7
        for record in map(json.loads, records):
            per_length[record["grade"][0]] += record["cells"]
        assert per_length == [1, 3, 17, 94, 518, 2852, 15701]


class TestChildProcesses:
    def test_a3_verify_fits_in_512_mb(self, tmp_path):
        path = tmp_path / "a3.system"
        path.write_text("gens: a b c\nm a b 3\nm b c 3\n")
        limit = 512 * 2**20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        argv = ["--system", str(path), "--format", "jsonl", "homology", "--verify"]
        result = run_child(
            ["-m", "artinhom.cli", *argv], preexec_fn=cap_address_space
        )
        assert result.returncode == 0, result.stderr
        records = [json.loads(line) for line in result.stdout.splitlines()]
        groups = [
            (r["free_rank"], r["torsion"]) for r in records if r["record"] == "homology"
        ]
        # H_*(Br_4) = Z, Z, Z/2, 0 (Arnold 1970)
        assert groups == [(1, []), (1, []), (0, [2]), (0, [])]
        (verdict,) = [r for r in records if r["record"] == "verification"]
        assert verdict["h1_agrees"] and verdict["grades_agree"]

    @pytest.mark.parametrize(
        "text, command, spans",
        [
            (
                A2_TEXT,
                ["homology", "--verify"],
                {
                    "cli.main",
                    "homology.invariant_factors",
                    "bar.fiber_complex",
                    "homology.interval_complex",
                },
            ),
            (
                "gens: a b\nm a b 5\n",
                ["salvetti-stats"],
                {
                    "cli.main",
                    "salvetti.down_set",
                    "salvetti.cell_pair_check",
                    "homology.interval_complex",
                },
            ),
        ],
        ids=["A2-homology-verify", "I25-salvetti-stats"],
    )
    def test_benchmark_tracer_runs_verify(self, tmp_path, text, command, spans):
        path = tmp_path / "system"
        path.write_text(text)
        trace = tmp_path / "trace.json"
        argv = ["--system", str(path), "--format", "jsonl", *command]
        result = run_child(["perfbench/tracer.py", str(trace), "--", *argv])
        assert result.returncode == 0, result.stderr
        names = {name for _, name, _, _ in json.loads(trace.read_text())["nodes"]}
        assert spans <= names

    @pytest.mark.parametrize(
        "command",
        [["matching-audit", "--max-len", "6"], ["homology", "--verify"]],
        ids=["matching-audit", "homology-verify"],
    )
    def test_the_module_entry_prints_what_main_prints(self, tmp_path, capsys, command):
        path = tmp_path / "a3.system"
        path.write_text(A3_TEXT)
        argv = ["--system", str(path), "--format", "jsonl", *command]
        assert main(argv) == 0
        result = run_child(["-m", "artinhom.cli", *argv])
        assert result.returncode == 0, result.stderr
        assert result.stdout == capsys.readouterr().out
        assert result.stderr == ""

    def test_the_module_entry_reports_a_missing_file(self, tmp_path):
        argv = ["--system", str(tmp_path / "missing"), "--format", "jsonl", "nf", "ab"]
        result = run_child(["-m", "artinhom.cli", *argv])
        assert result.returncode == 1, result.stderr
        record = json.loads(result.stdout.splitlines()[-1])
        assert record["record"] == "error" and record["code"] == "io-error"

    def test_an_audit_failure_exits_two_without_teardown(self, a2_file):
        # the atexit handler would print only if teardown ran
        code = (
            "import atexit, runpy, sys\n"
            "from artinhom.errors import AuditFailure\n"
            "from artinhom.matching import BarMatching\n"
            "def sabotaged(self, length, edges=None):\n"
            "    raise AuditFailure(f'length {length}: forced failure')\n"
            "BarMatching.audit_grade = sabotaged\n"
            "atexit.register(print, 'teardown', file=sys.stderr)\n"
            "sys.argv = ['artinhom', *sys.argv[1:]]\n"
            "runpy.run_module('artinhom.cli', run_name='__main__')\n"
        )
        argv = ["--system", a2_file, "matching-audit", "--max-len", "2"]
        result = run_child(["-c", code, *argv])
        assert result.returncode == 2, result.stderr
        assert "forced failure" in result.stdout
        assert "teardown" not in result.stderr

    def test_a_profiled_run_writes_its_stats(self, a2_file, tmp_path):
        # cProfile writes its file after the module returns, so the entry
        # point must exit normally under it
        stats = tmp_path / "nf.prof"
        argv = ["--system", a2_file, "nf", "abab"]
        result = run_child(["-m", "cProfile", "-o", str(stats), "-m", "artinhom.cli", *argv])
        assert result.returncode == 0, result.stderr
        assert result.stdout == "nf(abab) = {a b} {a}\n"
        assert stats.stat().st_size > 0

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_a_closed_pipe_ends_in_one_line(self, tmp_path, unbuffered):
        # unbuffered, the first record's write fails; buffered, the flush
        # before the hard exit does
        path = tmp_path / "a3.system"
        path.write_text(A3_TEXT)
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = ["--system", str(path), "--format", "jsonl", "matching-audit", "--max-len", "6"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "artinhom.cli", *argv],
            cwd=REPO,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()  # before the child, still starting up, writes
        stderr = proc.stderr.read()
        assert proc.wait(timeout=600) == 1
        (line,) = stderr.splitlines()
        assert "Broken pipe" in line and "Traceback" not in stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_device_ends_in_one_line(self, a2_file):
        with open("/dev/full", "w") as full:
            result = run_child(["-m", "artinhom.cli", "--system", a2_file, "homology"], stdout=full)
        assert result.returncode == 1
        (line,) = result.stderr.splitlines()
        assert "No space left" in line and "Traceback" not in result.stderr
