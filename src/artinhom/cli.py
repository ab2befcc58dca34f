"""Batch front door: parse a system file, run one command, emit a
report as text or json-lines.

System file grammar::

    # comment
    gens: a b c          # order fixes ShortLex and the matching order
    m a b 3              # integer >= 2 or the token inf; default is 2

Words on the command line are generator names joined by ``.`` (or
commas); when every generator is a single character a bare string like
``abab`` also works.

Exit codes: 0 success, 1 domain, usage, output or out-of-memory error,
2 audit or verification failure.

Every process pays for the imports at the top of this module, so they are
only what every command needs: `coxeter`, `artin` and `errors`.  `json`
is imported only where `Reporter` writes a `--format jsonl` record.
A command that needs a further layer (`bar`, `matching`, `morse`,
`homology`, `salvetti`) imports it inside its own function.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace
from typing import Iterable, NoReturn

from . import __version__
from .artin import ArtinMonoid
from .coxeter import CoxeterSystem, Word
from .errors import (
    ConflictingEntry, DomainError, ParseError, UnknownGenerator, UsageError, VerificationError
)


def parse_system_file(text: str) -> CoxeterSystem:
    """Parse the file grammar above into a validated system."""
    gens: list[str] | None = None
    orders: dict[tuple[str, str], int | float] = {}
    claimed: set[frozenset[str]] = set()
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if gens is not None:
                raise ParseError("second gens line", line=number)
            gens = line[len("gens:") :].split()
            continue
        parts = line.split()
        if parts[0] != "m" or len(parts) != 4:
            raise ParseError(f"expected 'm s t value', got {line!r}", line=number)
        if gens is None:
            raise ParseError("m line before gens line", line=number)
        _, s, t, value = parts
        if s not in gens or t not in gens:
            raise UnknownGenerator(f"line {number}: unknown generator in {line!r}")
        if value == "inf":
            m: int | float = math.inf
        else:
            try:
                m = int(value)
            except ValueError:
                raise ParseError(f"bad order {value!r}", line=number) from None
        pair = frozenset((s, t))
        if pair in claimed:
            raise ConflictingEntry(f"m given twice for {s}, {t}", line=number)
        claimed.add(pair)
        orders[(s, t)] = m
    if gens is None:
        raise ParseError("missing gens line", line=1)
    return CoxeterSystem(gens, orders)


def parse_word(system: CoxeterSystem, text: str) -> Word:
    """A word argument: dotted/comma-separated names, or bare characters."""
    if text in system.gens:
        return (text,)
    if text in ("", "e", "1"):
        return ()
    for separator in (".", ","):
        if separator in text:
            return system.check_word(tuple(filter(None, text.split(separator))))
    return system.check_word(tuple(text))


def word_str(system: CoxeterSystem, word: Iterable[str]) -> str:
    word = tuple(word)
    if not word:
        return "e"
    return ("" if all(len(s) == 1 for s in system.gens) else ".").join(word)


def subset_str(system: CoxeterSystem, T: Iterable[str]) -> str:
    return "{" + " ".join(system.sorted_subset(T)) + "}"


def signed_word_str(word) -> str:
    return " ".join(g if sign > 0 else f"{g}^-1" for sign, g in word)


class Reporter:
    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        if fmt == "jsonl":
            self.emit_record({"record": "meta", "version": __version__})

    def emit(self, text: str, **record):
        if self.fmt == "jsonl":
            self.emit_record(record)
        else:
            print(text, file=self.stream)

    def error(self, err: Exception, code: str | None = None, label: str = "error"):
        self.emit(f"{label}: {err}", record="error", code=code or err.code, message=str(err))

    def emit_record(self, record):
        import json
        print(json.dumps(record, sort_keys=True, separators=(",", ":")), file=self.stream)


def cmd_nf(args, system, out):
    mon = ArtinMonoid(system)
    word = parse_word(system, args.word)
    parts = mon.normal_form(word)
    out.emit(
        f"nf({word_str(system, word)}) = "
        + (" ".join(subset_str(system, T) for T in parts) if parts else "()"),
        record="normal-form",
        word=list(word),
        parts=[sorted(T, key=system.index) for T in parts],
        canonical=list(mon.canon(word)),
    )
    return 0


def cmd_delta(args, system, out):
    mon = ArtinMonoid(system)
    T = system.check_subset(args.generators)
    delta = mon.delta(T)
    out.emit(
        f"delta{subset_str(system, T)} = {word_str(system, delta)}",
        record="delta",
        subset=sorted(T, key=system.index),
        delta=list(delta),
    )
    return 0


def cmd_lcm(args, system, out):
    mon = ArtinMonoid(system)
    words = [parse_word(system, w) for w in args.words]
    side = "left" if args.left else "right"
    compute = mon.left_lcm if args.left else mon.right_lcm
    result = compute(words, bound=args.bound)
    shown = "none" if result is None else word_str(system, result)
    out.emit(
        f"{side} lcm = {shown}",
        record="lcm",
        side=side,
        words=[list(w) for w in words],
        lcm=None if result is None else list(result),
    )
    return 0


def cmd_gcd(args, system, out):
    mon = ArtinMonoid(system)
    words = [parse_word(system, w) for w in args.words]
    side = "right" if args.right else "left"
    compute = mon.right_gcd if args.right else mon.left_gcd
    result = compute(words)
    out.emit(
        f"{side} gcd = {word_str(system, result)}",
        record="gcd",
        side=side,
        words=[list(w) for w in words],
        gcd=list(result),
    )
    return 0


def cmd_divides(args, system, out):
    mon = ArtinMonoid(system)
    x, y = parse_word(system, args.x), parse_word(system, args.y)
    side = "right" if args.right else "left"
    test = mon.right_divides if args.right else mon.left_divides
    result = test(x, y)
    out.emit(
        f"{word_str(system, x)} {side}-divides {word_str(system, y)}: {result}",
        record="divides",
        side=side,
        x=list(x),
        y=list(y),
        result=result,
    )
    return 0


def cmd_sf(args, system, out):
    for T in system.sf():
        subset = sorted(T, key=system.index)
        out.emit(subset_str(system, T), record="finite-type-subset", subset=subset)
    return 0


def cmd_morse_cells(args, system, out):
    from .bar import cell_length
    from .matching import BarMatching
    from .morse import reduced_complex

    complex_ = reduced_complex(BarMatching(ArtinMonoid(system)))
    out.emit(
        f"census = {complex_.census()}",
        record="census",
        counts=list(complex_.census()),
    )
    for dim, cells in enumerate(complex_.cells_by_dim):
        for T in cells:
            cell = complex_.essential[T]
            out.emit(
                f"dim {dim}: e{subset_str(system, T)} "
                f"= [{('|'.join(word_str(system, x) for x in cell)) or ' '}] "
                f"(length {cell_length(cell)})",
                record="essential-cell",
                dim=dim,
                subset=sorted(T, key=system.index),
                cell=[list(x) for x in cell],
                length=cell_length(cell),
            )
    return 0


def cmd_homology(args, system, out):
    from .bar import cell_length, layer_homology
    from .homology import HomologyGroup, abelianized_presentation_h1
    from .matching import BarMatching
    from .morse import reduced_complex

    mon = ArtinMonoid(system)
    reduced = reduced_complex(BarMatching(mon))
    groups = reduced.chain_complex().homology()
    for k, h in enumerate(groups):
        out.emit(
            f"H_{k} = {h}",
            record="homology",
            dim=k,
            free_rank=h.free_rank,
            torsion=list(h.torsion),
        )
    if not args.verify:
        return 0
    oracle = abelianized_presentation_h1(system)
    h1 = groups[1] if len(groups) > 1 else HomologyGroup(0)
    ok_h1 = h1 == oracle
    max_len = max((len(mon.delta(T)) for T in system.sf() if T), default=0)
    # essential cells per (length, dimension)
    expected: dict[tuple[int, int], int] = {}
    for T, cell in reduced.essential.items():
        key = (cell_length(cell), len(T))
        expected[key] = expected.get(key, 0) + 1
    per_grade_ok = True
    for n in range(max_len + 3):
        layer = layer_homology(mon, n)
        got = tuple((h.free_rank, h.torsion) for h in layer)
        want = tuple((expected.get((n, k), 0), ()) for k in range(len(layer)))
        if got != want:
            per_grade_ok = False
    out.emit(
        f"verify: presentation H_1 {'agrees' if ok_h1 else 'DISAGREES'}; "
        f"per-grade layers {'agree' if per_grade_ok else 'DISAGREE'}",
        record="verification",
        presentation_h1=[oracle.free_rank, list(oracle.torsion)],
        h1_agrees=ok_h1,
        grades_agree=per_grade_ok,
    )
    return 0 if ok_h1 and per_grade_ok else 2


def cmd_matching_audit(args, system, out):
    from .matching import BarMatching

    matching = BarMatching(ArtinMonoid(system))
    for length in range(args.max_len + 1):
        for report in matching.audit_grade(length).grades:
            if report.cells == 0:
                continue
            flag = report.grade[1]
            out.emit(
                f"grade ({length},{flag}): {report.cells} cells, "
                f"{report.edges} edges, "
                f"{len(report.essential)} essential: ok",
                record="grade-audit",
                grade=[length, flag],
                cells=report.cells,
                edges=report.edges,
                essential=len(report.essential),
            )
    return 0


def cmd_salvetti_stats(args, system, out):
    from .salvetti import SalvettiPoset, cell_pair_check, quotient_census

    poset = SalvettiPoset(system)
    census = poset.census()
    out.emit(
        f"poset cells = {len(poset.cells)}, census = {census}",
        record="poset-census",
        cells=len(poset.cells),
        census=list(census),
    )
    for cell in poset.cells:
        cell_pair_check(poset, cell)
    checked = len(poset.cells)
    out.emit(f"all {checked} cell pair checks pass", record="pair-checks", checked=checked)
    quotient = quotient_census(system)
    out.emit(f"quotient census = {quotient}", record="quotient-census", counts=list(quotient))
    return 0


def cmd_boundary2(args, system, out):
    from .matching import BarMatching
    from .morse import boundary_word_2cell, braid_relator_word, cyclic_words_equal
    from .salvetti import polygon_boundary_word

    matching = BarMatching(ArtinMonoid(system))
    s, t = args.s, args.t
    word = boundary_word_2cell(matching, s, t)
    m = system.m(s, t)
    reference = braid_relator_word(s, t, m)
    agrees = cyclic_words_equal(word, reference)
    polygon = polygon_boundary_word(system, s, t)
    polygon_agrees = cyclic_words_equal(word, polygon)
    out.emit(
        f"attaching word = {signed_word_str(word)}\n"
        f"dihedral relator = {signed_word_str(reference)} (match: {agrees})\n"
        f"polygon relator = {signed_word_str(polygon)} (match: {polygon_agrees})",
        record="boundary-word",
        s=s,
        t=t,
        m="inf" if m == math.inf else m,
        word=[[sign, g] for sign, g in word],
        matches_relator=agrees,
        matches_polygon=polygon_agrees,
    )
    return 0 if agrees and polygon_agrees else 2


# Each command's function, help line, arguments (a name ending in "*"
# takes any number of them, in "+" at least one) and options with their
# defaults: a flag's is False, and any other option takes an integer >= 0.
SIDE = {"--left": False, "--right": False}
SYNTAX = {
    "nf": (cmd_nf, "Garside normal form of a positive word", ["word"], {}),
    "delta": (cmd_delta, "fundamental element of a subset", ["generators*"], {}),
    "lcm": (cmd_lcm, "least common multiple", ["words+"], {**SIDE, "--bound": None}),
    "gcd": (cmd_gcd, "greatest common divisor", ["words+"], SIDE),
    "divides": (cmd_divides, "divisibility test", ["x", "y"], SIDE),
    "sf": (cmd_sf, "list the finite-type subsets", [], {}),
    "morse-cells": (cmd_morse_cells, "essential cells of the reduced complex", [], {}),
    "homology": (cmd_homology, "homology of the reduced complex", [], {"--verify": False}),
    "matching-audit": (cmd_matching_audit, "audit the matching per grade", [], {"--max-len": 6}),
    "salvetti-stats": (cmd_salvetti_stats, "poset census and cell pair checks", [], {}),
    "boundary2": (cmd_boundary2, "attaching word of a 2-cell", ["s", "t"], {}),
}
COMMANDS = {name: entry[0] for name, entry in SYNTAX.items()}
TOP = {"--system": None, "--format": "text"}  # the options before the command
HELP = ("-h", "--help")


def _option(token: str, names) -> tuple[str | None, str | None] | None:
    """(name, `=value` or None) of an option token, (None, None) for an
    unknown one, None for an argument.  A unique prefix names a long
    option; "-", negative numbers and tokens with a space are arguments."""
    key, eq, value = token.partition("=")
    found = [key] if key in names else [n for n in names if n.startswith(key)]
    if key in names or len(found) == 1 and key[:2] == "--":
        return found[0], value if eq else None
    if token[:1] != "-" or token == "-" or " " in token:
        return None
    number = token[1:].replace(".", "", 1).isdecimal() and token[-1] != "."
    return None if number else (None, None)


def _choose(argument: str, text: str, choices) -> str:
    if text not in choices:
        listed = ", ".join(map(repr, choices))
        raise UsageError(f"argument {argument}: invalid choice: {text!r} (choose from {listed})")
    return text


def _value(option: str, text: str) -> str | int:
    """The value of --system, of --format or of an integer option."""
    if option in TOP:
        return text if option == "--system" else _choose(option, text, ("text", "jsonl"))
    try:
        number = int(text)
    except ValueError:
        raise UsageError(f"argument {option}: invalid int value: {text!r}") from None
    if number < 0:
        raise UsageError(f"argument {option}: {number} is negative; need an integer >= 0")
    return number


def read_args(argv: list[str]) -> SimpleNamespace | None:
    """The fields of a command line (an option's is its name without the
    dashes), or None once the help that -h or --help asks for is printed;
    a refused line raises `UsageError` after its usage line on stderr.  A
    "*" or "+" argument list ends at an option, and "--" ends the options."""
    command, options, values, arguments, unknown, cut = None, TOP, dict(TOP), [], [], 0
    tokens = iter(argv)
    try:
        for token in tokens:
            names = (*HELP, *options)
            found = None if token == "--" else _option(token, names)
            if token == "--":
                arguments += tokens
            elif found is None and command is None:
                command, options = _choose("command", token, SYNTAX), SYNTAX[token][3]
                values.update(options)
            elif found is None:
                arguments.append(token)
            elif found[0] is None:
                unknown.append(token)
            else:
                cut = cut or len(arguments)  # a "*" or "+" list ends here
                name, value = found
                if name in HELP or options[name] is False:
                    if value is not None:
                        raise UsageError(f"argument {name}: ignored explicit argument {value!r}")
                    if name in HELP:
                        return _help(command)
                    other = {"--left": "--right", "--right": "--left"}.get(name)
                    if values.get(other):
                        raise UsageError(f"argument {name}: not allowed with argument {other}")
                    value = True
                elif value is None:
                    value = next(tokens, "--")
                    if value == "--" or _option(value, names):
                        raise UsageError(f"argument {name}: expected one argument")
                values[name] = value if value is True else _value(name, value)
        fields, missing = {"command": command}, []
        for name in SYNTAX[command][2] if command else ():
            if not arguments and name[-1] != "*":
                missing.append(name.rstrip("+"))
            elif name[-1] in "*+":  # a list is its command's only argument
                end = cut or len(arguments)
                fields[name[:-1]], arguments = arguments[:end], arguments[end:]
            else:
                fields[name] = arguments.pop(0)
        if not missing:
            missing = [n for n in ("--system", "command") if {**values, **fields}[n] is None]
            command = None  # what is checked from here on is the top level's
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        unknown += arguments
        if unknown:
            raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    except UsageError:
        print(_usage(command), file=sys.stderr)
        raise
    fields.update((name[2:].replace("-", "_"), value) for name, value in values.items())
    return SimpleNamespace(**fields)


def _error_format(argv: list[str]) -> str:
    """The report format of a refused line: its last --format, wherever it
    sits, or text when one --format in it is malformed."""
    chosen = "text"
    for i, token in enumerate(argv):
        if token == "--":
            break
        name, value = _option(token, ["--format"]) or (None, None)
        if name:
            chosen = value if value is not None else (argv[i + 1 :] or [""])[0]
            if chosen not in ("text", "jsonl"):
                return "text"
    return chosen


def _usage(command: str | None) -> str:
    """The usage line of the top level or of a command, wrapped for 80 columns."""
    if command is None:
        indent = "\n" + " " * len("usage: artinhom ")
        commands = "{" + ",".join(SYNTAX) + "}"
        return f"usage: artinhom [-h] --system SYSTEM [--format {{text,jsonl}}]{indent}{commands}{indent}..."
    _, _, names, options = SYNTAX[command]
    parts = [f"usage: artinhom {command} [-h]"]
    for option, default in options.items():
        if option == "--left":
            parts.append("[--left | --right]")
        elif option != "--right":
            metavar = "" if default is False else " " + option[2:].upper().replace("-", "_")
            parts.append(f"[{option}{metavar}]")
    for name in names:
        parts.append({"*": f"[{name[:-1]} ...]", "+": f"{name[:-1]} [{name[:-1]} ...]"}.get(name[-1], name))
    return " ".join(parts)


def _help(command: str | None) -> None:
    """The usage line, then the command's help line or every command's."""
    lines = ["commands:", *(f"  {name:<16}{entry[1]}" for name, entry in SYNTAX.items())]
    print(_usage(command), "", *([SYNTAX[command][1]] if command else lines), sep="\n")


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(list(sys.argv[1:] if argv is None else argv))
    except OSError as err:
        # `_run` handles the system file's errors: this is a failed write
        return _output_failed(err)


def _run(argv: list[str]) -> int:
    try:
        args = read_args(argv)
    except UsageError as err:
        Reporter(_error_format(argv), sys.stdout).error(err)
        return 1
    if args is None:
        return 0
    out = Reporter(args.format, sys.stdout)
    try:
        with open(args.system, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        out.error(err, "io-error")
        return 1
    try:
        return COMMANDS[args.command](args, parse_system_file(text), out)
    except DomainError as err:
        out.error(err)
        return 1
    except VerificationError as err:
        out.error(err, label="failure")
        return 2
    except MemoryError:
        pass
    # only a MemoryError gets here, after its handler has dropped the
    # exception and with it the failed command's frames and their memory;
    # the stderr line names it, without a traceback
    print("MemoryError: the command ran out of memory", file=sys.stderr)
    message = "the command ran out of memory"
    out.emit("error: out of memory", record="error", code="out-of-memory", message=message)
    return 1


def _output_failed(err: OSError) -> int:
    """Exit code 1 for a failed write to stdout, named in one stderr line.

    stdout is then pointed at devnull, so that no later flush fails again
    (the note on SIGPIPE in the documentation of the `signal` module)."""
    print(f"error: cannot write the report: {err}", file=sys.stderr)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 1


def _observed() -> bool:
    """Whether a profiler, a tracer or (Python 3.12+) a monitoring tool
    such as cProfile watches this process; monitoring tool ids are 0 to 5."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(map(monitoring.get_tool, range(6)))


def run_and_exit() -> NoReturn:
    """Entry point of `python -m artinhom.cli` and the `artinhom` script.

    Runs `main()`, flushes both output streams and ends the process with
    `os._exit`: interpreter teardown, which frees every table the command
    built, is skipped.  A profiler or tracer writes its results at normal
    exit, so under one the process exits normally."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as err:
        code = _output_failed(err)
    try:
        sys.stderr.flush()
    except OSError:
        pass  # nowhere is left to report it
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
