"""Batch front door: parse a system file, run one command, emit a
report as text or json-lines.

System file grammar::

    # comment
    gens: a b c          # order fixes ShortLex and the matching order
    m a b 3              # integer >= 2 or the token inf; default is 2

Words on the command line are generator names joined by ``.`` (or
commas); when every generator is a single character a bare string like
``abab`` also works.

Exit codes: 0 success, 1 domain, usage or out-of-memory error, 2 audit or
verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Iterable

from . import __version__
from .artin import ArtinMonoid
from .bar import cell_length, layer_homology
from .coxeter import CoxeterSystem, Word
from .errors import (
    DomainError,
    ParseError,
    ConflictingEntry,
    UnknownGenerator,
    UsageError,
    VerificationError,
)
from .homology import HomologyGroup, abelianized_presentation_h1
from .matching import BarMatching
from .morse import (
    boundary_word_2cell,
    braid_relator_word,
    cyclic_words_equal,
    reduced_complex,
)
from .salvetti import (
    cell_pair_check,
    polygon_boundary_word,
    quotient_census,
    sal_poset,
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
    if all(len(s) == 1 for s in system.gens):
        return "".join(word)
    return ".".join(word)


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

    def emit_record(self, record):
        print(
            json.dumps(record, sort_keys=True, separators=(",", ":")),
            file=self.stream,
        )


def _json_m(value):
    return "inf" if value == math.inf else value


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
    x = parse_word(system, args.x)
    y = parse_word(system, args.y)
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
        out.emit(
            subset_str(system, T),
            record="finite-type-subset",
            subset=sorted(T, key=system.index),
        )
    return 0


def cmd_morse_cells(args, system, out):
    mon = ArtinMonoid(system)
    matching = BarMatching(mon)
    complex_ = reduced_complex(matching)
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
    code = 0
    if args.verify:
        oracle = abelianized_presentation_h1(system)
        h1 = groups[1] if len(groups) > 1 else HomologyGroup(0)
        ok_h1 = h1 == oracle
        max_len = max((len(delta) for delta in mon.deltas().values()), default=0)
        # essential cells per (length, dimension)
        expected: dict[tuple[int, int], int] = {}
        for T, cell in reduced.essential.items():
            key = (cell_length(cell), len(T))
            expected[key] = expected.get(key, 0) + 1
        per_grade_ok = True
        for n in range(max_len + 3):
            layer = layer_homology(mon, n)
            got = tuple(
                (h.free_rank, h.torsion) for h in layer
            )
            want = tuple(
                (expected.get((n, k), 0), ()) for k in range(len(layer))
            )
            if got != want:
                per_grade_ok = False
        ok = ok_h1 and per_grade_ok
        out.emit(
            f"verify: presentation H_1 {'agrees' if ok_h1 else 'DISAGREES'}; "
            f"per-grade layers {'agree' if per_grade_ok else 'DISAGREE'}",
            record="verification",
            presentation_h1=[oracle.free_rank, list(oracle.torsion)],
            h1_agrees=ok_h1,
            grades_agree=per_grade_ok,
        )
        if not ok:
            code = 2
    return code


def cmd_matching_audit(args, system, out):
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
    poset = sal_poset(system)
    census = poset.census()
    out.emit(
        f"poset cells = {len(poset.cells)}, census = {census}",
        record="poset-census",
        cells=len(poset.cells),
        census=list(census),
    )
    for cell in poset.cells:
        cell_pair_check(poset, cell)
    out.emit(
        f"all {len(poset.cells)} cell pair checks pass",
        record="pair-checks",
        checked=len(poset.cells),
    )
    quotient = quotient_census(system)
    out.emit(
        f"quotient census = {quotient}",
        record="quotient-census",
        counts=list(quotient),
    )
    return 0


def cmd_boundary2(args, system, out):
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
        f"dihedral relator = {signed_word_str(reference)} "
        f"(match: {agrees})\n"
        f"polygon relator = {signed_word_str(polygon)} "
        f"(match: {polygon_agrees})",
        record="boundary-word",
        s=s,
        t=t,
        m=_json_m(m),
        word=[[sign, g] for sign, g in word],
        matches_relator=agrees,
        matches_polygon=polygon_agrees,
    )
    return 0 if agrees and polygon_agrees else 2


COMMANDS = {
    "nf": cmd_nf,
    "delta": cmd_delta,
    "lcm": cmd_lcm,
    "gcd": cmd_gcd,
    "divides": cmd_divides,
    "sf": cmd_sf,
    "morse-cells": cmd_morse_cells,
    "homology": cmd_homology,
    "matching-audit": cmd_matching_audit,
    "salvetti-stats": cmd_salvetti_stats,
    "boundary2": cmd_boundary2,
}


def _non_negative(text: str) -> int:
    """Option type for counts and bounds: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative; need an integer >= 0")
    return value


class Parser(argparse.ArgumentParser):
    """Reports a usage error as `UsageError` instead of exiting with 2,
    which the exit contract reserves for failed audits and checks."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_side(parser: argparse.ArgumentParser) -> None:
    """The --left/--right choice shared by lcm, gcd and divides."""
    side = parser.add_mutually_exclusive_group()
    side.add_argument("--left", action="store_true")
    side.add_argument("--right", action="store_true")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "jsonl"),
        default="text",
        help="report format (default: text)",
    )


def _requested_format(argv: list[str]) -> str:
    """The report format of a command line the full parser refused.

    A parser that knows only `--format` reads it, so an abbreviation such
    as `--form jsonl` counts as it does in the full parser; text when the
    option itself is malformed."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    _add_format(pre)
    try:
        return pre.parse_known_args(argv)[0].format
    except argparse.ArgumentError:
        return "text"


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="artinhom",
        description="computations over an Artin monoid given by a Coxeter matrix file",
    )
    parser.add_argument("--system", required=True, help="path to the system file")
    _add_format(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="Garside normal form of a positive word")
    p.add_argument("word")

    p = sub.add_parser("delta", help="fundamental element of a subset")
    p.add_argument("generators", nargs="*")

    p = sub.add_parser("lcm", help="least common multiple")
    p.add_argument("words", nargs="+")
    _add_side(p)
    p.add_argument(
        "--bound", type=_non_negative, default=None, help="search length bound"
    )

    p = sub.add_parser("gcd", help="greatest common divisor")
    p.add_argument("words", nargs="+")
    _add_side(p)

    p = sub.add_parser("divides", help="divisibility test")
    p.add_argument("x")
    p.add_argument("y")
    _add_side(p)

    sub.add_parser("sf", help="list the finite-type subsets")
    sub.add_parser("morse-cells", help="essential cells of the reduced complex")

    p = sub.add_parser("homology", help="homology of the reduced complex")
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the presentation and per-grade layers",
    )

    p = sub.add_parser("matching-audit", help="audit the matching per grade")
    p.add_argument("--max-len", type=_non_negative, default=6)

    sub.add_parser("salvetti-stats", help="poset census and cell pair checks")

    p = sub.add_parser("boundary2", help="attaching word of a 2-cell")
    p.add_argument("s")
    p.add_argument("t")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except UsageError as err:
        Reporter(_requested_format(argv), sys.stdout).emit(
            f"error: {err}", record="error", code=err.code, message=str(err)
        )
        return 1
    out = Reporter(args.format, sys.stdout)
    try:
        with open(args.system, encoding="utf-8") as handle:
            system = parse_system_file(handle.read())
        return COMMANDS[args.command](args, system, out)
    except DomainError as err:
        out.emit(
            f"error: {err}", record="error", code=err.code, message=str(err)
        )
        return 1
    except (OSError, UnicodeDecodeError) as err:
        out.emit(
            f"error: {err}", record="error", code="io-error", message=str(err)
        )
        return 1
    except VerificationError as err:
        out.emit(
            f"failure: {err}", record="error", code=err.code, message=str(err)
        )
        return 2
    except MemoryError:
        pass
    # only a MemoryError gets here, after its handler has dropped the
    # exception and with it the failed command's frames and their memory;
    # the stderr line names it, without a traceback
    print("MemoryError: the command ran out of memory", file=sys.stderr)
    out.emit(
        "error: out of memory",
        record="error",
        code="out-of-memory",
        message="the command ran out of memory",
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
