"""The benchmark ladder: systems, workloads, and each case's expected answer.

Every expected answer is a literal with its source, stated so that it
does not depend on the order of the `gens:` line: the seed permutes that
order, which changes ShortLex, the matching order and the running time,
but no answer.  Answers that are words (gcd, lcm) are compared as group
elements through `reference.GeometricModel`, never through the program.

A case marked `beyond` is a rung the program cannot answer within its
budget today.  It stays in the ladder: running out of its budget is
recorded as a failure of that kind, and an answer, if one comes, is
checked against invariants that hold for every Artin group.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from reference import GeometricModel, odd_edge_components, subset_counts


@dataclass(frozen=True)
class System:
    """A Coxeter matrix as plain data: listed generator order and m(s, t)."""

    name: str
    gens: tuple[str, ...]
    orders: dict = field(default_factory=dict)

    def m_table(self):
        return {frozenset(pair): m for pair, m in self.orders.items()}

    def text(self, seed: int) -> str:
        """The system file with its `gens:` line permuted by the seed."""
        gens = list(self.gens)
        if seed:
            random.Random(f"{seed}:{self.name}").shuffle(gens)
        lines = ["gens: " + " ".join(gens)]
        for (s, t), m in self.orders.items():
            lines.append(f"m {s} {t} {'inf' if m == math.inf else m}")
        return "\n".join(lines) + "\n"


def _system(name, gens, **orders):
    return System(name, tuple(gens), {tuple(k): v for k, v in orders.items()})


SYSTEMS = {
    s.name: s
    for s in (
        _system("A1xA1xA1", "abc"),
        _system("A2", "ab", ab=3),
        _system("B2", "ab", ab=4),
        _system("I2_5", "ab", ab=5),
        _system("G2", "ab", ab=6),
        _system("I2_7", "ab", ab=7),
        _system("I2_8", "ab", ab=8),
        _system("A3", "abc", ab=3, bc=3),
        _system("A2xA1", "abc", ab=3),
        _system("B2xA1", "abc", ab=4),
        _system("affine_A2", "abc", ab=3, bc=3, ac=3),
        _system("B3", "abc", ab=4, bc=3),
        _system("H3", "abc", ab=5, bc=3),
    )
}

# Reduced words of the longest element w0, of length N = number of
# reflections = sum of (degree - 1) (Humphreys, Reflection Groups and
# Coxeter Groups, table 3.1).  For a bipartite Coxeter element c and even
# Coxeter number h, c^(h/2) is a reduced word of w0 (Steinberg); the
# self-tests confirm each word in the geometric representation.
DELTA_WORD = {"A3": "acb" * 2, "B3": "abc" * 3, "H3": "abc" * 5}
REFLECTIONS = {"A3": 6, "B3": 9, "H3": 15}

# |W| as the product of the degrees (Humphreys, table 3.1).
GROUP_ORDER = {"A3": 24, "A2xA1": 12, "I2_5": 10, "G2": 12}

# Integer homology as [(free rank, torsion), ...] by degree.
Z = (1, ())
HOMOLOGY = {
    # Arnold 1970: H_*(Br_4) = Z, Z, Z/2, 0.
    "A3": [Z, Z, (0, (2,)), (0, ())],
    # Dihedral formula: the relator of I2(m) abelianizes to 0 for even m
    # (Z, Z^2, Z) and to a - b for odd m (Z, Z, 0).
    "I2_8": [Z, (2, ()), Z],
    "A2": [Z, Z, (0, ())],
    "B2": [Z, (2, ()), Z],
    "I2_5": [Z, Z, (0, ())],
    # Kunneth over torsion-free factors: B2 x A1 gives (1,2,1) * (1,1),
    # and (A1)^3 gives (1,1)^3 = (1,3,3,1).
    "B2xA1": [Z, (3, ()), (3, ()), Z],
    "A1xA1xA1": [Z, (3, ()), (3, ()), Z],
    # Salvetti complex of affine A2: cells {} | a b c | ab bc ac.  Each
    # 2-cell boundary is its odd relator abelianized, e_s - e_t, a map of
    # rank 2 with free cokernel: H = Z, Z, Z (Euler characteristic 1).
    "affine_A2": [Z, Z, Z],
}

# Euler characteristic of the reduced complex: sum over finite-type T of
# (-1)^|T|.  Every subset of a finite Coxeter system is of finite type.
EULER = {"B3": 0, "H3": 0}

# A3 audit to length 6.  Cells per length from the growth series (see
# reference.bar_cells_per_length); essential cells sit in grade (l, 0)
# with l = l(Delta_T): {} 0, {a},{b},{c} 1, {a,c} 2, {a,b},{b,c} 3, S 6.
A3_DELTA_LENGTHS = {
    frozenset(): 0,
    **{frozenset(s): 1 for s in "abc"},
    frozenset("ac"): 2,
    frozenset("ab"): 3,
    frozenset("bc"): 3,
    frozenset("abc"): 6,
}
A3_CELLS_PER_LENGTH = [1, 3, 17, 94, 518, 2852, 15701]
A3_ESSENTIAL_PER_LENGTH = {0: 1, 1: 3, 2: 1, 3: 2, 6: 1}


# -- checkers ---------------------------------------------------------------
#
# A checker takes the parsed jsonl records of one child and returns None
# when the answer is right, else a one-line reason.


def _records(records, kind):
    return [r for r in records if r.get("record") == kind]


def _groups(records):
    rows = sorted(_records(records, "homology"), key=lambda r: r["dim"])
    return [(r["free_rank"], tuple(r["torsion"])) for r in rows]


def check_homology(expected):
    def check(records, system):
        got = _groups(records)
        if got != expected:
            return f"homology {got} != {expected}"
        return None

    return check


def check_homology_invariants(euler):
    """H_0 = Z, H_1 from the presentation, and the Euler characteristic."""

    def check(records, system):
        got = _groups(records)
        if not got or got[0] != Z:
            return f"H_0 = {got[:1]}, expected Z"
        h1 = (odd_edge_components(system.gens, system.m_table()), ())
        if len(got) < 2 or got[1] != h1:
            return f"H_1 = {got[1:2]}, expected {h1}"
        chi = sum((-1) ** k * rank for k, (rank, _) in enumerate(got))
        if chi != euler:
            return f"Euler characteristic {chi} != {euler}"
        return None

    return check


def check_verified(expected):
    plain = check_homology(expected)

    def check(records, system):
        reason = plain(records, system)
        if reason:
            return reason
        verdicts = _records(records, "verification")
        if len(verdicts) != 1:
            return "no verification record"
        if not (verdicts[0]["h1_agrees"] and verdicts[0]["grades_agree"]):
            return f"verification failed: {verdicts[0]}"
        return None

    return check


def check_morse_cells(census, shape):
    """Census per dimension and the sorted (dim, length) of essential cells."""

    def check(records, system):
        got_census = [r["counts"] for r in _records(records, "census")]
        if got_census != [census]:
            return f"census {got_census} != {census}"
        got = sorted((r["dim"], r["length"]) for r in _records(records, "essential-cell"))
        if got != shape:
            return f"essential cells (dim, length) {got} != {shape}"
        return None

    return check


def check_audit(cells_per_length, essential_per_length):
    """Cells per length, essential cells per length, perfect matching."""

    def check(records, system):
        cells = [0] * len(cells_per_length)
        essential = {}
        for r in _records(records, "grade-audit"):
            length, flag = r["grade"]
            if not 0 <= length < len(cells):
                return f"grade {r['grade']} beyond the audited lengths"
            if flag != 0 and r["essential"]:
                return f"grade {r['grade']}: essential cells off flag 0"
            if 2 * r["edges"] + r["essential"] != r["cells"]:
                return f"grade {r['grade']}: matching is not perfect"
            cells[length] += r["cells"]
            if r["essential"]:
                essential[length] = essential.get(length, 0) + r["essential"]
        if cells != cells_per_length:
            return f"cells per length {cells} != {cells_per_length}"
        if essential != essential_per_length:
            return f"essential cells per length {essential} != {essential_per_length}"
        return None

    return check


def check_normal_form(k):
    """nf(Delta^k) is k copies of the full generating set."""

    def check(records, system):
        rows = _records(records, "normal-form")
        if len(rows) != 1:
            return "no normal-form record"
        parts = [set(p) for p in rows[0]["parts"]]
        if parts != [set(system.gens)] * k:
            return f"nf parts {rows[0]['parts']}, expected {k} x {sorted(system.gens)}"
        return None

    return check


def check_divides(expected):
    def check(records, system):
        rows = _records(records, "divides")
        if [r["result"] for r in rows] != [expected]:
            return f"divides verdict {rows}, expected {expected}"
        return None

    return check


def check_lcm_is_delta(reflections):
    """lcm of Delta_{ab} and Delta_{bc} is Delta_S: a reduced word of length N."""

    def check(records, system):
        rows = _records(records, "lcm")
        if len(rows) != 1 or rows[0]["lcm"] is None:
            return f"lcm record {rows}"
        word = rows[0]["lcm"]
        model = GeometricModel(system.gens, system.m_table())
        if len(word) != reflections or not model.is_reduced(word):
            return f"lcm {''.join(word)} is not a reduced word of length {reflections}"
        return None

    return check


def check_simple_gcd(expected_word):
    """gcd with Delta of a simple element is that element (compared in W)."""

    def check(records, system):
        rows = _records(records, "gcd")
        if len(rows) != 1:
            return f"gcd record {rows}"
        word = rows[0]["gcd"]
        model = GeometricModel(system.gens, system.m_table())
        if not (
            len(word) == len(expected_word)
            and model.is_reduced(word)
            and model.same_element(word, expected_word)
        ):
            return f"gcd {''.join(word)} != {expected_word}"
        return None

    return check


def check_salvetti(order, subsets):
    """Census = |W| x subset counts; every cell pair check passes."""
    census = [order * c for c in subsets]
    total = sum(census)

    def check(records, system):
        got = [r["census"] for r in _records(records, "poset-census")]
        if got != [census]:
            return f"poset census {got} != {census}"
        checked = [r["checked"] for r in _records(records, "pair-checks")]
        if checked != [total]:
            return f"pair checks {checked} != [{total}]"
        quotient = [r["counts"] for r in _records(records, "quotient-census")]
        if quotient != [subsets]:
            return f"quotient census {quotient} != {subsets}"
        return None

    return check


# -- workloads --------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One CLI invocation with its budget and reference check.

    `budget_s` is the wall budget of the child process; `beyond` marks a
    rung that exceeds its budget today.
    """

    name: str
    system: str
    argv: tuple[str, ...]
    check: Callable
    budget_s: float
    beyond: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


BEYOND_BUDGET_S = 1.5


def _case(name, system, argv, check, budget_s):
    return Case(name, system, tuple(argv.split()), check, budget_s)


def _beyond(name, system, argv, check):
    return Case(name, system, tuple(argv.split()), check, BEYOND_BUDGET_S, True)


def _delta(system, k):
    return DELTA_WORD[system] * k


WORKLOADS = {
    # Reduced-complex path: monoid canon under build_cell_graph and
    # partner; homology itself is negligible.
    "collapse": [
        _case("A3-homology", "A3", "homology", check_homology(HOMOLOGY["A3"]), 15),
        _case("I2_8-homology", "I2_8", "homology", check_homology(HOMOLOGY["I2_8"]), 25),
        _case("B2xA1-homology", "B2xA1", "homology", check_homology(HOMOLOGY["B2xA1"]), 10),
        _case(
            "affine_A2-homology",
            "affine_A2",
            "homology",
            check_homology(HOMOLOGY["affine_A2"]),
            10,
        ),
        _case(
            "I2_7-morse-cells",
            "I2_7",
            "morse-cells",
            check_morse_cells([1, 2, 1], [(0, 0), (1, 1), (1, 1), (2, 7)]),
            10,
        ),
        _beyond("B3-homology", "B3", "homology", check_homology_invariants(EULER["B3"])),
        _beyond("H3-homology", "H3", "homology", check_homology_invariants(EULER["H3"])),
    ],
    # Whole length layers through dense grade matrices and audits.
    "verify": [
        _case("A2-verify", "A2", "homology --verify", check_verified(HOMOLOGY["A2"]), 10),
        _case("B2-verify", "B2", "homology --verify", check_verified(HOMOLOGY["B2"]), 10),
        _case("I2_5-verify", "I2_5", "homology --verify", check_verified(HOMOLOGY["I2_5"]), 40),
        _case(
            "A1xA1xA1-verify",
            "A1xA1xA1",
            "homology --verify",
            check_verified(HOMOLOGY["A1xA1xA1"]),
            10,
        ),
        _case(
            "A3-audit-6",
            "A3",
            "matching-audit --max-len 6",
            check_audit(A3_CELLS_PER_LENGTH, A3_ESSENTIAL_PER_LENGTH),
            30,
        ),
        _beyond("A3-verify", "A3", "homology --verify", check_verified(HOMOLOGY["A3"])),
    ],
    # Few calls over huge equivalence classes in the artin layer.
    "monoid": [
        _case("A3-nf-delta3", "A3", f"nf {_delta('A3', 3)}", check_normal_form(3), 40),
        _case("B3-nf-delta2", "B3", f"nf {_delta('B3', 2)}", check_normal_form(2), 10),
        _case("H3-nf-delta", "H3", f"nf {_delta('H3', 1)}", check_normal_form(1), 10),
        # cbc is a reduced word, hence simple, hence a divisor of Delta
        # (Brieskorn-Saito) and of Delta^2.
        _case(
            "B3-divides",
            "B3",
            f"divides cbc {_delta('B3', 2)}",
            check_divides(True),
            10,
        ),
        _case("B3-lcm", "B3", "lcm abab cbc", check_lcm_is_delta(REFLECTIONS["B3"]), 10),
        _case(
            "B3-gcd",
            "B3",
            f"gcd {_delta('B3', 1)} cbabcab",
            check_simple_gcd("cbabcab"),
            10,
        ),
        _beyond("B3-nf-delta3", "B3", f"nf {_delta('B3', 3)}", check_normal_form(3)),
    ],
    # Coset poset: Coxeter-group canon and many small order complexes.
    "poset": [
        _case(
            f"{s}-salvetti",
            s,
            "salvetti-stats",
            check_salvetti(GROUP_ORDER[s], subset_counts(SYSTEMS[s].gens)),
            20 if s == "A3" else 10,
        )
        for s in ("A3", "A2xA1", "I2_5", "G2")
    ],
}


def check_records(case: Case, records) -> str | None:
    return case.check(records, SYSTEMS[case.system])

