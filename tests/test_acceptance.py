"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance here is exact integer agreement; the
stated runtime budgets are asserted with a monotonic clock.
"""

import math
import time

import pytest

from artinhom import ArtinMonoid, CoxeterSystem
from artinhom.bar import boundary, layer_homology
from artinhom.homology import HomologyGroup, abelianized_presentation_h1, interval_chains
from artinhom.matching import BarMatching
from artinhom.morse import (
    boundary_word_2cell,
    braid_relator_word,
    cyclic_words_equal,
    reduced_complex,
)
from artinhom.salvetti import (
    SalvettiPoset,
    cell_pair_check,
    polygon_vertices,
    quotient_census,
)
from conftest import (
    BraidClassMonoid,
    elements_of_length,
    entry,
    enumerate_group,
    finishing_set,
    ids,
    is_squarefree,
    make_a1a1,
    make_a2,
    make_a3,
    make_ainf,
    make_b2,
    make_i25,
    recompose,
    right_quotient,
    sal_leq,
    words,
)

SYSTEM_MAKERS = {
    "A2": make_a2,
    "B2": make_b2,
    "I2(5)": make_i25,
    "A3": make_a3,
    "A1xA1": make_a1a1,
    "m=inf": make_ainf,
}

EXPECTED_CENSUS = {
    "A2": (1, 2, 1),
    "B2": (1, 2, 1),
    "I2(5)": (1, 2, 1),
    "A3": (1, 3, 3, 1),
    "A1xA1": (1, 2, 1),
    "m=inf": (1, 2),
}


@pytest.fixture(scope="module")
def stack():
    built = {}
    for name, maker in SYSTEM_MAKERS.items():
        system = maker()
        mon = ArtinMonoid(system)
        built[name] = (system, mon, BarMatching(mon))
    return built


def report(number, label, started):
    print(f"ACCEPTANCE {number} ({label}): PASS in {time.monotonic() - started:.1f}s")


def test_criterion_01_essential_census(stack):
    started = time.monotonic()
    for name, (system, mon, matching) in stack.items():
        t0 = time.monotonic()
        complex_ = reduced_complex(matching)
        assert complex_.census() == EXPECTED_CENSUS[name], name
        strata = {}
        for T in system.sf():
            strata[len(T)] = strata.get(len(T), 0) + 1
        assert complex_.census() == tuple(
            strata[k] for k in range(len(strata))
        ), name
        assert time.monotonic() - t0 < 10, f"{name} census exceeded 10s"
    report(1, "essential census", started)


def test_criterion_02_matching_audit(stack):
    started = time.monotonic()
    for name in ("A2", "m=inf"):
        _, _, matching = stack[name]
        for length in range(9):
            matching.audit_grade(length)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"audit exceeded 60s ({elapsed:.1f}s)"
    report(2, "matching audit to length 8", started)


def test_criterion_03_boundary_words(stack):
    started = time.monotonic()
    for m in (2, 3, 4, 5):
        system = CoxeterSystem("ab", {("a", "b"): m})
        matching = BarMatching(ArtinMonoid(system))
        word = boundary_word_2cell(matching, "a", "b")
        assert cyclic_words_equal(word, braid_relator_word("a", "b", m)), m
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"boundary words exceeded 30s ({elapsed:.1f}s)"
    report(3, "2-cell attaching words for m = 2..5", started)


def test_criterion_04_boundary_squares_to_zero(stack):
    started = time.monotonic()
    for name, (system, mon, matching) in stack.items():
        reduced_complex(matching).chain_complex().check_composition()
        for n in range(9):
            for x in elements_of_length(mon, n):
                # the merge faces of a chain of [1, x] are chains of [1, x]
                # again, so their boundaries are computed once per x
                of_x = {}
                (top,) = ids(mon, (x,))
                for chain in interval_chains(top, mon._divisors, 0):
                    acc = {}
                    for face, coeff in boundary(mon, chain).items():
                        if face[0] != top:
                            below = boundary(mon, face)
                        elif face in of_x:
                            below = of_x[face]
                        else:
                            below = of_x[face] = boundary(mon, face)
                        for grand, coeff2 in below.items():
                            total = acc.get(grand, 0) + coeff * coeff2
                            if total:
                                acc[grand] = total
                            else:
                                acc.pop(grand, None)
                    assert not acc, (name, matching.cell_of(chain))
    report(4, "boundary squares to zero through length 8", started)


def test_criterion_05_pipeline_equivalence(stack):
    started = time.monotonic()
    for name in ("A2", "B2"):
        system, mon, matching = stack[name]
        top_length = len(mon.delta(frozenset(system.gens)))
        essentials = {
            T: matching.essential_chain(T) for T in system.sf()
        }
        census = reduced_complex(matching).census()
        summed = [0] * len(census)
        for n in range(top_length + 1):
            layer = layer_homology(mon, n)
            expected = {}
            for T, chain in essentials.items():
                if len(words(mon, chain)[0]) == n:
                    expected[len(T)] = expected.get(len(T), 0) + 1
            for k, group in enumerate(layer):
                # each layer collapses onto its essential cells, freely
                assert group == HomologyGroup(expected.get(k, 0)), (name, n, k)
                if k < len(summed):
                    summed[k] += group.free_rank
        assert tuple(summed) == census, name
        for n in (top_length + 1, top_length + 2):
            layer = layer_homology(mon, n)
            assert all(group == HomologyGroup(0) for group in layer), (name, n)
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"pipeline equivalence exceeded 120s ({elapsed:.1f}s)"
    report(5, "per-grade collapse sums to the reduced complex", started)


def test_criterion_06_low_homology(stack):
    started = time.monotonic()
    for name, (system, mon, matching) in stack.items():
        groups = reduced_complex(matching).chain_complex().homology()
        assert groups[0] == HomologyGroup(1), name
        assert groups[1] == abelianized_presentation_h1(system), name
    free_groups = reduced_complex(stack["m=inf"][2]).chain_complex().homology()
    assert free_groups == [HomologyGroup(1), HomologyGroup(2)]
    report(6, "H0 and H1 against the presentation", started)


def test_criterion_07_fundamental_element_properties(stack):
    started = time.monotonic()
    for name in ("A2", "B2", "I2(5)"):
        system, mon, _ = stack[name]
        S = frozenset(system.gens)
        delta = mon.delta(S)
        # (vi) the lift of the longest element is the lcm on both sides
        assert delta == mon.canon(system.longest_element(S)), name
        assert delta == mon.right_lcm([(s,) for s in S]), name
        assert delta == mon.left_lcm([(s,) for s in S]), name
        # (i) reversal fixes it
        assert mon.rev(delta) == delta, name
        # (ii) left and right divisors coincide
        left = BraidClassMonoid(system).left_divisors(delta)
        right = {
            x
            for n in range(len(delta) + 1)
            for x in elements_of_length(mon, n)
            if mon.right_divides(x, delta)
        }
        assert left == right, name
        # (iii) squarefree == divisor, over every element up to length(delta)
        for n in range(len(delta) + 1):
            for x in elements_of_length(mon, n):
                assert is_squarefree(mon, x) == (x in left), (name, x)
        # (iv) the lcm of squarefree elements is squarefree
        divisors = sorted(left)
        for x in divisors:
            for y in divisors:
                lcm = mon.right_lcm([x, y], bound=len(delta))
                assert lcm is not None and is_squarefree(mon, lcm), (name, x, y)
        # (v) unique squarefree element of maximal length
        top = [x for x in elements_of_length(mon, len(delta)) if is_squarefree(mon, x)]
        assert top == [delta], name
        for extra in (1, 2):
            assert not any(
                is_squarefree(mon, x)
                for x in elements_of_length(mon, len(delta) + extra)
            ), name
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"property suite exceeded 120s ({elapsed:.1f}s)"
    report(7, "fundamental element properties (i)-(vi)", started)


def test_criterion_08_normal_form(stack):
    started = time.monotonic()
    for name in ("A2", "A3"):
        system, mon, _ = stack[name]
        deltas = {T: mon.delta(T) for T in system.sf() if T}
        for n in range(7):
            for x in elements_of_length(mon, n):
                parts = mon.normal_form(x)
                assert recompose(mon, parts) == x, (name, x)
                for j in range(len(parts)):
                    assert (
                        finishing_set(mon, recompose(mon, parts[j:])) == parts[j]
                    ), (name, x, j)
        for n in range(1, 5):
            for x in elements_of_length(mon, n):
                assert _valid_tuples(mon, deltas, x) == [mon.normal_form(x)], (
                    name,
                    x,
                )
    report(8, "normal form round-trip and uniqueness", started)


def _valid_tuples(mon, deltas, x):
    found = []

    def extend(remaining, parts):
        if not remaining:
            found.append(tuple(parts))
            return
        for T, d in deltas.items():
            rest = right_quotient(mon, remaining, d)
            if rest is not None:
                extend(rest, parts + [T])

    extend(x, [])
    return [
        parts
        for parts in found
        if recompose(mon, parts) == x
        and all(
            finishing_set(mon, recompose(mon, parts[j:])) == parts[j]
            for j in range(len(parts))
        )
    ]


def test_criterion_09_salvetti_checks(stack):
    started = time.monotonic()
    system, _, _ = stack["A2"]
    poset = SalvettiPoset(system)
    assert len(poset.cells) == 24
    assert poset.census() == (6, 12, 6)
    cells = poset.cells
    for p in cells:
        assert sal_leq(system, p, p)
        for q in cells:
            if p != q and sal_leq(system, p, q):
                assert not sal_leq(system, q, p)
            if sal_leq(system, p, q):
                for r in cells:
                    if sal_leq(system, q, r):
                        assert sal_leq(system, p, r)
    for cell in cells:
        cell_pair_check(poset, cell)
    assert quotient_census(system) == (1, 2, 1)
    for w in enumerate_group(system, "ab"):
        vertices = polygon_vertices(system, w, "a", "b")
        assert len(vertices) == 6
        assert len(set(vertices)) == 6
        assert vertices[0] == system.canon(w)
        assert vertices[1] == system.mul(w, "a")
        assert vertices[-1] == system.mul(w, "b")
        assert vertices[3] == system.mul(w, "aba")
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"salvetti checks exceeded 60s ({elapsed:.1f}s)"
    report(9, "poset, pair, and polygon checks", started)


def test_criterion_10_naturality(stack):
    started = time.monotonic()
    small = reduced_complex(stack["A2"][2])
    large = reduced_complex(stack["A3"][2])
    included = [T for dim in small.cells_by_dim for T in dim]
    for T in included:
        if not T:
            continue
        for R in small.cells_by_dim[len(T) - 1]:
            assert entry(large, T, R) == entry(small, T, R), (T, R)
    report(10, "reduced complex natural under inclusion", started)
