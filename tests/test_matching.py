import random

import pytest

from artinhom import ArtinMonoid
from artinhom.bar import cell_length
from artinhom.errors import AuditFailure, InfiniteType
from artinhom.matching import BarMatching
from conftest import (
    CellMatching,
    MatchEdge,
    elements_of_length,
    factorizations,
    grade,
    ids,
    iter_cells_of_grade,
    make_a1a1a1,
    make_a2,
    make_a3,
    make_affine_a2,
    make_ainf,
    make_b2,
    make_b2a1,
    make_g2,
    make_i25,
    suffix_products,
    tail_data,
)

# systems and the lengths to which the chain rule is checked against the
# cell rule of `conftest.CellMatching`
ORACLE_SYSTEMS = {
    "A2": (make_a2, 7),
    "B2": (make_b2, 7),
    "I2(5)": (make_i25, 7),
    "G2": (make_g2, 7),
    "affine-A2": (make_affine_a2, 7),
    "A1xA1xA1": (make_a1a1a1, 7),
    "B2xA1": (make_b2a1, 7),
    "A-inf": (make_ainf, 7),
    "A3": (make_a3, 6),
}


def W(text):
    return tuple(text)


def edge_of(matching, cell):
    """The matched edge through the chain of a cell."""
    return matching.edge(ids(matching.mon, suffix_products(matching.mon, cell)))


def id_edge(mon, upper, lower, kind):
    """An (upper, lower, kind) edge given by chains of words, as ids."""
    return ids(mon, upper), ids(mon, lower), kind


def chain_edges(mon, *edges):
    """Matched pairs of cells as the (upper, lower, kind) chain triples
    the audit takes."""
    return {edge.chains(mon) for edge in edges}


def grade_cells(matching, n, flag):
    """The cells of grade (n, flag), from the cell enumerator oracle."""
    return [
        cell
        for cell in iter_cells_of_grade(matching.mon, n)
        if grade(matching, cell)[1] == flag
    ]


def grade_edges(matching, n, flag):
    """The matched edges of grade (n, flag), by `edge` on the chains of
    its cells."""
    edges = {edge_of(matching, cell) for cell in grade_cells(matching, n, flag)}
    edges.discard(None)
    return edges


@pytest.fixture(scope="module")
def m_a2(mon_a2):
    return BarMatching(mon_a2)


@pytest.fixture(scope="module")
def m_ainf(mon_ainf):
    return BarMatching(mon_ainf)


class TestDepthClassification:
    def test_mu1_essential(self, m_a2):
        # depth-essential: d1 = 1, which is also where the flag is 0
        for cell, depth_essential in (
            ((W("ab"), W("a")), True),
            ((W("a"), W("a")), False),
            ((), True),
        ):
            assert (tail_data(m_a2, cell)[0] == 1) == depth_essential
            assert (grade(m_a2, cell)[1] == 0) == depth_essential

    def test_d1(self, m_a2):
        assert tail_data(m_a2, (W("ab"), W("a")))[0] == 1
        assert tail_data(m_a2, (W("a"), W("a")))[0] == 2
        assert tail_data(m_a2, (W("aa"),))[0] == 2

    def test_tail_sets(self, m_a2):
        assert tail_data(m_a2, (W("ab"), W("a")))[1] == {
            1: frozenset("ab"),
            2: frozenset("a"),
            3: frozenset(),
        }
        assert tail_data(m_a2, (W("a"), W("a")))[1] == {
            2: frozenset("a"),
            3: frozenset(),
        }

    def test_mu1_collapsible(self, m_a2):
        # collapsible: the upper end of its first-matching edge
        def collapsible(cell):
            edge = edge_of(m_a2, cell)
            return (
                edge is not None
                and edge[2] == "M1"
                and edge[0] == ids(m_a2.mon, suffix_products(m_a2.mon, cell))
            )

        assert collapsible((W("a"), W("a")))
        assert collapsible((W("b"), W("a"), W("a")))
        assert not collapsible((W("ab"), W("a")))
        assert not collapsible((W("aa"),))

    def test_m1_partner(self, m_a2):
        # [a|a] -> [aa]: the chain aa > a > 1 loses a
        mon = m_a2.mon
        edge = id_edge(mon, (W("aa"), W("a"), ()), (W("aa"), ()), "M1")
        assert m_a2.edge(ids(mon, (W("aa"), ()))) == edge
        assert m_a2.edge(ids(mon, (W("aa"), W("a"), ()))) == edge
        assert m_a2.edge(ids(mon, (W("aba"), W("a"), ()))) is None
        assert m_a2.cell_of(edge[0]) == (W("a"), W("a"))
        assert m_a2.cell_of(edge[1]) == (W("aa"),)


class TestMaxClassification:
    def test_mu2_essential(self, m_a2):
        # max-essential: depth-essential with d2 = 1, so it has no edge
        for cell, essential in (
            ((W("ab"), W("a")), True),
            ((W("ba"), W("b")), False),
            ((), True),
        ):
            d1, _, d2 = tail_data(m_a2, cell)
            assert d1 == 1
            assert (d2 == 1) == essential
            assert (edge_of(m_a2, cell) is None) == essential

    def test_d2_convention_at_the_top(self, m_a2):
        # no tail of [aba] is max-essential, so the depth falls off the end
        assert tail_data(m_a2, (W("aba"),))[2] == 2
        # not collapsible: [aba] is the lower end of its second-matching edge
        edge = m_a2.edge(ids(m_a2.mon, (W("aba"), ())))
        assert edge[2] == "M2" and edge[0] != ids(m_a2.mon, (W("aba"), ()))

    def test_m2_partner(self, m_a2):
        # [ba|b] -> [aba]: the chain aba > b > 1 loses b (bab = aba)
        mon = m_a2.mon
        edge = id_edge(mon, (W("aba"), W("b"), ()), (W("aba"), ()), "M2")
        assert m_a2.edge(ids(mon, (W("aba"), ()))) == edge
        assert m_a2.edge(ids(mon, (W("aba"), W("b"), ()))) == edge
        assert m_a2.edge(ids(mon, (W("aba"), W("a"), ()))) is None
        assert m_a2.cell_of(edge[0]) == (W("ba"), W("b"))

    def test_essential_cell_construction(self, m_a2, m_ainf, mon_a3):
        mon = m_a2.mon
        assert m_a2.essential_chain(()) == ids(mon, ((),))
        assert m_a2.essential_chain("a") == ids(mon, (W("a"), ()))
        assert m_a2.essential_chain("ab") == ids(mon, (W("aba"), W("a"), ()))
        assert m_a2.cell_of(m_a2.essential_chain("ab")) == (W("ab"), W("a"))
        assert m_a2.cell_of(ids(mon, ((),))) == ()
        assert m_ainf.essential_chain("b") == ids(m_ainf.mon, (W("b"), ()))
        with pytest.raises(InfiniteType):
            m_ainf.essential_chain("ab")
        m_a3 = BarMatching(mon_a3)
        top = m_a3.essential_chain("abc")
        assert len(top) == 4
        cell = m_a3.cell_of(top)
        assert cell_length(cell) == 6
        d1, _, d2 = tail_data(m_a3, cell)
        assert d1 == d2 == 1
        assert m_a3.edge(top) is None


class TestPartnersAreAMatching:
    def test_partner_is_an_involution(self, m_a2):
        for n in range(6):
            for cell in iter_cells_of_grade(m_a2.mon, n):
                chain = ids(m_a2.mon, suffix_products(m_a2.mon, cell))
                edge = m_a2.edge(chain)
                if edge is None:
                    continue
                assert chain in edge[:2]
                other = edge[0] if chain == edge[1] else edge[1]
                assert m_a2.edge(other) == edge

    def test_edges_preserve_eta(self, m_a2):
        for n in range(6):
            for cell in iter_cells_of_grade(m_a2.mon, n):
                edge = edge_of(m_a2, cell)
                if edge is not None:
                    upper, lower = (m_a2.cell_of(chain) for chain in edge[:2])
                    assert grade(m_a2, upper) == grade(m_a2, lower)

    def test_kinds_separate_by_flag(self, m_a2):
        for n in range(6):
            for flag in (0, 1):
                for edge in grade_edges(m_a2, n, flag):
                    assert edge[2] == ("M2" if flag == 0 else "M1")


class TestMatchingForGrade:
    def test_square_edges(self, m_a2):
        edges = grade_edges(m_a2, 2, 1)
        assert id_edge(m_a2.mon, (W("aa"), W("a"), ()), (W("aa"), ()), "M1") in edges
        assert id_edge(m_a2.mon, (W("bb"), W("b"), ()), (W("bb"), ()), "M1") in edges
        assert len(edges) == 4

    def test_point_grade_empty(self, m_a2):
        assert grade_edges(m_a2, 0, 0) == set()

    def test_top_essential_grade(self, m_a2):
        edges = grade_edges(m_a2, 3, 0)
        assert edges == {id_edge(m_a2.mon, (W("aba"), W("b"), ()), (W("aba"), ()), "M2")}
        essential = [
            cell
            for cell in grade_cells(m_a2, 3, 0)
            if tail_data(m_a2, cell)[2] == 1
        ]
        assert essential == [(W("ab"), W("a"))]


class TestAudits:
    def test_a2_and_free_pass(self, m_a2, m_ainf):
        for matching in (m_a2, m_ainf):
            for n in range(7):
                audit = matching.audit_grade(n)
                assert [g.grade for g in audit.grades] == [(n, 0), (n, 1)]
                for report in audit.grades:
                    assert report.cells == len(grade_cells(matching, *report.grade))
                    assert report.edges == len(grade_edges(matching, *report.grade))

    def test_essential_census_from_audit(self, m_a2):
        found = {}
        for n in range(7):
            for report in m_a2.audit_grade(n).grades:
                for cell in report.essential:
                    found.setdefault(len(cell), []).append(cell)
        assert sorted(found) == [0, 1, 2]
        assert found[0] == [()]
        assert sorted(found[1]) == [(W("a"),), (W("b"),)]
        assert found[2] == [(W("ab"), W("a"))]

    def test_missing_edge_fails(self, m_a2):
        edges = grade_edges(m_a2, 2, 1)
        edges -= chain_edges(m_a2.mon, MatchEdge((W("a"), W("a")), (W("aa"),), "M1"))
        assert len(edges) == 3
        with pytest.raises(AuditFailure, match="unmatched"):
            m_a2.audit_grade(2, edges)

    def test_doubled_cell_fails(self, m_a2):
        edges = grade_edges(m_a2, 2, 1)
        edges |= chain_edges(m_a2.mon, MatchEdge((W("a"), W("b")), (W("aa"),), "M1"))
        with pytest.raises(AuditFailure):
            m_a2.audit_grade(2, edges)

    def test_crossed_pairs_fail_regularity(self, m_a2):
        # [ba] is not a face of [a|b]; pairing them violates regularity
        edges = chain_edges(
            m_a2.mon,
            MatchEdge((W("a"), W("a")), (W("aa"),), "M1"),
            MatchEdge((W("b"), W("b")), (W("bb"),), "M1"),
            MatchEdge((W("a"), W("b")), (W("ba"),), "M1"),
            MatchEdge((W("b"), W("a")), (W("ab"),), "M1"),
        )
        with pytest.raises(AuditFailure, match="incidence"):
            m_a2.audit_grade(2, edges)

    def test_edge_of_another_length_fails(self, m_a2):
        edges = grade_edges(m_a2, 2, 1)
        edges |= chain_edges(m_a2.mon, MatchEdge((W("ba"), W("b")), (W("aba"),), "M2"))
        with pytest.raises(AuditFailure, match="escapes"):
            m_a2.audit_grade(2, edges)

    def test_edge_of_wrong_kind_or_dimension_fails(self, m_a2):
        edges = grade_edges(m_a2, 2, 1)
        square = ids(m_a2.mon, (W("aa"), W("a"), ())), ids(m_a2.mon, (W("aa"), ()))
        with pytest.raises(AuditFailure, match="has kind M2"):
            m_a2.audit_grade(2, edges - {(*square, "M1")} | {(*square, "M2")})
        with pytest.raises(AuditFailure, match="is not codimension 1"):
            m_a2.audit_grade(2, edges | {(square[1], square[1], "M1")})

    def test_cycle_through_matched_pairs_fails(self, m_a2):
        # two 2-cells sharing both faces, each matched with a different one:
        # low_p -> top1 -> low_q -> top2 -> low_p (nodes are suffix products)
        top1, top2 = ("x", "p", "q", ()), ("x", "q", "p", ())
        low_p, low_q = ("x", "p", ()), ("x", "q", ())
        nodes = {node: node for node in (top1, top2, low_p, low_q)}
        with pytest.raises(AuditFailure, match="cycle"):
            m_a2._check_fiber_acyclic((3, 1), nodes.get, {(top1, low_p), (top2, low_q)})
        m_a2._check_fiber_acyclic((3, 1), nodes.get, {(top1, low_p)})


class TestAgainstTheCellRule:
    """The rule on chains against the cell rule it replaced."""

    @pytest.mark.parametrize(
        "maker, top", ORACLE_SYSTEMS.values(), ids=ORACLE_SYSTEMS
    )
    def test_grade_audits_agree(self, maker, top):
        mon = ArtinMonoid(maker())
        matching, oracle = BarMatching(mon), CellMatching(mon)
        for n in range(top + 1):
            assert matching.audit_grade(n) == oracle.audit_grade(n), n

    @pytest.mark.parametrize(
        "maker, top", ORACLE_SYSTEMS.values(), ids=ORACLE_SYSTEMS
    )
    def test_partner_agrees_on_every_cell(self, maker, top):
        # the edge through each cell's chain is the cell rule's edge
        # through the cell, mapped to chains
        mon = ArtinMonoid(maker())
        matching, oracle = BarMatching(mon), CellMatching(mon)
        for n in range(top + 1):
            for x in elements_of_length(mon, n):
                for cell, products in factorizations(mon, x):
                    edge = oracle.partner(cell)
                    expected = None if edge is None else edge.chains(mon)
                    assert matching.edge(ids(mon, products)) == expected, cell
                    assert matching.cell_of(ids(mon, products)) == cell


def matched_fibers(mon, top):
    """(grade, cell of each chain, matched (upper, lower) chain pairs) of
    every (x, flag) fiber up to length `top`, from the cell rule."""
    oracle = CellMatching(mon)
    for n in range(top + 1):
        for x in elements_of_length(mon, n):
            cells = factorizations(mon, x)
            products_of = dict(cells)
            flag_of = {
                cell: 0 if oracle._depth(products) == 1 else 1 for cell, products in cells
            }
            for flag in (0, 1):
                cell_of = {
                    products: cell for cell, products in cells if flag_of[cell] == flag
                }
                edges = {oracle.partner(cell) for cell in products_of if flag_of[cell] == flag}
                edges.discard(None)
                pairs = [(products_of[e.upper], products_of[e.lower]) for e in edges]
                yield (n, flag), cell_of, pairs


def inner_faces(chain):
    return [chain[:i] + chain[i + 1 :] for i in range(1, len(chain) - 1)]


def swapped_partners(rng, pairs):
    """Swap the partners of (u1, l1) and (u2, f), f another face of u1.

    (u1, f) is a face pair; (u2, l1) is not, since two chains share at
    most one facet, so the incidence check refuses it before acyclicity is
    asked and it is left out.  None when no pair has such a face."""
    upper_of = {lower: upper for upper, lower in pairs}
    candidates = [
        (u1, l1, upper_of[f], f)
        for u1, l1 in pairs
        for f in inner_faces(u1)
        if f != l1 and f in upper_of
    ]
    if not candidates:
        return None
    u1, l1, u2, f = rng.choice(candidates)
    assert l1 not in inner_faces(u2)
    return [p for p in pairs if p not in ((u1, l1), (u2, f))] + [(u1, f)]


def random_matching(rng, cell_of):
    """A maximal matching of the fiber's face pairs, in random order."""
    face_pairs = [(u, f) for u in cell_of for f in inner_faces(u) if f in cell_of]
    rng.shuffle(face_pairs)
    pairs, used = [], set()
    for u, f in face_pairs:
        if u not in used and f not in used:
            pairs.append((u, f))
            used.update((u, f))
    return pairs


class TestAcyclicity:
    def test_matched_uppers_decide_as_the_whole_face_graph(self):
        # Corrupted matchings in which every chain lies on at most one edge
        # and every lower chain is a face of its upper one, as the audit
        # checks before acyclicity: the matching with the partners of two
        # pairs swapped, or a random maximal matching of face pairs.  The
        # check on matched upper chains must agree with Kahn's sort of the
        # whole fiber every time.
        rng = random.Random(20261019)
        fibers = [
            fiber
            for maker, top in ((make_a2, 6), (make_b2, 6), (make_a3, 5))
            for fiber in matched_fibers(ArtinMonoid(maker()), top)
            if len(fiber[2]) >= 2
        ]
        mon = ArtinMonoid(make_a2())
        checks = (CellMatching(mon)._check_fiber_acyclic, BarMatching(mon)._check_fiber_acyclic)
        outcomes = {"swap": set(), "random": set()}
        for k in range(200):
            grade_, cell_of, pairs = rng.choice(fibers)
            kind = "swap" if k % 2 else "random"
            corrupted = (
                swapped_partners(rng, pairs) if kind == "swap" else random_matching(rng, cell_of)
            )
            if corrupted is None:
                continue
            verdicts = []
            for check, names in zip(checks, (cell_of, cell_of.get)):
                try:
                    check(grade_, names, set(corrupted))
                    verdicts.append(True)
                except AuditFailure as failure:
                    assert "cycle" in str(failure)
                    verdicts.append(False)
            assert verdicts[0] == verdicts[1], (grade_, sorted(corrupted))
            outcomes[kind].add(verdicts[0])
        assert outcomes["swap"] and outcomes["random"] == {True, False}
