import pytest

from artinhom.bar import cell_length
from artinhom.errors import AuditFailure, InfiniteType
from artinhom.matching import BarMatching, MatchEdge
from conftest import grade, iter_cells_of_grade, tail_data


def W(text):
    return tuple(text)


def grade_cells(matching, n, flag):
    """The cells of grade (n, flag), from the cell enumerator oracle."""
    return [
        cell
        for cell in iter_cells_of_grade(matching.mon, n)
        if grade(matching, cell)[1] == flag
    ]


def grade_edges(matching, n, flag):
    """The matched edges of grade (n, flag), by `partner` on its cells."""
    edges = {matching.partner(cell) for cell in grade_cells(matching, n, flag)}
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
            edge = m_a2.partner(cell)
            return edge is not None and edge.kind == "M1" and edge.upper == cell

        assert collapsible((W("a"), W("a")))
        assert collapsible((W("b"), W("a"), W("a")))
        assert not collapsible((W("ab"), W("a")))
        assert not collapsible((W("aa"),))

    def test_m1_partner(self, m_a2):
        edge = MatchEdge((W("a"), W("a")), (W("aa"),), "M1")
        assert m_a2.partner((W("aa"),)) == edge
        assert m_a2.partner((W("a"), W("a"))) == edge
        assert m_a2.partner((W("ab"), W("a"))) is None


class TestMaxClassification:
    def test_mu2_essential(self, m_a2):
        # max-essential: depth-essential with d2 = 1, so partner gives None
        for cell, essential in (
            ((W("ab"), W("a")), True),
            ((W("ba"), W("b")), False),
            ((), True),
        ):
            d1, _, d2 = tail_data(m_a2, cell)
            assert d1 == 1
            assert (d2 == 1) == essential
            assert (m_a2.partner(cell) is None) == essential

    def test_d2_convention_at_the_top(self, m_a2):
        # no tail of [aba] is max-essential, so the depth falls off the end
        assert tail_data(m_a2, (W("aba"),))[2] == 2
        # not collapsible: [aba] is the lower end of its second-matching edge
        edge = m_a2.partner((W("aba"),))
        assert edge.kind == "M2" and edge.upper != (W("aba"),)

    def test_m2_partner(self, m_a2):
        edge = MatchEdge((W("ba"), W("b")), (W("aba"),), "M2")
        assert m_a2.partner((W("aba"),)) == edge
        assert m_a2.partner((W("ba"), W("b"))) == edge
        assert m_a2.partner((W("ab"), W("a"))) is None

    def test_essential_cell_construction(self, m_a2, m_ainf, mon_a3):
        assert m_a2.essential_cell(()) == ()
        assert m_a2.essential_cell("a") == (W("a"),)
        assert m_a2.essential_cell("ab") == (W("ab"), W("a"))
        assert m_ainf.essential_cell("b") == (W("b"),)
        with pytest.raises(InfiniteType):
            m_ainf.essential_cell("ab")
        m_a3 = BarMatching(mon_a3)
        top = m_a3.essential_cell("abc")
        assert len(top) == 3
        assert cell_length(top) == 6
        d1, _, d2 = tail_data(m_a3, top)
        assert d1 == d2 == 1
        assert m_a3.partner(top) is None


class TestPartnersAreAMatching:
    def test_partner_is_an_involution(self, m_a2):
        for n in range(6):
            for cell in iter_cells_of_grade(m_a2.mon, n):
                edge = m_a2.partner(cell)
                if edge is None:
                    continue
                other = edge.upper if cell == edge.lower else edge.lower
                assert m_a2.partner(other) == edge

    def test_edges_preserve_eta(self, m_a2):
        for n in range(6):
            for cell in iter_cells_of_grade(m_a2.mon, n):
                edge = m_a2.partner(cell)
                if edge is not None:
                    assert grade(m_a2, edge.upper) == grade(m_a2, edge.lower)

    def test_kinds_separate_by_flag(self, m_a2):
        for n in range(6):
            for flag in (0, 1):
                for edge in grade_edges(m_a2, n, flag):
                    assert edge.kind == ("M2" if flag == 0 else "M1")


class TestMatchingForGrade:
    def test_square_edges(self, m_a2):
        edges = grade_edges(m_a2, 2, 1)
        assert MatchEdge((W("a"), W("a")), (W("aa"),), "M1") in edges
        assert MatchEdge((W("b"), W("b")), (W("bb"),), "M1") in edges
        assert len(edges) == 4

    def test_point_grade_empty(self, m_a2):
        assert grade_edges(m_a2, 0, 0) == set()

    def test_top_essential_grade(self, m_a2):
        edges = grade_edges(m_a2, 3, 0)
        assert edges == {MatchEdge((W("ba"), W("b")), (W("aba"),), "M2")}
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
        edges.discard(MatchEdge((W("a"), W("a")), (W("aa"),), "M1"))
        with pytest.raises(AuditFailure, match="unmatched"):
            m_a2.audit_grade(2, edges)

    def test_doubled_cell_fails(self, m_a2):
        edges = grade_edges(m_a2, 2, 1)
        edges.add(MatchEdge((W("a"), W("b")), (W("aa"),), "M1"))
        with pytest.raises(AuditFailure):
            m_a2.audit_grade(2, edges)

    def test_crossed_pairs_fail_regularity(self, m_a2):
        # [ba] is not a face of [a|b]; pairing them violates regularity
        edges = {
            MatchEdge((W("a"), W("a")), (W("aa"),), "M1"),
            MatchEdge((W("b"), W("b")), (W("bb"),), "M1"),
            MatchEdge((W("a"), W("b")), (W("ba"),), "M1"),
            MatchEdge((W("b"), W("a")), (W("ab"),), "M1"),
        }
        with pytest.raises(AuditFailure, match="incidence"):
            m_a2.audit_grade(2, edges)

    def test_edge_of_another_length_fails(self, m_a2):
        edges = grade_edges(m_a2, 2, 1)
        edges.add(MatchEdge((W("ba"), W("b")), (W("aba"),), "M2"))
        with pytest.raises(AuditFailure, match="escapes"):
            m_a2.audit_grade(2, edges)

    def test_cycle_through_matched_pairs_fails(self, m_a2):
        # two 2-cells sharing both faces, each matched with a different one:
        # low_p -> top1 -> low_q -> top2 -> low_p (nodes are suffix products)
        top1, top2 = ("x", "p", "q", ()), ("x", "q", "p", ())
        low_p, low_q = ("x", "p", ()), ("x", "q", ())
        nodes = {node: node for node in (top1, top2, low_p, low_q)}
        with pytest.raises(AuditFailure, match="cycle"):
            m_a2._check_fiber_acyclic((3, 1), nodes, {(top1, low_p), (top2, low_q)})
        m_a2._check_fiber_acyclic((3, 1), nodes, {(top1, low_p)})
