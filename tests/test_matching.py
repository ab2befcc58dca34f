import pytest

from artinhom.bar import cell_length, iter_cells_of_grade
from artinhom.errors import AuditFailure, InfiniteType, NotMu1Essential
from artinhom.matching import BarMatching, MatchEdge


def W(text):
    return tuple(text)


@pytest.fixture(scope="module")
def m_a2(mon_a2):
    return BarMatching(mon_a2)


@pytest.fixture(scope="module")
def m_ainf(mon_ainf):
    return BarMatching(mon_ainf)


class TestDepthClassification:
    def test_mu1_essential(self, m_a2):
        assert m_a2.mu1_essential((W("ab"), W("a")))
        assert not m_a2.mu1_essential((W("a"), W("a")))
        assert m_a2.mu1_essential(())

    def test_d1(self, m_a2):
        assert m_a2.d1((W("ab"), W("a"))) == 1
        assert m_a2.d1((W("a"), W("a"))) == 2
        assert m_a2.d1((W("aa"),)) == 2

    def test_tail_sets(self, m_a2):
        assert m_a2.tail_sets((W("ab"), W("a"))) == {
            1: frozenset("ab"),
            2: frozenset("a"),
            3: frozenset(),
        }
        assert m_a2.tail_sets((W("a"), W("a"))) == {
            2: frozenset("a"),
            3: frozenset(),
        }

    def test_mu1_collapsible(self, m_a2):
        assert m_a2.mu1_collapsible((W("a"), W("a")))
        assert m_a2.mu1_collapsible((W("b"), W("a"), W("a")))
        assert not m_a2.mu1_collapsible((W("ab"), W("a")))
        assert not m_a2.mu1_collapsible((W("aa"),))

    def test_m1_partner(self, m_a2):
        edge = MatchEdge((W("a"), W("a")), (W("aa"),), "M1")
        assert m_a2.m1_partner((W("aa"),)) == edge
        assert m_a2.m1_partner((W("a"), W("a"))) == edge
        assert m_a2.m1_partner((W("ab"), W("a"))) is None


class TestMaxClassification:
    def test_mu2_essential(self, m_a2):
        assert m_a2.mu2_essential((W("ab"), W("a")))
        assert not m_a2.mu2_essential((W("ba"), W("b")))
        assert m_a2.mu2_essential(())

    def test_requires_depth_essential(self, m_a2):
        with pytest.raises(NotMu1Essential):
            m_a2.mu2_essential((W("a"), W("a")))

    def test_d2_convention_at_the_top(self, m_a2):
        # no tail of [aba] is max-essential, so the depth falls off the end
        assert m_a2.d2((W("aba"),)) == 2
        assert not m_a2.mu2_collapsible((W("aba"),))

    def test_m2_partner(self, m_a2):
        edge = MatchEdge((W("ba"), W("b")), (W("aba"),), "M2")
        assert m_a2.m2_partner((W("aba"),)) == edge
        assert m_a2.m2_partner((W("ba"), W("b"))) == edge
        assert m_a2.m2_partner((W("ab"), W("a"))) is None

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
        assert m_a3.mu2_essential(top)


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
                    assert m_a2.eta(edge.upper) == m_a2.eta(edge.lower)

    def test_kinds_separate_by_flag(self, m_a2):
        for n in range(6):
            for flag in (0, 1):
                for edge in m_a2.matching_for_grade((n, flag)):
                    assert edge.kind == ("M2" if flag == 0 else "M1")


class TestMatchingForGrade:
    def test_square_edges(self, m_a2):
        edges = m_a2.matching_for_grade((2, 1))
        assert MatchEdge((W("a"), W("a")), (W("aa"),), "M1") in edges
        assert MatchEdge((W("b"), W("b")), (W("bb"),), "M1") in edges
        assert len(edges) == 4

    def test_point_grade_empty(self, m_a2):
        assert m_a2.matching_for_grade((0, 0)) == set()

    def test_top_essential_grade(self, m_a2):
        edges = m_a2.matching_for_grade((3, 0))
        assert edges == {MatchEdge((W("ba"), W("b")), (W("aba"),), "M2")}
        essential = [
            cell
            for cell in m_a2.fiber((3, 0))
            if m_a2.mu2_essential(cell)
        ]
        assert essential == [(W("ab"), W("a"))]


class TestAudits:
    def test_a2_and_free_pass(self, m_a2, m_ainf):
        for matching in (m_a2, m_ainf):
            for n in range(7):
                audit = matching.audit_grade(n)
                assert [g.grade for g in audit.grades] == [(n, 0), (n, 1)]
                for grade in audit.grades:
                    assert grade.cells == len(matching.fiber(grade.grade))
                    assert grade.edges == len(matching.matching_for_grade(grade.grade))

    def test_essential_census_from_audit(self, m_a2):
        found = {}
        for n in range(7):
            for grade in m_a2.audit_grade(n).grades:
                for cell in grade.essential:
                    found.setdefault(len(cell), []).append(cell)
        assert sorted(found) == [0, 1, 2]
        assert found[0] == [()]
        assert sorted(found[1]) == [(W("a"),), (W("b"),)]
        assert found[2] == [(W("ab"), W("a"))]

    def test_missing_edge_fails(self, m_a2):
        edges = m_a2.matching_for_grade((2, 1))
        edges.discard(MatchEdge((W("a"), W("a")), (W("aa"),), "M1"))
        with pytest.raises(AuditFailure, match="unmatched"):
            m_a2.audit_grade(2, edges)

    def test_doubled_cell_fails(self, m_a2):
        edges = m_a2.matching_for_grade((2, 1))
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
        edges = m_a2.matching_for_grade((2, 1))
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
