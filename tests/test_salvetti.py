import random

import pytest

from artinhom import ArtinMonoid, CoxeterSystem
from artinhom.errors import CheckFailed, InfiniteM, InfiniteType
from artinhom.homology import HomologyGroup, interval_chains, interval_complex
from artinhom.matching import BarMatching
from artinhom.morse import boundary_word_2cell, braid_relator_word, cyclic_words_equal
from artinhom.salvetti import (
    SalvettiPoset,
    cell_pair_check,
    polygon_boundary_word,
    polygon_vertices,
    quotient_census,
    sal_poset,
)
from conftest import make_a3, make_b3, make_i25, order_complex, sal_leq, translates


def W(text):
    return tuple(text)


def cell(word, T):
    return (W(word), frozenset(T))


def act(system, w, c):
    """Left multiplication of a poset cell (u, T) by a group element w."""
    u, T = c
    return (system.mul(w, u), T)


# finite systems whose down-sets are checked cell by cell against `sal_leq`
DOWN_SET_SYSTEMS = [
    make_a3(),
    CoxeterSystem("abc", {("a", "b"): 3}),
    make_i25(),
    CoxeterSystem("ab", {("a", "b"): 6}),
    make_b3(),
]
DOWN_SET_IDS = ["A3", "A2xA1", "I2(5)", "G2", "B3"]


def below_in(elements, leq):
    """The listing callable of a pairwise order on a finite set."""
    return lambda q: [p for p in elements if leq(p, q)]


@pytest.fixture(scope="module")
def poset_a2(a2):
    return sal_poset(a2)


class TestOrder:
    def test_examples(self, a2):
        assert sal_leq(a2, cell("", ""), cell("a", "a"))
        assert sal_leq(a2, cell("a", "a"), cell("a", "a"))
        assert not sal_leq(a2, cell("a", "a"), cell("", "b"))

    def test_partial_order_axioms(self, poset_a2, a2):
        cells = poset_a2.cells
        for p in cells:
            assert sal_leq(a2, p, p)
        for p in cells:
            for q in cells:
                if p != q and sal_leq(a2, p, q):
                    assert not sal_leq(a2, q, p)
        for p in cells:
            above = [q for q in cells if sal_leq(a2, p, q)]
            for q in above:
                for r in cells:
                    if sal_leq(a2, q, r):
                        assert sal_leq(a2, p, r)


class TestPoset:
    def test_a2_census(self, poset_a2):
        assert len(poset_a2.cells) == 24
        assert poset_a2.census() == (6, 12, 6)

    def test_single_generator(self):
        system = CoxeterSystem("a")
        poset = sal_poset(system)
        assert poset.census() == (2, 2)

    def test_empty_system(self):
        assert sal_poset(CoxeterSystem([])).census() == (1,)

    def test_infinite_type_rejected(self, ainf):
        with pytest.raises(InfiniteType):
            sal_poset(ainf)
        with pytest.raises(InfiniteType):
            SalvettiPoset(ainf)

    def test_group_action_is_free_and_order_preserving(self, poset_a2, a2):
        elements = a2.enumerate_group("ab")
        cells = poset_a2.cells
        for w in elements:
            if not w:
                continue
            image = [act(a2, w, c) for c in cells]
            assert sorted(image) == sorted(cells)
            assert all(act(a2, w, c) != c for c in cells)
        for p in cells[:8]:
            for q in cells:
                for w in elements:
                    assert sal_leq(a2, p, q) == sal_leq(
                        a2, act(a2, w, p), act(a2, w, q)
                    )

    def test_orbit_census_matches_quotient(self, poset_a2, a2):
        orbits = set()
        for c in poset_a2.cells:
            orbit = frozenset(
                act(a2, w, c) for w in a2.enumerate_group("ab")
            )
            orbits.add(orbit)
        counts = {}
        for orbit in orbits:
            dim = len(next(iter(orbit))[1])
            counts[dim] = counts.get(dim, 0) + 1
            assert len(orbit) == 6
        assert tuple(counts[k] for k in sorted(counts)) == quotient_census(a2)

    @pytest.mark.parametrize("system", DOWN_SET_SYSTEMS, ids=DOWN_SET_IDS)
    def test_down_set_is_every_cell_below(self, system):
        # the listed down-set against the defining order, cell by cell
        poset = sal_poset(system)
        for high in poset.cells:
            below = {low for low in poset.cells if sal_leq(system, low, high)}
            listed = poset.down_set(high)
            assert isinstance(listed, tuple), high
            assert len(listed) == len(set(listed)) and set(listed) == below, high


def sentinel_homology(simplices):
    """Homology of an order complex put between two sentinel ends: the
    reduced homology, shifted up two dimensions."""
    return interval_complex([(None, *s, None) for s in [(), *simplices]]).homology()


class TestOrderComplex:
    def test_two_element_chain(self):
        simplices = order_complex([0, 1], below_in([0, 1], lambda p, q: p <= q))
        assert sorted(simplices) == [(0,), (0, 1), (1,)]

    def test_antichain(self):
        simplices = order_complex([0, 1, 2], below_in([0, 1, 2], lambda p, q: p == q))
        assert sorted(simplices) == [(0,), (1,), (2,)]

    def test_full_complex_homology(self, poset_a2, a2):
        # the realization is the complexified reflection arrangement
        # complement for the 6-element dihedral group: free x infinite
        # cyclic fundamental group, so (Z, Z^3, Z^2); between sentinel
        # ends the homology is reduced and shifted up two dimensions
        cells = poset_a2.cells
        simplices = order_complex(
            cells, below_in(cells, lambda p, q: sal_leq(a2, p, q))
        )
        euler = sum((-1) ** (len(s) - 1) for s in simplices)
        assert euler == 0
        assert sentinel_homology(simplices) == [
            HomologyGroup(0),
            HomologyGroup(0),
            HomologyGroup(0),
            HomologyGroup(3),
            HomologyGroup(2),
        ]

    @pytest.mark.parametrize("system", DOWN_SET_SYSTEMS, ids=DOWN_SET_IDS)
    def test_listed_chains_are_the_pairwise_chains(self, system):
        # each cell's order complex, from listed down-sets and from `sal_leq`
        poset = sal_poset(system)
        for cell in poset.cells:
            closed = poset.down_set(cell)
            listed = order_complex(closed, poset.down_set)
            pairwise = order_complex(
                closed, below_in(closed, lambda p, q: sal_leq(system, p, q))
            )
            assert len(listed) == len(set(listed)), cell
            assert set(listed) == set(pairwise), cell

    @pytest.mark.parametrize("system", DOWN_SET_SYSTEMS, ids=DOWN_SET_IDS)
    def test_interval_chains_are_the_chains_ending_at_the_cell(self, system):
        # the pair check's chains, listed from (e, R) down to the sentinel,
        # against the order complex's chains that end at (e, R)
        poset = sal_poset(system)
        for R in system.sf():
            top = ((), R)
            listed = interval_chains(
                top, lambda q: [p for p in poset.down_set(q) if p != q], None
            )
            ending = order_complex(poset.down_set(top), poset.down_set)
            expected = {(*chain[::-1], None) for chain in ending if chain[-1] == top}
            assert len(listed) == len(set(listed)), R
            assert set(listed) == expected, R

    def test_homology_ignores_simplex_order(self, poset_a2):
        complexes = [order_complex(poset_a2.cells, poset_a2.down_set)]
        poset_b3 = sal_poset(make_b3())
        top = max(poset_b3.dim(c) for c in poset_b3.cells)
        for cell in poset_b3.cells:
            if poset_b3.dim(cell) == top:
                closed = poset_b3.down_set(cell)
                complexes.append(order_complex(closed, poset_b3.down_set))
        rng = random.Random(20261018)
        for simplices in complexes:
            expected = sentinel_homology(simplices)
            for _ in range(2):
                shuffled = list(simplices)
                rng.shuffle(shuffled)
                assert sentinel_homology(shuffled) == expected


class TestCellPairs:
    def test_point_pair(self, poset_a2):
        report = cell_pair_check(poset_a2, cell("", ""))
        assert report.closed_size == 1
        assert report.strict_size == 0

    def test_edge_pair_is_zero_sphere(self, poset_a2):
        report = cell_pair_check(poset_a2, cell("", "a"))
        assert report.strict_size == 2

    def test_all_cells(self, poset_a2):
        for c in poset_a2.cells:
            cell_pair_check(poset_a2, c)

    def test_corrupted_poset_detected(self, a2, monkeypatch):
        # dropping a vertex from every listing breaks the sphere
        poset = sal_poset(a2)
        dropped = cell("a", "")
        listed = poset.down_set
        monkeypatch.setattr(
            poset, "down_set", lambda c: tuple(p for p in listed(c) if p != dropped)
        )
        with pytest.raises(CheckFailed, match="sphere"):
            cell_pair_check(poset, cell("", "ab"))

    @pytest.mark.parametrize("system", DOWN_SET_SYSTEMS, ids=DOWN_SET_IDS)
    def test_one_reduction_per_orbit(self, system):
        # every cell is checked as a translate of its (e, R), so only one
        # strict down-set per finite-type subset is reduced
        poset = sal_poset(system)
        for c in poset.cells:
            cell_pair_check(poset, c)
        assert set(poset._pair_homology) == set(system.sf())

    def test_cell_outside_the_poset_fails(self, poset_a2):
        # aa = e, so this names (e, {a}) in W, but it is no cell of the poset:
        # its name is not canonical
        outside = (W("aa"), frozenset("a"))
        assert outside not in poset_a2.cells
        with pytest.raises(CheckFailed):
            cell_pair_check(poset_a2, outside)

    def test_type_outside_sf_fails(self, poset_a2, a2):
        # W is finite, so a type outside sf names a letter outside the system
        outside = cell("", "ac")
        assert outside[1] not in a2.sf()
        with pytest.raises(CheckFailed):
            cell_pair_check(poset_a2, outside)

    def test_cell_missing_from_its_own_listing_fails(self, a2, monkeypatch):
        # (e, {a}) dropped from its own listing leaves the two points
        # (e, {}) and (a, {}) below it, a 0-sphere, but no cone on the cell
        poset = sal_poset(a2)
        minimal = poset._minimal

        def without_identity_cell(R):
            return [
                (beta, [T for T in types if beta or T != R])
                for beta, types in minimal(R)
            ]

        monkeypatch.setattr(poset, "_minimal", without_identity_cell)
        named = cell("b", "a")
        assert set(poset.down_set(((), frozenset("a")))) == {cell("", ""), cell("a", "")}
        with pytest.raises(CheckFailed, match="not in its own down-set"):
            cell_pair_check(poset, named)


class TestDeletedGuarantees:
    """What the pair check no longer computes, kept as properties of the
    full poset: each cell's down-set is the translate of its (e, R)'s, and
    each closed down-set is acyclic."""

    @pytest.mark.parametrize("system", DOWN_SET_SYSTEMS, ids=DOWN_SET_IDS)
    def test_every_cell_translates_its_identity_cell(self, system):
        poset = sal_poset(system)
        for c in poset.cells:
            assert translates(poset, ((), c[1]), c), c

    @pytest.mark.parametrize("system", DOWN_SET_SYSTEMS, ids=DOWN_SET_IDS)
    def test_closed_down_sets_are_acyclic(self, system):
        poset = sal_poset(system)
        for T in system.sf():
            closed = poset.down_set(((), T))
            simplices = order_complex(closed, poset.down_set)
            assert all(h == HomologyGroup(0) for h in sentinel_homology(simplices)), T


class TestQuotient:
    def test_census_values(self, a2, ainf):
        assert quotient_census(a2) == (1, 2, 1)
        assert quotient_census(ainf) == (1, 2)
        assert quotient_census(CoxeterSystem([])) == (1,)


class TestPolygons:
    def test_vertex_lists(self, a2, a1a1):
        assert polygon_vertices(a2, (), "a", "b") == [
            (),
            W("a"),
            W("ab"),
            W("aba"),
            W("ba"),
            W("b"),
        ]
        assert polygon_vertices(a1a1, (), "a", "b") == [
            (),
            W("a"),
            W("ab"),
            W("b"),
        ]

    def test_translated_polygons(self, b2):
        for w in b2.enumerate_group("ab"):
            vertices = polygon_vertices(b2, w, "a", "b")
            assert len(vertices) == 8
            assert len(set(vertices)) == 8

    def test_infinite_order_rejected(self, ainf):
        with pytest.raises(InfiniteM):
            polygon_vertices(ainf, (), "a", "b")

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_relator_triple_agreement(self, m):
        system = CoxeterSystem("ab", {("a", "b"): m})
        matching = BarMatching(ArtinMonoid(system))
        polygon = polygon_boundary_word(system, "a", "b")
        collapsed = boundary_word_2cell(matching, "a", "b")
        formula = braid_relator_word("a", "b", m)
        assert cyclic_words_equal(polygon, formula)
        assert cyclic_words_equal(polygon, collapsed)
