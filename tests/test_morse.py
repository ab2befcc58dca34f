import math
from itertools import combinations

import pytest

from artinhom import ArtinMonoid, CoxeterSystem
from artinhom.bar import layer_homology
from artinhom.errors import InfiniteM, InternalError, NonAcyclicInput
from artinhom.homology import HomologyGroup
from artinhom.matching import BarMatching
from artinhom.morse import (
    boundary_word_2cell,
    braid_relator_word,
    cyclic_words_equal,
    invert_word,
    morse_boundary,
    reduced_complex,
)
from conftest import (
    MatchEdge,
    closed_form_homology,
    columns,
    entry,
    ids,
    suffix_products,
    words,
)


def W(text):
    return tuple(text)


def Z(rank, *torsion):
    return HomologyGroup(rank, tuple(torsion))


def C(text):
    """A cell written as factors separated by bars, e.g. "ab|cd"."""
    return tuple(tuple(factor) for factor in text.split("|"))


def free_monoid(gens):
    orders = {pair: math.inf for pair in combinations(gens, 2)}
    return ArtinMonoid(CoxeterSystem(gens, orders))


class StubMatching:
    """Just what morse_boundary reads: a monoid and on-demand edges of
    chains, given as pairs of cells."""

    def __init__(self, mon, pairs):
        self.mon = mon
        self.edges = {}
        for lower, upper in pairs:
            edge = MatchEdge(C(upper), C(lower), "M1").chains(mon)
            self.edges[edge[0]] = self.edges[edge[1]] = edge

    def chain(self, text):
        return ids(self.mon, suffix_products(self.mon, C(text)))

    def edge(self, chain):
        return self.edges.get(chain)


class TestAcyclicity:
    def test_cycling_zig_zag_paths_are_rejected(self):
        # [ab|cd] -> [a|b|cd] -> [a|bcd] -> [a|bc|d] -> [abc|d] -> [ab|c|d]
        # -> [ab|cd]: each upper cell has the next lower cell as a face
        matching = StubMatching(
            free_monoid("abcd"),
            [("ab|cd", "a|b|cd"), ("a|bcd", "a|bc|d"), ("abc|d", "ab|c|d")],
        )
        with pytest.raises(NonAcyclicInput):
            morse_boundary(matching, {matching.chain("a|b|cd")})

    def test_matched_face_must_have_unit_incidence(self):
        # [ab] is not a face of [a|a], whose boundary is 2[a] - [aa]
        matching = StubMatching(free_monoid("ab"), [("ab", "a|a")])
        with pytest.raises(InternalError):
            morse_boundary(matching, {matching.chain("a|b")})


class TestReducedComplex:
    def test_census_matches_subset_strata(
        self, mon_a2, mon_b2, mon_i25, mon_a1a1, mon_ainf, mon_a3
    ):
        expected = {
            id(mon_a2): (1, 2, 1),
            id(mon_b2): (1, 2, 1),
            id(mon_i25): (1, 2, 1),
            id(mon_a1a1): (1, 2, 1),
            id(mon_ainf): (1, 2),
            id(mon_a3): (1, 3, 3, 1),
        }
        for mon in (mon_a2, mon_b2, mon_i25, mon_a1a1, mon_ainf, mon_a3):
            complex_ = reduced_complex(BarMatching(mon))
            assert complex_.census() == expected[id(mon)]

    def test_one_cells_have_zero_boundary(self, mon_a2):
        complex_ = reduced_complex(BarMatching(mon_a2))
        assert complex_.boundaries[1] == columns([[0, 0]])

    def test_two_cell_boundary_odd_and_even(self, mon_a2, mon_a1a1, mon_b2):
        # odd order: the two edge coefficients differ by sign; even: cancel
        odd = reduced_complex(BarMatching(mon_a2))
        assert odd.boundaries[2] in (columns([[-1], [1]]), columns([[1], [-1]]))
        for mon in (mon_a1a1, mon_b2):
            even = reduced_complex(BarMatching(mon))
            assert even.boundaries[2] == columns([[0], [0]])

    def test_free_case_has_no_two_cells(self, mon_ainf):
        complex_ = reduced_complex(BarMatching(mon_ainf))
        assert complex_.census() == (1, 2)
        assert complex_.boundaries[1] == columns([[0, 0]])

    def test_composition_vanishes_in_rank_three(self, mon_a3):
        reduced_complex(BarMatching(mon_a3)).chain_complex().check_composition()

    def test_homology_of_reduced_complexes(
        self, mon_a2, mon_b2, mon_i25, mon_a1a1, mon_ainf, mon_a3
    ):
        expected = {
            id(mon_a2): [Z(1), Z(1), Z(0)],
            id(mon_b2): [Z(1), Z(2), Z(1)],
            id(mon_i25): [Z(1), Z(1), Z(0)],
            id(mon_a1a1): [Z(1), Z(2), Z(1)],
            id(mon_ainf): [Z(1), Z(2)],
            id(mon_a3): [Z(1), Z(1), Z(0, 2), Z(0)],
        }
        for mon in (mon_a2, mon_b2, mon_i25, mon_a1a1, mon_ainf, mon_a3):
            complex_ = reduced_complex(BarMatching(mon)).chain_complex()
            assert complex_.homology() == expected[id(mon)]

    @pytest.mark.parametrize(
        "gens, orders, expected",
        [
            # every literal is also the homology of De Concini-Salvetti's
            # closed-form complex (`closed_form_homology`), which the test
            # recomputes without W's table or the monoid
            ("abc", {("a", "b"): 4, ("b", "c"): 3}, [Z(1), Z(2), Z(2), Z(1)]),
            ("abc", {("a", "b"): 5, ("b", "c"): 3}, [Z(1), Z(1), Z(1), Z(1)]),
            # H_*(Br_5) (Arnold 1970)
            (
                "abcd",
                {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3},
                [Z(1), Z(1), Z(0, 2), Z(0), Z(0)],
            ),
            (
                "abcd",
                {("a", "b"): 3, ("b", "c"): 3, ("b", "d"): 3},
                [Z(1), Z(1), Z(0, 2, 2, 2), Z(1), Z(1)],
            ),
            (
                "abcd",
                {("a", "b"): 4, ("b", "c"): 3, ("c", "d"): 3},
                [Z(1), Z(2), Z(2, 2), Z(2), Z(1)],
            ),
            # H_*(Br_6)
            (
                "abcde",
                {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("d", "e"): 3},
                [Z(1), Z(1), Z(0, 2), Z(0, 2), Z(0, 3), Z(0)],
            ),
            (
                "abcde",
                {("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3, ("c", "e"): 3},
                [Z(1), Z(1), Z(0, 2, 2), Z(0, 2), Z(0, 2), Z(0)],
            ),
            (
                "abcd",
                {("a", "b"): 5, ("b", "c"): 3, ("c", "d"): 3},
                [Z(1), Z(1), Z(0, 2), Z(1), Z(1)],
            ),
            # F4: H_1 = Z^2, since the odd edges ab and cd give two conjugacy
            # classes of generators
            (
                "abcd",
                {("a", "b"): 3, ("b", "c"): 4, ("c", "d"): 3},
                [Z(1), Z(2), Z(2), Z(2), Z(1)],
            ),
        ],
        ids=["B3", "H3", "A4", "D4", "B4", "A5", "D5", "H4", "F4"],
    )
    def test_homology_of_larger_finite_types(
        self, gens, orders, expected
    ):
        assert closed_form_homology(CoxeterSystem(gens, orders)) == expected
        mon = ArtinMonoid(CoxeterSystem(gens, orders))
        complex_ = reduced_complex(BarMatching(mon)).chain_complex()
        assert complex_.homology() == expected

    def test_naturality_under_generator_inclusion(self, mon_a2, mon_a3):
        small = reduced_complex(BarMatching(mon_a2))
        large = reduced_complex(BarMatching(mon_a3))
        pair = frozenset("ab")
        for s in "ab":
            T = frozenset(s)
            assert entry(large, T, frozenset()) == entry(small, T, frozenset())
        for s in "ab":
            assert entry(large, pair, frozenset(s)) == entry(
                small, pair, frozenset(s)
            )

    def test_flows_drop_strictly_inside_generating_subsets(self, mon_a3):
        # the top cell's boundary only touches proper subsets
        complex_ = reduced_complex(BarMatching(mon_a3))
        top = frozenset("abc")
        entries = {
            R: entry(complex_, top, R)
            for R in complex_.cells_by_dim[2]
        }
        assert entries == {
            frozenset("ab"): 0,
            frozenset("ac"): -2,
            frozenset("bc"): 0,
        }


class TestPerGradeCollapse:
    def test_layer_homology_is_free_on_essential_cells(self, mon_a2, mon_b2):
        for mon in (mon_a2, mon_b2):
            matching = BarMatching(mon)
            census = {}
            for T in mon.system.sf():
                product = words(mon, matching.essential_chain(T))[0]
                key = (len(product), len(T))
                census[key] = census.get(key, 0) + 1
            top = max(n for n, _ in census)
            for n in range(top + 3):
                layer = layer_homology(mon, n)
                for k, group in enumerate(layer):
                    assert group == Z(census.get((n, k), 0)), (n, k)


class TestBoundaryWords:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_dihedral_relator(self, m):
        system = CoxeterSystem("ab", {("a", "b"): m})
        matching = BarMatching(ArtinMonoid(system))
        word = boundary_word_2cell(matching, "a", "b")
        assert cyclic_words_equal(word, braid_relator_word("a", "b", m))

    def test_exact_words_small_orders(self, mon_a1a1, mon_a2):
        word = boundary_word_2cell(BarMatching(mon_a1a1), "a", "b")
        assert cyclic_words_equal(
            word, ((1, "a"), (1, "b"), (-1, "a"), (-1, "b"))
        )
        word = boundary_word_2cell(BarMatching(mon_a2), "a", "b")
        assert cyclic_words_equal(
            word, ((1, "a"), (1, "b"), (1, "a"), (-1, "b"), (-1, "a"), (-1, "b"))
        )

    def test_infinite_order_rejected(self, mon_ainf):
        with pytest.raises(InfiniteM):
            boundary_word_2cell(BarMatching(mon_ainf), "a", "b")

    def test_cyclic_comparison_helper(self):
        word = ((1, "a"), (1, "b"), (-1, "a"))
        assert cyclic_words_equal(word, word[1:] + word[:1])
        assert cyclic_words_equal(word, invert_word(word))
        assert not cyclic_words_equal(word, ((1, "a"), (1, "b"), (1, "a")))
        assert not cyclic_words_equal(word, word[:2])


class TestMorseBoundaryDirectly:
    def test_flow_reproduces_known_two_cell_boundary(self, mon_a2):
        matching = BarMatching(mon_a2)
        essentials = {matching.essential_chain(T) for T in mon_a2.system.sf()}
        flows = morse_boundary(matching, essentials)
        two_cell = matching.essential_chain("ab")
        a, b = ids(mon_a2, (W("a"), ())), ids(mon_a2, (W("b"), ()))
        assert flows[two_cell] in ({a: 1, b: -1}, {a: -1, b: 1})
        assert flows[a] == {}
